"""The memoized family drivers and their caching."""

import json
import os
import signal
import time
from fractions import Fraction
from math import factorial

import pytest

from autgraph import (
    BetaEngine,
    BetaKey,
    BlockLimits,
    GraphError,
    LinearCombination,
    Multigraph,
    aut_order,
    block_decomposition,
    canonical_key,
    cycle_graph,
    is_biconnected,
    multi_edge_graph,
    path_graph,
    q_hat_map,
    q_map,
)
from autgraph import ops, recursion
from autgraph.verify import blocks_are_cycles, blocks_within_limits, enumerate_classes
from full_enumeration import full_insertion, full_split

TWO_PAIRS = Multigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
THREE_PAIRS_HUB = Multigraph(4, ((1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 4)))
DOUBLED_TRIANGLE = Multigraph(3, ((1, 2), (1, 2), (1, 3), (2, 3)))

# one engine for the tests that need no engine of their own, so they share a memo
ENGINE = BetaEngine()


def classes(combo):
    return combo.class_coefficients()


# ----------------------------------------------------------------------
# biconnected family

def test_biconn_base_case_multi_edges():
    for k in range(0, 5):
        combo = ENGINE.beta(BetaKey("biconn", 2, k))
        expected = {canonical_key(multi_edge_graph(k + 1)): Fraction(1, 2 * factorial(k + 1))}
        assert classes(combo) == expected


def test_biconn_vanishes_for_trees_beyond_two_vertices():
    assert not ENGINE.beta(BetaKey("biconn", 3, 0))
    assert not ENGINE.beta(BetaKey("biconn", 5, 0))


def test_biconn_cycles():
    for n in range(3, 7):
        combo = ENGINE.beta(BetaKey("biconn", n, 1))
        assert classes(combo) == {canonical_key(cycle_graph(n)): Fraction(1, 2 * n)}


def test_biconn_3_2_doubled_triangle():
    combo = ENGINE.beta(BetaKey("biconn", 3, 2))
    assert aut_order(DOUBLED_TRIANGLE) == 4
    assert classes(combo) == {canonical_key(DOUBLED_TRIANGLE): Fraction(1, 4)}


def test_biconn_supports_only_biconnected_classes():
    for n, k in ((3, 2), (4, 2), (3, 3)):
        for _, _, rep in ENGINE.beta(BetaKey("biconn", n, k)).terms():
            assert is_biconnected(rep)


def test_biconn_with_legs_has_positive_coefficients():
    combo = ENGINE.with_legs(BetaKey("biconn", 3, 1), 2)
    assert combo
    for _, coeff, _ in combo.terms():
        assert coeff > 0


def test_family_supports_match_their_predicates():
    from autgraph import block_decomposition, is_connected, is_two_edge_connected

    for j, n, k in ((2, 4, 2), (2, 3, 3), (3, 4, 3)):
        for _, _, rep in ENGINE.beta(BetaKey("aux", n, k, j=j)).terms():
            decomposition = block_decomposition(rep)
            assert is_two_edge_connected(rep)
            assert len(decomposition.cut_vertices) == 1
            assert len(decomposition.blocks) == j
    for _, _, rep in ENGINE.beta(BetaKey("two_edge", 4, 2)).terms():
        assert is_two_edge_connected(rep)
    for _, _, rep in ENGINE.beta(BetaKey("conn", 5, 1)).terms():
        assert is_connected(rep)


# ----------------------------------------------------------------------
# one-cut-vertex family

def test_aux_two_pairs():
    combo = ENGINE.beta(BetaKey("aux", 3, 2, j=2))
    assert aut_order(TWO_PAIRS) == 8
    assert classes(combo) == {canonical_key(TWO_PAIRS): Fraction(1, 8)}


def test_aux_empty_outside_domain():
    assert not ENGINE.beta(BetaKey("aux", 3, 1, j=2))  # k < j
    assert not ENGINE.beta(BetaKey("aux", 3, 3, j=3))  # n < j + 1


def test_aux_three_pairs_hub():
    combo = ENGINE.beta(BetaKey("aux", 4, 3, j=3))
    assert aut_order(THREE_PAIRS_HUB) == 48
    assert classes(combo) == {canonical_key(THREE_PAIRS_HUB): Fraction(1, 48)}


def test_aux_requires_j_at_least_two():
    with pytest.raises(GraphError):
        ENGINE.beta(BetaKey("aux", 3, 2, j=1))


# ----------------------------------------------------------------------
# connected family

def test_conn_trees():
    assert classes(ENGINE.beta(BetaKey("conn", 3, 0))) == {
        canonical_key(path_graph(3)): Fraction(1, 2)
    }
    star = Multigraph(4, ((1, 2), (1, 3), (1, 4)))
    assert classes(ENGINE.beta(BetaKey("conn", 4, 0))) == {
        canonical_key(path_graph(4)): Fraction(1, 2),
        canonical_key(star): Fraction(1, 6),
    }


def test_conn_base_case_matches_biconn():
    assert ENGINE.beta(BetaKey("conn", 2, 1)) == ENGINE.beta(BetaKey("biconn", 2, 1))
    assert classes(ENGINE.beta(BetaKey("conn", 2, 1))) == {
        canonical_key(multi_edge_graph(2)): Fraction(1, 4)
    }


# ----------------------------------------------------------------------
# 2-edge-connected family

def test_two_edge_base_case():
    assert classes(ENGINE.beta(BetaKey("two_edge", 2, 1))) == {
        canonical_key(multi_edge_graph(2)): Fraction(1, 4)
    }


def test_two_edge_3_2():
    assert classes(ENGINE.beta(BetaKey("two_edge", 3, 2))) == {
        canonical_key(DOUBLED_TRIANGLE): Fraction(1, 4),
        canonical_key(TWO_PAIRS): Fraction(1, 8),
    }


def test_two_edge_c4():
    assert classes(ENGINE.beta(BetaKey("two_edge", 4, 1))) == {
        canonical_key(cycle_graph(4)): Fraction(1, 8)
    }


def test_two_edge_empty_without_cycles():
    assert not ENGINE.beta(BetaKey("two_edge", 2, 0))
    assert not ENGINE.beta(BetaKey("two_edge", 4, 0))


# ----------------------------------------------------------------------
# cycle-restricted variant and block limits

def test_two_edge_cycles_base():
    assert classes(ENGINE.beta(BetaKey("two_edge_cycles", 2, 1))) == {
        canonical_key(multi_edge_graph(2)): Fraction(1, 4)
    }


def test_two_edge_cycles_excludes_doubled_triangle():
    assert classes(ENGINE.beta(BetaKey("two_edge_cycles", 3, 2))) == {
        canonical_key(TWO_PAIRS): Fraction(1, 8)
    }


def test_two_edge_cycles_c4():
    assert classes(ENGINE.beta(BetaKey("two_edge_cycles", 4, 1))) == {
        canonical_key(cycle_graph(4)): Fraction(1, 8)
    }


def test_two_edge_cycles_is_blockwise_filter():
    for n, k in ((3, 2), (4, 2), (3, 3), (5, 1)):
        full = ENGINE.beta(BetaKey("two_edge", n, k))
        assert ENGINE.beta(BetaKey("two_edge_cycles", n, k)) == full.restricted(blocks_are_cycles)


def test_block_limits_match_blockwise_filter():
    for n, k in ((4, 2), (4, 3), (3, 3)):
        full = ENGINE.beta(BetaKey("two_edge", n, k))
        for limits in (BlockLimits(3, 1), BlockLimits(2, 2)):
            filtered = full.restricted(lambda g, L=limits: blocks_within_limits(g, L))
            assert ENGINE.beta(BetaKey("two_edge", n, k, options=limits)) == filtered


def test_block_limits_validation():
    with pytest.raises(GraphError):
        ENGINE.beta(BetaKey("two_edge", 4, 2, options=BlockLimits(1, 1)))
    with pytest.raises(GraphError):
        ENGINE.beta(BetaKey("two_edge", 4, 2, options=BlockLimits(2, 0)))
    with pytest.raises(GraphError):
        BetaEngine().beta(BetaKey("conn", 4, 1, options=BlockLimits(3, 1)))
    for limits in (BlockLimits(2.5, 1), BlockLimits("3", 1), BlockLimits(3, True), (3, 1)):
        with pytest.raises(GraphError):
            ENGINE.beta(BetaKey("two_edge", 5, 3, options=limits))


def test_default_limits_normalize_to_plain_family():
    engine = BetaEngine()
    explicit = engine.beta(BetaKey("two_edge", 3, 2, options=BlockLimits(2, 1)))
    assert explicit == engine.beta(BetaKey("two_edge", 3, 2))


def test_keys_are_values_that_replace_fields():
    key = BetaKey("two_edge", 4, 2, options=BlockLimits(min_k=2))
    assert key == ("two_edge", 4, 2, 0, (2, 2)) and BlockLimits() == (2, 1)
    assert key._replace(n=5, k=3) == BetaKey("two_edge", 5, 3, options=BlockLimits(2, 2))
    assert key.options._replace(min_n=3) == BlockLimits(3, 2)
    memo = {key: 1, BetaKey("two_edge", 4, 2, options=BlockLimits(2, 2)): 2}
    assert memo == {key: 2}
    engine = BetaEngine()
    first = engine.beta(key)
    assert engine.beta(key._replace(options=BlockLimits(2, 2))) is first


# ----------------------------------------------------------------------
# domain validation

def test_invalid_arguments_raise():
    with pytest.raises(GraphError):
        ENGINE.beta(BetaKey("biconn", 1, 0))
    with pytest.raises(GraphError):
        ENGINE.beta(BetaKey("biconn", 3, -1))
    for bad_legs in (-2, 1.5, True):
        with pytest.raises(GraphError):
            ENGINE.with_legs(BetaKey("conn", 3, 0), bad_legs)
    with pytest.raises(GraphError):
        BetaEngine().beta(BetaKey("nonsense", 3, 1))
    with pytest.raises(GraphError):
        BetaEngine().beta(BetaKey("conn", 3, 1, j=2))
    for bad_j in (2.5, "3"):
        with pytest.raises(GraphError, match="j must be an integer"):
            BetaEngine().beta(BetaKey("aux", 4, 2, j=bad_j))


# ----------------------------------------------------------------------
# memoization and the on-disk cache

def test_memo_returns_cached_object():
    engine = BetaEngine()
    first = engine.beta(BetaKey("conn", 4, 1))
    assert engine.beta(BetaKey("conn", 4, 1)) is first


def test_disk_cache_round_trip(tmp_path):
    cold = BetaEngine(cache_dir=tmp_path)
    value = cold.with_legs(BetaKey("conn", 4, 1), 1)
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert "conn-n4-k1.json" in files  # only the leg-free value is stored
    warm = BetaEngine(cache_dir=tmp_path)
    assert warm.with_legs(BetaKey("conn", 4, 1), 1) == value


def test_disk_cache_requires_format_version(tmp_path):
    engine = BetaEngine(cache_dir=tmp_path)
    value = engine.beta(BetaKey("biconn", 3, 1))
    path = tmp_path / "biconn-n3-k1.json"
    payload = json.loads(path.read_text())
    assert payload["format_version"] == recursion.CACHE_FORMAT_VERSION
    payload["format_version"] = 999
    path.write_text(json.dumps(payload))
    fresh = BetaEngine(cache_dir=tmp_path)
    assert fresh.beta(BetaKey("biconn", 3, 1)) == value  # recomputed, not trusted
    assert json.loads(path.read_text())["format_version"] == recursion.CACHE_FORMAT_VERSION


@pytest.mark.parametrize(
    "payload",
    [b"{not json", b"\xff\xfe{", b"[" * 100000],
    ids=["not-json", "not-utf8", "nested-too-deep"],
)
def test_disk_cache_ignores_corrupt_files(tmp_path, payload):
    engine = BetaEngine(cache_dir=tmp_path)
    value = engine.beta(BetaKey("biconn", 3, 1))
    path = tmp_path / "biconn-n3-k1.json"
    path.write_bytes(payload)
    fresh = BetaEngine(cache_dir=tmp_path)
    assert fresh.beta(BetaKey("biconn", 3, 1)) == value


@pytest.mark.parametrize(
    "compute",
    [
        lambda engine: engine.beta(BetaKey("conn", 6, 2)),
        lambda engine: engine.beta(BetaKey("two_edge", 5, 3, options=BlockLimits(3, 1))),
    ],
    ids=["conn-6-2", "two_edge-5-3-bn3-bk1"],
)
def test_disk_cache_stores_each_class_key_and_reads_it_back(tmp_path, compute):
    cold = compute(BetaEngine(cache_dir=tmp_path))
    warm = compute(BetaEngine(cache_dir=tmp_path))
    files = sorted(tmp_path.glob("*.json"))
    assert files
    for path in files:
        payload = json.loads(path.read_text())
        assert payload["format_version"] == recursion.CACHE_FORMAT_VERSION
        for term in payload["terms"]:
            rep = Multigraph.from_json_dict(term["graph"])
            assert term["key"].encode("ascii") == canonical_key(rep).encoding
    assert [(key.encoding, coeff, rep) for key, coeff, rep in warm.terms()] == [
        (key.encoding, coeff, rep) for key, coeff, rep in cold.terms()
    ]


def test_disk_cache_is_written_compactly(tmp_path):
    BetaEngine(cache_dir=tmp_path).beta(BetaKey("biconn", 3, 1))
    text = (tmp_path / "biconn-n3-k1.json").read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _edit_first_term(payload, edit):
    edit(payload["terms"][0])


def _set_header(name, value):
    def edit(payload):
        payload[name] = value

    return edit


def _add_half_to_first_endpoint(term):
    # int() would truncate it back to the stored vertex
    term["graph"]["edges"][0][0] += 0.5


# Each edit turns the stored value of biconn 4 2 into one that is not that
# value; a load must refuse it, so the value is recomputed and rewritten.
_REJECTED_EDITS = {
    "zero coefficient": lambda p: _edit_first_term(p, lambda t: t.update(coefficient="0/1")),
    "negative coefficient": lambda p: _edit_first_term(
        p, lambda t: t.update(coefficient="-" + t["coefficient"])
    ),
    "coefficient not a string": lambda p: _edit_first_term(p, lambda t: t.update(coefficient=0.5)),
    "family": _set_header("family", "conn"),
    "n": _set_header("n", 5),
    "k": _set_header("k", 3),
    "j": _set_header("j", 2),
    "options": _set_header("options", {"min_block_n": 3, "min_block_k": 1}),
    "duplicate key": lambda p: p["terms"].append(dict(p["terms"][0])),
    "key not a string": lambda p: _edit_first_term(p, lambda t: t.update(key=7)),
    "key not ascii": lambda p: _edit_first_term(p, lambda t: t.update(key=t["key"] + "\u00e9")),
    "key without fields": lambda p: _edit_first_term(p, lambda t: t.update(key="4")),
    "key on other n": lambda p: _edit_first_term(p, lambda t: t.update(key="5" + t["key"][1:])),
    "key with legs": lambda p: _edit_first_term(p, lambda t: t.update(key=t["key"] + "1:x1")),
    "missing key": lambda p: _edit_first_term(p, lambda t: t.pop("key")),
    "representative on other n": lambda p: _edit_first_term(
        p, lambda t: t["graph"].update(n=5)
    ),
    "representative edge count": lambda p: _edit_first_term(
        p, lambda t: t["graph"]["edges"].pop()
    ),
    "representative with legs": lambda p: _edit_first_term(
        p, lambda t: t["graph"].update(external=[{"label": "x1", "vertex": 1}])
    ),
    "float endpoint": lambda p: _edit_first_term(p, _add_half_to_first_endpoint),
    "terms not a list": lambda p: p.update(terms={"a": 1}),
}


@pytest.mark.parametrize("edit", list(_REJECTED_EDITS.values()), ids=list(_REJECTED_EDITS))
def test_disk_cache_rejects_a_value_that_is_not_this_keys(tmp_path, edit):
    value = BetaEngine(cache_dir=tmp_path).beta(BetaKey("biconn", 4, 2))
    path = tmp_path / "biconn-n4-k2.json"
    written = path.read_text()
    payload = json.loads(written)
    edit(payload)
    path.write_text(json.dumps(payload))
    fresh = BetaEngine(cache_dir=tmp_path)
    assert fresh._load_cached(BetaKey("biconn", 4, 2)) is None
    reloaded = fresh.beta(BetaKey("biconn", 4, 2))
    assert reloaded == value  # recomputed
    assert path.read_text() == written  # and rewritten


def test_disk_cache_accepts_the_file_as_written(tmp_path):
    value = BetaEngine(cache_dir=tmp_path).beta(BetaKey("biconn", 4, 2))
    path = tmp_path / "biconn-n4-k2.json"
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    loaded = BetaEngine(cache_dir=tmp_path)._load_cached(BetaKey("biconn", 4, 2))
    assert loaded is not None and loaded.terms() == value.terms()


def test_version_1_cache_file_is_rewritten_as_current_version(tmp_path):
    value = BetaEngine(cache_dir=tmp_path).beta(BetaKey("biconn", 4, 2))
    path = tmp_path / "biconn-n4-k2.json"
    written = path.read_text()
    payload = json.loads(written)
    payload["format_version"] = 1
    for term in payload["terms"]:
        del term["key"]  # version 1 stored no class keys
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert BetaEngine(cache_dir=tmp_path).beta(BetaKey("biconn", 4, 2)) == value
    assert path.read_text() == written
    assert json.loads(written)["format_version"] == recursion.CACHE_FORMAT_VERSION


def test_disk_cache_terms_are_sorted_by_key(tmp_path):
    engine = BetaEngine(cache_dir=tmp_path)
    combo = engine.beta(BetaKey("two_edge", 4, 2))
    payload = json.loads((tmp_path / "two_edge-n4-k2.json").read_text())
    stored = [term["coefficient"] for term in payload["terms"]]
    expected = [f"{c.numerator}/{c.denominator}" for _, c, _ in combo.terms()]
    assert stored == expected


def test_cache_filenames_include_options(tmp_path):
    engine = BetaEngine(cache_dir=tmp_path)
    engine.beta(BetaKey("two_edge", 4, 2, options=BlockLimits(3, 1)))
    assert (tmp_path / "two_edge-n4-k2-bn3-bk1.json").exists()


def test_default_limits_share_one_memo_entry_and_cache_file(tmp_path):
    plain_dir = tmp_path / "plain"
    plain = BetaEngine(cache_dir=plain_dir)
    plain.beta(BetaKey("two_edge", 4, 2))
    both_dir = tmp_path / "both"
    engine = BetaEngine(cache_dir=both_dir)
    explicit = engine.beta(BetaKey("two_edge", 4, 2, options=BlockLimits()))
    assert engine.beta(BetaKey("two_edge", 4, 2)) is explicit
    assert set(engine._memo) == set(plain._memo)
    assert sorted(p.name for p in both_dir.iterdir()) == sorted(p.name for p in plain_dir.iterdir())


def test_values_with_legs_are_not_memoized_or_stored(tmp_path):
    plain = BetaEngine(cache_dir=tmp_path / "plain")
    plain.beta(BetaKey("conn", 3, 1))
    legged = BetaEngine(cache_dir=tmp_path / "legged")
    value = legged.with_legs(BetaKey("conn", 3, 1), 2)
    assert set(legged._memo) == set(plain._memo)
    assert {p.name for p in (tmp_path / "legged").iterdir()} == {
        p.name for p in (tmp_path / "plain").iterdir()
    }
    assert legged.with_legs(BetaKey("conn", 3, 1), 2) == value


class _FailingWriter:
    """A text file that writes half of what it is given, then runs out of space."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(28, "No space left on device")


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(
        recursion, "open", lambda *args, **kwargs: _FailingWriter(open(*args, **kwargs)),
        raising=False,
    )
    with pytest.raises(OSError):
        BetaEngine(cache_dir=tmp_path).beta(BetaKey("biconn", 2, 1))
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# forked helpers: determinism and failures

def count_forks(monkeypatch):
    """The pids of the helpers forked from now on, through a wrapped os.fork."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def patch_cpus(monkeypatch, count):
    """Let an engine built from now on see ``count`` usable CPUs, its cap on jobs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_engine_matches_serial():
    serial = BetaEngine()
    parallel = BetaEngine(jobs=2)
    for n, k, s in ((4, 1, 0), (3, 2, 0), (4, 0, 1)):
        key = BetaKey("conn", n, k)
        assert parallel.with_legs(key, s) == serial.with_legs(key, s)
    assert parallel.beta(BetaKey("two_edge", 4, 2)) == serial.beta(BetaKey("two_edge", 4, 2))


def test_pooled_evaluations_match_serial(monkeypatch):
    # 2edge 6 4 has evaluations above the in-process threshold, so the
    # unpatched engine forks a helper for each of them
    patch_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    serial = BetaEngine().beta(BetaKey("two_edge", 6, 4))
    assert forks == []
    pooled = BetaEngine(jobs=2).beta(BetaKey("two_edge", 6, 4))
    assert forks
    assert pooled.terms() == serial.terms()
    assert_no_child_left()


def test_jobs_are_capped_at_the_usable_cpus(monkeypatch):
    # 2edge 6 4 has two evaluations of 64 applications or more, of 163 and
    # 214; with 16 jobs and no cap they would fork 29 helpers
    patch_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    capped = BetaEngine(jobs=16).beta(BetaKey("two_edge", 6, 4))
    assert len(forks) == 2
    assert capped.terms() == BetaEngine().beta(BetaKey("two_edge", 6, 4)).terms()
    assert_no_child_left()


class Unpicklable(Exception):
    """Pickles, but loading it calls __init__ with one argument and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


# what each failure raises in the parent, and the message it matches
HELPER_FAILURES = {
    "helper raises": (GraphError, "raised in a helper"),
    "helper raises what does not pickle": (
        ChildProcessError, r"helper process \d+ raised Unpicklable: raised in a helper"
    ),
    "helper killed": (ChildProcessError, r"helper process \d+ ended without a result \(signal 9\)"),
    "parent raises": (GraphError, "raised in the parent"),
}


@pytest.mark.parametrize("failure", HELPER_FAILURES)
def test_helper_failures_are_raised_and_leave_no_process(monkeypatch, failure):
    """A helper's exception is raised again in the parent, by type name and
    message if it does not pickle; a helper that dies raises
    ChildProcessError; an exception in the parent kills its helpers (here
    one that would sleep for a minute).  Every helper is reaped."""
    parent = os.getpid()
    patch_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    apply_slice = recursion._apply_slice

    def misbehaving(applications):
        if os.getpid() != parent:
            if failure == "helper raises":
                raise GraphError("raised in a helper")
            if failure == "helper raises what does not pickle":
                raise Unpicklable("raised", "a helper")
            if failure == "helper killed":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)
        elif failure == "parent raises" and forks:
            raise GraphError("raised in the parent")
        return apply_slice(applications)

    monkeypatch.setattr(recursion, "_apply_slice", misbehaving)
    error, message = HELPER_FAILURES[failure]
    start = time.monotonic()
    with pytest.raises(error, match=message):
        BetaEngine(jobs=2).beta(BetaKey("two_edge", 6, 4))
    assert len(forks) == 1
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_engine_rejects_bad_jobs():
    with pytest.raises(GraphError):
        BetaEngine(jobs=0)
    for jobs in (True, 2.0, 1.5):
        with pytest.raises(GraphError):
            BetaEngine(jobs=jobs)


# ----------------------------------------------------------------------
# cross-family consistency (full grid runs in the acceptance suite)

def test_conn_restriction_reproduces_biconn_spot():
    combo = ENGINE.beta(BetaKey("conn", 4, 2))
    assert combo.restricted(is_biconnected) == ENGINE.beta(BetaKey("biconn", 4, 2))


def test_class_sums_are_inverse_aut_orders_spot():
    for combo in (
        ENGINE.beta(BetaKey("conn", 4, 1)),
        ENGINE.beta(BetaKey("two_edge", 4, 2)),
        ENGINE.with_legs(BetaKey("biconn", 3, 2), 1),
    ):
        for _, coeff, rep in combo.terms():
            assert coeff == Fraction(1, aut_order(rep))


# ----------------------------------------------------------------------
# differential check against the full enumeration
#
# A frozen copy of the engine as it was before the operators were applied
# once per automorphism orbit, sharing none of the engine's drivers:
# insert_block and q_map at every vertex of the target, every ordered
# bipartition in the joined splits, every attachment in the insertions,
# and all n**s leg placements.  The orbit reduction must give the same
# keys, coefficients, representatives and order.

def ref_q_map(g, i, rho):
    return full_split(g, i, rho, False)


def ref_q_hat_map(g, i, rho):
    return full_split(g, i, rho, True)


def ref_insert_block(g, i, block):
    return full_insertion(g, i, block, False)


def ref_insert_block_hat(g, i, block):
    return full_insertion(g, i, block, True)


REF_OPS = {
    "q_map": ref_q_map,
    "q_hat_map": ref_q_hat_map,
    "insert_block": ref_insert_block,
    "insert_block_hat": ref_insert_block_hat,
}


def ref_insertions(weight, target, blocks):
    applications = []
    for _, target_coeff, target_rep in target.terms():
        for _, block_coeff, block_rep in blocks.terms():
            scale = weight * target_coeff * block_coeff
            for i in range(1, target_rep.n + 1):
                applications.append((scale, ("insert_block", target_rep, i, block_rep)))
    return applications


def ref_cut_vertex(g):
    (cut,) = block_decomposition(g).cut_vertices
    return cut


class RefEngine(BetaEngine):
    """The engine with its own drivers: the biconn, aux and block-insertion
    drivers as they were before orbit reduction, applying insert_block and
    q_map at every vertex of the target and each operator through REF_OPS."""

    def with_legs(self, key, s=0):
        labels = recursion._leg_labels(s)
        combo = self.beta(key)
        if not labels:
            return combo
        out = LinearCombination()
        for _, coeff, rep in combo.terms():
            out._merge(ops.xi_distribute(rep, range(1, rep.n + 1), labels), coeff)
        return out

    def _run(self, applications):
        out = LinearCombination()
        for scale, (name, rep, i, arg) in applications:
            out._merge(REF_OPS[name](rep, i, arg), scale)
        return out

    def _compute(self, key):
        if key.family == "biconn":
            return self._ref_biconn(key.n, key.k)
        if key.family == "aux":
            return self._ref_aux(key.j, key.n, key.k)
        if key.family == "conn":
            return self._ref_block_insertions(key, BlockLimits(min_k=0))
        return self._ref_block_insertions(key, key.options or BlockLimits())

    def _ref_biconn(self, n, k):
        if n == 2:
            weight = Fraction(1, 2 * factorial(k + 1))
            return LinearCombination([(multi_edge_graph(k + 1), weight)])
        if k == 0:
            return LinearCombination()
        applications = []
        for rho in range(1, k + 2):
            target = self.beta(BetaKey("biconn", n - 1, k + 1 - rho))
            for _, coeff, rep in target.terms():
                for i in range(1, n):
                    applications.append((coeff, ("q_map", rep, i, rho)))
        for j in range(2, n - 1):
            for rho in range(1, k - j + 2):
                target = self.beta(BetaKey("aux", n - 1, k + 1 - rho, j=j))
                for _, coeff, rep in target.terms():
                    applications.append((coeff, ("q_hat_map", rep, ref_cut_vertex(rep), rho)))
        return self._run(applications) * Fraction(1, k + n - 1)

    def _ref_aux(self, j, n, k):
        if n < j + 1 or k < j:
            return LinearCombination()
        applications = []
        for block_k in range(1, k):
            for block_n in range(2, n):
                blocks = self.beta(BetaKey("biconn", block_n, block_k))
                if not blocks:
                    continue
                weight = block_k + block_n - 1
                if j == 2:
                    target = self.beta(BetaKey("biconn", n - block_n + 1, k - block_k))
                    applications += ref_insertions(weight, target, blocks)
                    continue
                target = self.beta(BetaKey("aux", n - block_n + 1, k - block_k, j=j - 1))
                for _, target_coeff, target_rep in target.terms():
                    cut = ref_cut_vertex(target_rep)
                    for _, block_coeff, block_rep in blocks.terms():
                        spec = ("insert_block_hat", target_rep, cut, block_rep)
                        applications.append((weight * target_coeff * block_coeff, spec))
        return self._run(applications) * Fraction(1, k + n - 1)

    def _ref_block_insertions(self, key, limits):
        n, k = key.n, key.k

        def block_ok(block_n, block_k):
            if key.family == "two_edge_cycles" and block_k != 1:
                return False
            return block_n >= limits.min_n and block_k >= limits.min_k

        applications = []
        for block_k in range(limits.min_k, k - limits.min_k + 1):
            for block_n in range(limits.min_n, n - limits.min_n + 2):
                if not block_ok(block_n, block_k):
                    continue
                blocks = self.beta(BetaKey("biconn", block_n, block_k))
                if not blocks:
                    continue
                target = self.beta(key._replace(n=n - block_n + 1, k=k - block_k))
                applications += ref_insertions(block_k + block_n - 1, target, blocks)
        out = self._run(applications) * Fraction(1, k + n - 1)
        if block_ok(n, k):
            out = out + self.beta(BetaKey("biconn", n, k))
        return out


ORBIT_KEYS = [
    (BetaKey(family, n, k, **extra), 0)
    for family, extra in (
        ("biconn", {}),
        ("conn", {}),
        ("two_edge", {}),
        ("two_edge_cycles", {}),
        ("two_edge_cycles", {"options": BlockLimits(3, 1)}),
        ("aux", {"j": 2}),
        ("aux", {"j": 3}),
    )
    for n in range(2, 7)
    for k in range(0, 7 - n)
] + [
    (BetaKey(family, n, k), s)
    for family in ("conn", "biconn")
    for n in range(2, 7)
    for k in range(0, 7 - n)
    for s in (1, 2)
]


# aux j is empty below n + k = 2j + 1, so no key above builds aux j > 2 or
# a biconn value from it; these do
DEEP_AUX_KEYS = [
    (BetaKey("aux", 4, 3, j=3), 0),
    (BetaKey("aux", 5, 3, j=3), 0),
    (BetaKey("aux", 5, 4, j=4), 0),
    (BetaKey("biconn", 5, 3), 0),
]


def test_orbit_reduction_matches_full_enumeration():
    reference = RefEngine()
    keys = ORBIT_KEYS + DEEP_AUX_KEYS
    expected = [reference.with_legs(key, s).terms() for key, s in keys]
    engine = BetaEngine()
    nonempty = 0
    for (key, s), terms in zip(keys, expected):
        assert engine.with_legs(key, s).terms() == terms, (key, s)
        nonempty += bool(terms)
    assert nonempty == 100 + len(DEEP_AUX_KEYS)


def test_joined_splits_match_full_enumeration():
    checked = 0
    for n in range(1, 6):
        for k in range(0, 6 - n):
            for s in (0, 1):
                for g in enumerate_classes("conn", n, k, s).values():
                    for i in range(1, n + 1):
                        for rho in (1, 2, 3):
                            assert q_map(g, i, rho).terms() == ref_q_map(g, i, rho).terms()
                            assert q_hat_map(g, i, rho).terms() == ref_q_hat_map(g, i, rho).terms()
                            checked += 1
    assert checked == 693
