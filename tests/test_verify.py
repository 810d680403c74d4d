"""The exhaustive enumerator and the verification reports."""

import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from autgraph import (
    BetaEngine,
    GraphError,
    LinearCombination,
    Multigraph,
    canonical_key,
    cycle_graph,
    enumerate_classes,
    erase_external,
    family_predicate,
    is_connected,
    multi_edge_graph,
    path_graph,
    verify_beta,
    verify_lemmas,
)
from autgraph import verify
from autgraph.canon import _KEY_CACHE_SIZE
from autgraph.recursion import BlockLimits
from autgraph.verify import MAX_LEGS, BetaVerification, ClassCheck, _connected_classes, _spans


# ----------------------------------------------------------------------
# enumeration

def test_enumerate_conn_3_0():
    found = enumerate_classes("conn", 3, 0, 0)
    assert set(found) == {canonical_key(path_graph(3))}


def test_enumerate_biconn_2_2():
    found = enumerate_classes("biconn", 2, 2, 0)
    assert set(found) == {canonical_key(multi_edge_graph(3))}


def test_enumerate_two_edge_3_2():
    found = enumerate_classes("two_edge", 3, 2, 0)
    assert len(found) == 2


def test_enumerate_aux_families():
    found = enumerate_classes("aux", 3, 2, 0, j=2)
    assert set(found) == {canonical_key(Multigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3))))}
    assert not enumerate_classes("aux", 3, 2, 0, j=3)


def test_enumerate_with_legs_counts_label_placements():
    found = enumerate_classes("conn", 2, 0, 1)
    assert len(found) == 1  # both placements of x1 on an edge are isomorphic
    found2 = enumerate_classes("conn", 2, 0, 2)
    assert len(found2) == 2  # labels together vs apart


def test_enumerate_cycles_family_with_limits():
    plain = enumerate_classes("two_edge_cycles", 4, 2, 0)
    limited = enumerate_classes("two_edge_cycles", 4, 2, 0, options=BlockLimits(3, 1))
    assert set(limited) <= set(plain)


def test_enumerate_bound_checks():
    with pytest.raises(GraphError):
        enumerate_classes("conn", 6, 2, 0)
    with pytest.raises(GraphError):
        enumerate_classes("conn", 3, 0, 4)
    with pytest.raises(GraphError):
        enumerate_classes("mystery", 3, 0, 0)


@pytest.mark.parametrize("max_order", [True, 7.5, "7"])
def test_enumeration_bound_must_be_an_integer(max_order):
    # True acted as the bound 1, 7.5 was taken and "7" raised a bare TypeError
    with pytest.raises(GraphError, match="max_order must be an integer"):
        enumerate_classes("conn", 1, 0, max_order=max_order)
    with pytest.raises(GraphError, match="max_order must be an integer"):
        verify_beta("conn", 1, 0, max_order=max_order)


def test_enumeration_is_monotone_across_families():
    for n, k in ((3, 1), (4, 1), (3, 2), (4, 2)):
        biconn = set(enumerate_classes("biconn", n, k, 0))
        two_edge = set(enumerate_classes("two_edge", n, k, 0))
        conn = set(enumerate_classes("conn", n, k, 0))
        assert biconn <= two_edge <= conn


def ref_spans(n, pairs):
    root = list(range(n + 1))
    for u, v in pairs:
        if root[u] != root[v]:
            old, new = root[v], root[u]
            root = [new if r == old else r for r in root]
    return len(set(root[1:])) == 1


def ref_enumerate_classes(family, n, k, s=0, *, j=0, options=None, max_order=7):
    """The earlier enumerator, frozen: one walk per family, filtered as it goes.
    Its type checks were since made those of ``graph._check_integer``, which
    refuses a bool for n, k or s."""
    for name, value in (("n", n), ("k", k), ("s", s)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise GraphError(f"{name} must be an integer, got {value!r}")
    if n < 1 or k < 0 or s < 0:
        raise GraphError("need n >= 1, k >= 0, s >= 0")
    if n + k > max_order:
        raise GraphError(f"n+k = {n + k} exceeds the enumeration bound {max_order}")
    if s > MAX_LEGS:
        raise GraphError(f"leg count {s} exceeds the enumeration bound {MAX_LEGS}")
    predicate = family_predicate(family, j=j, options=options)
    edge_count = k + n - 1
    if edge_count < 0:
        return {}
    pairs = list(combinations(range(1, n + 1), 2))
    if edge_count > 0 and not pairs:
        return {}
    labels = [f"x{index}" for index in range(1, s + 1)]
    found = {}
    for chosen in combinations_with_replacement(pairs, edge_count):
        if not ref_spans(n, chosen):
            continue
        core = Multigraph(n, chosen)
        for assignment in product(range(1, n + 1), repeat=s):
            g = Multigraph(n, chosen, tuple(zip(labels, assignment))) if s else core
            if predicate(g):
                found.setdefault(canonical_key(g), g)
    return found


def test_enumeration_matches_reference_enumerator():
    """Filtering the connected classes keeps the keys, representatives and
    order that a walk per family keeps (the predicates are isomorphism-invariant)."""
    families = [
        ("conn", {}),
        ("biconn", {}),
        ("two_edge", {}),
        ("two_edge_cycles", {}),
        ("two_edge_cycles", {"options": BlockLimits(3, 1)}),
        ("aux", {"j": 2}),
        ("aux", {"j": 3}),
    ]
    cells = [(n, k, s) for n in range(1, 6) for k in range(0, 6 - n) for s in (0, 1)]
    cells += [(n, k, 2) for n in range(1, 5) for k in range(0, 5 - n)]
    nonempty = 0
    for family, extra in families:
        for n, k, s in cells:
            found = enumerate_classes(family, n, k, s, **extra)
            expected = ref_enumerate_classes(family, n, k, s, **extra)
            assert list(found) == list(expected), (family, extra, n, k, s)
            assert list(found.values()) == list(expected.values())
            nonempty += bool(found)
    assert nonempty > 50


def _least_relabeling(n, edges):
    """The least sorted edge tuple over all n! relabellings."""
    return min(
        tuple(sorted(tuple(sorted((image[u - 1], image[v - 1]))) for u, v in edges))
        for image in permutations(range(1, n + 1))
    )


def test_walk_keeps_least_relabelings_and_one_per_class():
    """Independent of the pruning: each representative of a leg-free cell is
    its own least relabelling, and there is one class per distinct least
    relabelling of the connected multisets."""
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for k in range(0, 7 - n):
            classes = _connected_classes(n, k, 0)
            for g in classes.values():
                assert g.edges == _least_relabeling(n, g.edges), (n, k, g)
            minima = {
                _least_relabeling(n, chosen)
                for chosen in combinations_with_replacement(pairs, k + n - 1)
                if ref_spans(n, chosen)
            }
            assert len(classes) == len(minima), (n, k)
            checked += len(classes)
    assert checked == 48  # the 54 classes of n+k <= 6 but the six trees on six vertices


def test_walk_canonizes_only_unpruned_multisets(monkeypatch):
    """The leg-free cells with n+k <= 6 hold 54 classes among 2,430
    connected edge multisets; the walk canonizes the 70 that no swap of
    two vertices lowers."""
    calls = []
    monkeypatch.setattr(verify, "canonical_key", lambda g: calls.append(g) or canonical_key(g))
    cells = [(n, k) for n in range(1, 7) for k in range(0, 7 - n)]
    _connected_classes.cache_clear()
    try:
        classes = sum(len(_connected_classes(n, k, 0)) for n, k in cells)
    finally:
        _connected_classes.cache_clear()
    assert classes == 54
    assert len(calls) == 70


def test_spans_agrees_with_connectivity():
    checked = 0
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for m in range(0, 6):
            for chosen in combinations_with_replacement(pairs, m):
                assert _spans(n, chosen) == is_connected(Multigraph(n, chosen)), (n, chosen)
                checked += 1
    assert checked == 3528


def test_enumeration_errors_match_reference_enumerator():
    enumerate_classes("conn", 1, 0)  # the n = 1 cell is memoized before n = True is asked
    bad_calls = [
        (("conn", 1.5, 0), {}),
        (("conn", 0, 0), {}),
        (("conn", True, 0), {}),
        (("conn", 3, True), {}),
        (("conn", 3, 0, True), {}),
        (("mystery", 6, 2), {}),
        (("mystery", 3, 0, 4), {}),
        (("mystery", 3, 0), {}),
        (("aux", 3, 2), {"j": 1}),
        (("aux", 4, 2), {"j": 2.5}),
        (("conn", 4, 1), {"options": BlockLimits(3, 1)}),
        (("biconn", 4, 1), {"j": 3}),
        (("two_edge", 4, 2), {"options": BlockLimits(1, 1)}),
        (("two_edge", 4, 2), {"options": (3, 1)}),
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(GraphError) as expected:
            ref_enumerate_classes(*args, **kwargs)
        with pytest.raises(GraphError) as found:
            enumerate_classes(*args, **kwargs)
        assert str(found.value) == str(expected.value), args


def test_enumeration_hands_out_fresh_dicts():
    first = enumerate_classes("conn", 4, 1, 0)
    count = len(first)
    first.clear()
    first[canonical_key(path_graph(2))] = path_graph(2)
    again = enumerate_classes("conn", 4, 1, 0)
    assert len(again) == count and again is not first
    assert again == ref_enumerate_classes("conn", 4, 1, 0)
    assert enumerate_classes("biconn", 4, 1, 0) == ref_enumerate_classes("biconn", 4, 1, 0)


def test_enumeration_keys_through_the_bounded_key_cache(monkeypatch):
    """The walk canonizes through canonical_key, so its cache counts every
    canonization of the walk, and keeps no more than its bound of them."""
    calls = []
    monkeypatch.setattr(verify, "canonical_key", lambda g: calls.append(g) or canonical_key(g))
    _connected_classes.cache_clear()
    canonical_key.cache_clear()
    try:
        classes = enumerate_classes("biconn", 4, 1, 2)
        info = canonical_key.cache_info()
    finally:
        _connected_classes.cache_clear()
    # the 5 unpruned multisets of conn 4 1, one per class, and the 4^2
    # placements of two legs on each of its 5 classes
    assert len(calls) == 5 + 16 * 5
    assert info.hits + info.misses == len(calls)
    assert info.currsize <= _KEY_CACHE_SIZE
    assert classes == ref_enumerate_classes("biconn", 4, 1, 2)


def test_family_predicates_ignore_legs():
    """Guard: every family is leg-blind.

    The engine computes leg-free values and places the legs on the result
    afterwards.  That is exact only while membership in a family does not
    depend on where the legs sit; a predicate that looked at legs would make
    the engine silently wrong for s > 0.
    """
    hub = Multigraph(4, ((1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 4)))
    corpus = [Multigraph(4, hub.edges, (("x1", v),)) for v in range(1, 5)]
    for n in range(1, 6):
        for k in range(0, 6 - n):
            corpus.extend(enumerate_classes("conn", n, k, 1).values())
    predicates = {
        "conn": family_predicate("conn"),
        "biconn": family_predicate("biconn"),
        "two_edge": family_predicate("two_edge"),
        "two_edge_cycles": family_predicate("two_edge_cycles"),
        "aux2": family_predicate("aux", j=2),
        "aux3": family_predicate("aux", j=3),
        "two_edge limits (3, 1)": family_predicate("two_edge", options=BlockLimits(3, 1)),
    }
    for name, predicate in predicates.items():
        accepted = 0
        for g in corpus:
            assert g.num_legs == 1
            member = predicate(g)
            assert member == predicate(erase_external(g)), (name, g)
            accepted += member
        assert accepted, f"{name} accepts no graph of the corpus"


# ----------------------------------------------------------------------
# verify_beta

def test_verify_beta_cycles():
    for n in range(3, 6):
        report = verify_beta("biconn", n, 1, 0)
        assert report.passed
        assert [check.coefficient for check in report.checks] == [Fraction(1, 2 * n)]


def test_verify_beta_conn_4_0():
    report = verify_beta("conn", 4, 0, 0)
    assert report.passed
    assert sorted(check.coefficient for check in report.checks) == [
        Fraction(1, 6),
        Fraction(1, 2),
    ]


def test_verify_beta_two_edge_3_2():
    report = verify_beta("two_edge", 3, 2, 0)
    assert report.passed
    assert sorted(check.coefficient for check in report.checks) == [
        Fraction(1, 8),
        Fraction(1, 4),
    ]


def test_verify_beta_aux():
    report = verify_beta("aux", 3, 2, 0, j=2)
    assert report.passed
    assert report.class_count == 1


def test_engine_and_enumeration_agree_on_every_small_cell():
    # every (family, n, k, s) that both take with n + k <= 5 and s <= 1,
    # the one-vertex cells included: the same classes, each at 1/|Aut|
    engine = BetaEngine()
    families = [(family, 0, None) for family in ("biconn", "conn", "two_edge", "two_edge_cycles")]
    families += [("aux", 2, None), ("aux", 3, None), ("two_edge", 0, BlockLimits(3, 1))]
    classes = 0
    for family, j, options in families:
        for n in range(1, 6):
            for k in range(0, 6 - n):
                for s in (0, 1):
                    report = verify_beta(family, n, k, s, j=j, options=options, engine=engine)
                    assert report.passed, (family, j, options, n, k, s)
                    classes += report.class_count
    assert classes == 115
    single = [(check.key, check.coefficient) for check in verify_beta("conn", 1, 0, 2).checks]
    assert single == [(b"1||1:x1;1:x2", 1)]


def test_verify_beta_lists_an_extra_class_by_its_canonical_form():
    class OneClassTooMany(BetaEngine):
        def with_legs(self, key, s=0):
            return super().with_legs(key, s) + LinearCombination([(path_graph(3), 1)])

    report = verify_beta("biconn", 3, 1, 0, engine=OneClassTooMany())
    key = canonical_key(path_graph(3))
    assert not report.passed and not report.missing
    assert report.extra == [(key, 1, Multigraph(3, ((1, 3), (2, 3))))]
    assert "extra class" in report.to_text()


def test_verify_beta_report_serialization():
    report = verify_beta("biconn", 3, 1, 0)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert data["classes"][0]["coefficient"] == "1/6"
    assert data["classes"][0]["match"] is True
    assert "pass" in report.to_text()


def test_verification_report_flags_problems():
    triangle = cycle_graph(3)
    key = canonical_key(triangle)
    bad = BetaVerification(
        family="biconn",
        n=3,
        k=1,
        s=0,
        j=0,
        checks=[
            ClassCheck(key=key, graph=triangle, coefficient=Fraction(1, 5), expected=Fraction(1, 6))
        ],
        missing=[(key, triangle)],
        extra=[],
    )
    assert not bad.passed
    text = bad.to_text()
    assert "FAIL" in text and "mismatch" in text and "missing" in text


# ----------------------------------------------------------------------
# lemma suite

def test_verify_lemmas_small_bound():
    report = verify_lemmas(bound=4)
    assert report.passed
    assert [(check.name, check.cases) for check in report.checks] == [
        ("joining a split biconnected graph stays biconnected", 18),
        ("bundled split at a unique cut vertex yields biconnected graphs", 4),
        ("unbundled minus bundled split avoids biconnected classes", 28),
        ("inserting a cyclomatic block preserves 2-edge-connectivity", 7),
        ("post-hoc leg distribution reproduces the threaded legs", 9),
        ("vertex-summed operators are relabeling-invariant", 24),
        ("split term count is (2^d - 2) * 2^legs", 39),
        ("insert term count is n'^(blocks at i) * n'^(legs at i)", 117),
    ]


def test_verify_lemmas_write_the_text_of_each_failing_case(monkeypatch):
    # a split that returns nothing fails every case with two or more ends at i
    monkeypatch.setattr(verify.ops, "split_vertex", lambda g, i: LinearCombination())
    report = verify_lemmas(bound=4)
    assert not report.passed
    failed = [check for check in report.checks if not check.passed]
    assert [check.name for check in failed] == ["split term count is (2^d - 2) * 2^legs"]
    failures = failed[0].failures
    assert len(failures) == 25 and failed[0].cases == 39
    assert failures[0] == "split {'n': 2, 'edges': [[1, 2], [1, 2]], 'external': []} at 1"
    # each text is its own case's, written before the lemma moved on
    assert len(set(failures)) == len(failures)
    assert all(re.fullmatch(r"split \{'n': \d+, .*\} at \d+", text) for text in failures), failures


def test_verify_lemmas_bound_validation():
    with pytest.raises(GraphError):
        verify_lemmas(bound=2)
    with pytest.raises(GraphError):
        verify_lemmas(bound=12)
    for bound in (4.5, True):
        with pytest.raises(GraphError, match="bound must be an integer"):
            verify_lemmas(bound=bound)


def test_verify_lemmas_json():
    report = verify_lemmas(bound=4)
    data = report.to_json_dict()
    assert data["passed"] is True
    assert len(data["checks"]) == 8
