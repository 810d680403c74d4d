"""The command-line interface."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from autgraph import LinearCombination, Multigraph, canonical_key, recursion
from autgraph.cli import main, render_dot, render_json, render_table
from autgraph.recursion import BetaEngine, BetaKey
from test_recursion import assert_no_child_left, count_forks, patch_cpus


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# generate

def test_generate_biconn_table():
    code, out, _ = run_cli("generate", "--family", "biconn", "--n", "4", "--k", "1",
                           "--format", "table")
    assert code == 0
    rows = [line for line in out.splitlines()[2:] if line]
    assert len(rows) == 1
    assert rows[0].startswith("1/8")


def test_generate_conn_json():
    code, out, _ = run_cli("generate", "--family", "conn", "--n", "2", "--k", "0",
                           "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["coefficient"] == "1/2"
    assert records[0]["graph"] == {"n": 2, "edges": [[1, 2]], "external": []}


def test_generate_conn_4_0_table():
    code, out, _ = run_cli("generate", "--family", "conn", "--n", "4", "--k", "0",
                           "--format", "table")
    assert code == 0
    rows = [line for line in out.splitlines()[2:] if line]
    assert sorted(row.split()[0] for row in rows) == ["1/2", "1/6"]


def test_generate_dot_output():
    code, out, _ = run_cli("generate", "--family", "conn", "--n", "2", "--k", "0",
                           "--s", "1", "--format", "dot")
    assert code == 0
    assert "// class 0: coefficient" in out
    assert "graph class_0 {" in out
    assert 'shape=point, xlabel="x1"' in out


def test_generate_is_deterministic():
    args = ("generate", "--family", "2edge", "--n", "4", "--k", "2", "--format", "json")
    _, first, _ = run_cli(*args)
    _, second, _ = run_cli(*args)
    assert first == second


def test_generate_jobs_do_not_change_output():
    base = ("generate", "--family", "conn", "--n", "4", "--k", "1", "--format", "json")
    _, serial, _ = run_cli(*base, "--jobs", "1")
    _, parallel, _ = run_cli(*base, "--jobs", "2")
    assert serial == parallel


GOLDEN_STDOUT = {
    ("2edge", "5", "3", "0", "table"): "0824bb5dda797dbd9c6111894589a9b6c16d8a427227b34b0357bf66c6b8bf65",
    ("conn", "4", "2", "1", "json"): "69cb1a319eb4355be03c64ffe548ea7b43b57aec56479e284b3957605646e461",
    ("biconn", "5", "3", "0", "dot"): "bcc842f0a40282dff71d5dd7fba2bb225dec0b129a2cd7c5fe2f722680f5aa3e",
}


@pytest.mark.parametrize("family, n, k, s, fmt", sorted(GOLDEN_STDOUT))
def test_generate_stdout_matches_golden_hash(family, n, k, s, fmt):
    """Pins generate's stdout byte for byte (sha256).

    The class order, the key hex and the graphs, each the canonical form
    its key spells, all show in these hashes.  A new canonizer or key
    encoding is expected to change them: update the hashes with it and
    record the change in CHANGES.md.
    """
    code, out, _ = run_cli("generate", "--family", family, "--n", n, "--k", k, "--s", s,
                           "--format", fmt, "--jobs", "1")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_STDOUT[family, n, k, s, fmt]


# ----------------------------------------------------------------------
# the renderers against references built here

def reference_json(combo):
    records = [
        {
            "graph": {
                "n": rep.n,
                "edges": [[u, v] for u, v in rep.edges],
                "external": [{"label": label, "vertex": v} for label, v in rep.legs],
            },
            "coefficient": f"{coeff.numerator}/{coeff.denominator}",
            "key": key.hex(),
        }
        for key, coeff, rep in combo.terms()
    ]
    return json.dumps(records, indent=2) + "\n"


def reference_table(combo):
    # the table as it was built whole before the renderers streamed
    rows = [
        (
            f"{coeff.numerator}/{coeff.denominator}",
            str(rep.n),
            " ".join(f"{u}-{v}" for u, v in rep.edges) if rep.edges else "-",
            " ".join(f"{label}@{v}" for label, v in rep.legs) if rep.legs else "-",
        )
        for _, coeff, rep in combo.terms()
    ]
    header = ("coefficient", "n", "edges", "legs")
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows)) if rows else len(header[col])
        for col in range(4)
    ]
    lines = [
        "  ".join(header[col].ljust(widths[col]) for col in range(4)).rstrip(),
        "  ".join("-" * widths[col] for col in range(4)).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(row[col].ljust(widths[col]) for col in range(4)).rstrip())
    return "\n".join(lines) + "\n"


def reference_dot(combo):
    # the DOT text as it was built whole before the renderers streamed
    lines = []
    for index, (key, coeff, rep) in enumerate(combo.terms()):
        coefficient = f"{coeff.numerator}/{coeff.denominator}"
        lines.append(f"// class {index}: coefficient {coefficient}, key {key.hex()}")
        lines.append(f"graph class_{index} {{")
        lines.append(f'  label="{coefficient}";')
        lines.append("  node [shape=circle];")
        for v in range(1, rep.n + 1):
            lines.append(f"  v{index}_{v};")
        for u, v in rep.edges:
            lines.append(f"  v{index}_{u} -- v{index}_{v};")
        for label, v in rep.legs:
            lines.append(f'  leg{index}_{label} [shape=point, xlabel="{label}"];')
            lines.append(f"  v{index}_{v} -- leg{index}_{label};")
        lines.append("}")
        lines.append("")
    return "\n".join(lines)


RENDERER_VALUES = {
    "empty": lambda engine: LinearCombination(),
    "no edges": lambda engine: LinearCombination([(Multigraph(1, (), (("x1", 1), ("x2", 1))), 1)]),
    "legged": lambda engine: engine.with_legs(BetaKey("conn", 3, 1), 2),
    "several classes": lambda engine: engine.with_legs(BetaKey("conn", 5, 2), 0),
    # 1,024 classes: x10 and x11 come after x9, and several legs share a vertex
    "eleven legs": lambda engine: engine.with_legs(BetaKey("conn", 2, 0), 11),
}


@pytest.mark.parametrize("value", sorted(RENDERER_VALUES))
@pytest.mark.parametrize(
    "renderer, reference",
    [(render_json, reference_json), (render_table, reference_table), (render_dot, reference_dot)],
    ids=["json", "table", "dot"],
)
def test_renderers_write_the_reference_bytes(renderer, reference, value):
    combo = RENDERER_VALUES[value](BetaEngine())
    out = io.StringIO()
    assert renderer(combo, out) is None
    assert out.getvalue() == reference(combo)


class CountingSink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize("renderer", [render_json, render_dot], ids=["json", "dot"])
def test_renderers_stream_their_output(renderer):
    # conn 6 2 2 with two legs: 2,844 classes and 1.9 MB of JSON.  A renderer
    # that built its whole output before writing it would peak above it.
    combo = BetaEngine().with_legs(BetaKey("conn", 6, 2), 2)
    assert len(combo) == 2844  # keys every class before the measurement
    sink = CountingSink()
    tracemalloc.start()
    try:
        renderer(combo, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 10**6
    assert peak < sink.size / 4, (peak, sink.size)


def test_generate_min_block_flags():
    code, out, _ = run_cli("generate", "--family", "2edge", "--n", "4", "--k", "2",
                           "--min-block-n", "3", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert records  # the single-block classes on >= 3 vertices survive
    for record in records:
        graph = record["graph"]
        assert graph["n"] == 4


def test_generate_min_block_rejected_for_other_families():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--family", "conn", "--n", "4", "--k", "1",
              "--min-block-n", "3", "--format", "table"])
    assert excinfo.value.code == 2


def test_generate_unknown_family_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["generate", "--family", "planar", "--n", "4", "--k", "1", "--format", "table"])
    assert excinfo.value.code == 2


def test_generate_domain_error_exits_1():
    code, _, err = run_cli("generate", "--family", "conn", "--n", "0", "--k", "0",
                           "--format", "table")
    assert code == 1
    assert err == "error: the recursion needs at least one vertex\n"


@pytest.mark.parametrize("s", [0, 2])
def test_generate_the_one_vertex_class(s):
    code, out, _ = run_cli("generate", "--family", "conn", "--n", "1", "--k", "0",
                           "--s", str(s), "--format", "json")
    assert code == 0
    legs = [{"label": f"x{i}", "vertex": 1} for i in range(1, s + 1)]
    assert [record["graph"] for record in json.loads(out)] == [{"n": 1, "edges": [], "external": legs}]
    assert json.loads(out)[0]["coefficient"] == "1/1"
    for family in ("biconn", "2edge"):
        code, out, _ = run_cli("generate", "--family", family, "--n", "1", "--k", "0",
                               "--s", str(s), "--format", "json")
        assert (code, out) == (0, "[]\n")


def _table_graphs(text):
    """(n, edges, legs) of each row of a table, as printed."""
    graphs = []
    for row in text.splitlines()[2:]:
        _, n, edges, legs = re.split(r"  +", row.strip())
        edges = [] if edges == "-" else [[int(v) for v in edge.split("-")] for edge in edges.split()]
        legs = [] if legs == "-" else [leg.split("@") for leg in legs.split()]
        graphs.append((int(n), edges, [(label, int(v)) for label, v in legs]))
    return graphs


def _dot_graphs(text):
    """(n, edges, legs) of each DOT graph, as printed."""
    graphs = []
    for block in text.split("\n\n"):
        n = len(re.findall(r"^  v\d+_\d+;$", block, re.M))
        edges = [[int(u), int(v)] for u, v in re.findall(r"^  v\d+_(\d+) -- v\d+_(\d+);$", block, re.M)]
        legs = [(label, int(v)) for v, label in re.findall(r"^  v\d+_(\d+) -- leg\d+_(x\d+);$", block, re.M)]
        graphs.append((n, edges, legs))
    return graphs


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "cell", [("2edge", "6", "3", "0"), ("conn", "4", "1", "2")], ids=["leg-free", "legged"]
)
def test_each_printed_graph_has_its_own_key(monkeypatch, cell, jobs):
    """The graph printed for a class is the canonical form its key spells:
    it has that very key, and the table and DOT graphs are the JSON's."""
    # every evaluation of two or more applications forks, as on two CPUs
    monkeypatch.setattr(recursion, "_FORK_MIN_APPLICATIONS", 2)
    patch_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    family, n, k, s = cell
    out = {}
    for fmt in ("json", "table", "dot"):
        code, out[fmt], _ = run_cli("generate", "--family", family, "--n", n, "--k", k, "--s", s,
                                    "--format", fmt, "--jobs", jobs)
        assert code == 0
    assert bool(forks) == (jobs == "2")
    records = json.loads(out["json"])
    assert len(records) > 10 and any(record["graph"]["external"] for record in records) == (s != "0")
    for record in records:
        assert canonical_key(Multigraph.from_json_dict(record["graph"])).hex() == record["key"]
    graphs = [
        (r["graph"]["n"], r["graph"]["edges"], [(leg["label"], leg["vertex"]) for leg in r["graph"]["external"]])
        for r in records
    ]
    assert _table_graphs(out["table"]) == graphs
    assert _dot_graphs(out["dot"]) == graphs


def test_generate_cache_flag(tmp_path, monkeypatch):
    monkeypatch.delenv("AUTGRAPH_CACHE", raising=False)
    cache = tmp_path / "flagcache"
    code, _, _ = run_cli("generate", "--family", "biconn", "--n", "3", "--k", "1",
                         "--format", "table", "--cache", str(cache))
    assert code == 0
    assert any(cache.glob("biconn-*.json"))


def test_generate_unusable_cache_path_exits_1(tmp_path, monkeypatch):
    monkeypatch.delenv("AUTGRAPH_CACHE", raising=False)
    cache = tmp_path / "not-a-directory"
    cache.write_text("")
    code, out, err = run_cli("generate", "--family", "biconn", "--n", "3", "--k", "1",
                             "--format", "table", "--cache", str(cache))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(cache) in err
    assert cache.read_text() == ""


def test_a_cached_key_that_is_not_canonical_stops_legged_output(tmp_path, monkeypatch):
    # a well-formed key of the path P3 that is not its canonical key passes the
    # load's checks; the legs would be keyed from it, so generate refuses it
    monkeypatch.delenv("AUTGRAPH_CACHE", raising=False)
    argv = ["generate", "--family", "conn", "--n", "3", "--k", "0", "--format", "table",
            "--cache", str(tmp_path)]
    assert run_cli(*argv)[0] == 0
    path = tmp_path / "conn-n3-k0.json"
    text = path.read_text()
    assert '"3|1,3;2,3|"' in text
    path.write_text(text.replace("3|1,3;2,3|", "3|1,2;1,3|"))
    code, out, err = run_cli(*argv, "--s", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "3|1,2;1,3|" in err and err.count("\n") == 1


def test_cache_env_var_overrides_flag(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    flag_cache = tmp_path / "flagcache"
    monkeypatch.setenv("AUTGRAPH_CACHE", str(env_cache))
    code, _, _ = run_cli("generate", "--family", "biconn", "--n", "3", "--k", "1",
                         "--format", "table", "--cache", str(flag_cache))
    assert code == 0
    assert any(env_cache.glob("biconn-*.json"))
    assert not flag_cache.exists()


# ----------------------------------------------------------------------
# verify

def test_verify_small_order_passes():
    code, out, _ = run_cli("verify", "--max-order", "4")
    assert code == 0
    assert out.strip().endswith("overall: pass")


def test_verify_single_family_json():
    code, out, _ = run_cli("verify", "--max-order", "4", "--family", "biconn",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(report["family"] == "biconn" for report in payload["beta"])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_stdout_matches_golden_hash(jobs):
    """Pins verify's stdout byte for byte (sha256), for one and two workers.

    The hash covers every class checked (key hex, the brute-force graph,
    coefficient) and the lemma case counts.  A new canonizer or key
    encoding is expected to change it: update it with the change and
    record that in CHANGES.md.
    """
    code, out, _ = run_cli("verify", "--max-order", "5", "--s", "1", "--format", "json",
                           "--jobs", jobs)
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == "f3d1ca0e9efdc06949939306c0f27ec25f6a38016e583fcb672e7dce8c9adab7"


def test_verify_bound_guard():
    code, _, err = run_cli("verify", "--max-order", "99")
    assert code == 1
    assert "exceeds" in err


def test_verify_rejects_tiny_order():
    code, _, err = run_cli("verify", "--max-order", "1")
    assert code == 1
    assert "at least 2" in err


def test_verify_rejects_negative_leg_count():
    code, out, err = run_cli("verify", "--max-order", "4", "--s", "-1")
    assert code == 1
    assert out == ""
    assert "leg count must be nonnegative" in err


# ----------------------------------------------------------------------
# console entry point

def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "autgraph.cli", "generate", "--family", "conn",
         "--n", "3", "--k", "0", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    records = json.loads(result.stdout)
    assert records[0]["coefficient"] == "1/2"


@pytest.mark.parametrize(
    "cell, read_first_line",
    [(("3", "0", "0"), False), (("6", "2", "2"), True)],  # conn 6 2 2 prints megabytes
)
def test_a_closed_stdout_is_no_error(cell, read_first_line):
    """A reader that closes stdout early, as ``| head -1`` does, or before the
    first write ends the run with exit code 1, no error line and nothing
    printed at shutdown."""
    n, k, s = cell
    argv = ["generate", "--family", "conn", "--n", n, "--k", k, "--s", s, "--format", "json"]
    read_end, write_end = os.pipe()
    if not read_first_line:
        os.close(read_end)
    with subprocess.Popen([sys.executable, "-m", "autgraph.cli", *argv],
                          stdout=write_end, stderr=subprocess.PIPE) as proc:
        os.close(write_end)
        if read_first_line:
            with open(read_end, "rb") as reader:
                assert reader.readline() == b"[\n"
        err = proc.stderr.read()
    assert (proc.returncode, err) == (1, b"")


def test_no_call_loads_the_pool_modules():
    # a fresh interpreter: this one may already hold the modules from other tests
    script = """
import contextlib, io, sys
from autgraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["generate", "--family", "conn", "--n", "4", "--k", "1", "--format", "json"]) == 0
    assert main(["verify", "--max-order", "4", "--jobs", "2"]) == 0
    # evaluations of this cell reach the threshold, so it forks helpers
    assert main(["generate", "--family", "2edge", "--n", "6", "--k", "4", "--format", "table",
                 "--jobs", "2"]) == 0
loaded = [name for name in sys.modules if name.startswith(("multiprocessing", "concurrent.futures"))]
assert not loaded, loaded
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_a_dead_helper_is_reported(monkeypatch, command):
    """A helper killed by a signal ends generate and verify with exit code 1
    and an error line naming it."""
    parent = os.getpid()
    apply_slice = recursion._apply_slice

    def killed_in_helper(applications):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return apply_slice(applications)

    monkeypatch.setattr(recursion, "_apply_slice", killed_in_helper)
    # verify's evaluations are all below the in-process threshold
    monkeypatch.setattr(recursion, "_FORK_MIN_APPLICATIONS", 2)
    patch_cpus(monkeypatch, 2)
    argv = (["generate", "--family", "2edge", "--n", "5", "--k", "3", "--format", "table"]
            if command == "generate" else ["verify", "--max-order", "5"])
    code, out, err = run_cli(*argv, "--jobs", "2")
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"error: helper process \d+ ended without a result \(signal 9\)\n", err)
    assert_no_child_left()


def test_generate_loads_neither_the_verifier_nor_dataclasses():
    # a fresh interpreter with the package's source tree on the path
    script = """
import contextlib, io, sys
before = set(sys.modules)
from autgraph import cli
for fmt in ("table", "json"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--family", "conn", "--n", "2", "--k", "0",
                         "--format", fmt]) == 0
loaded = set(sys.modules) - before
assert not loaded & {"autgraph.verify", "dataclasses", "json"}, sorted(loaded)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--max-order", "3", "--family", "conn"]) == 0
assert "dataclasses" not in sys.modules, sorted(sys.modules)
import autgraph
from autgraph import verify
for name in autgraph.__all__:
    assert getattr(autgraph, name) is not None, name
assert autgraph.verify_beta is verify.verify_beta
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_benchmark_tracer_finds_every_name_it_wraps():
    """``perfbench/tracer.py`` wraps each listed function by ``getattr`` on its
    module and each listed method through its class's ``__dict__``, with no
    default: a name that moves out of either would fail the traced benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines the tables; install() is not called
    for module, names in tracer.FUNCTIONS.items():
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (module.__name__, missing)
    for cls, names in tracer.METHODS.items():
        missing = [name for name in names if not callable(cls.__dict__.get(name))]
        assert not missing, (cls.__name__, missing)
