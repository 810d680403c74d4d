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
from pathlib import Path

import pytest

from autgraph import recursion
from autgraph.cli import main
from test_recursion import assert_no_child_left, patch_cpus


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
    ("2edge", "5", "3", "0", "table"): "e4581996eb9adeae380616f21b1a4f7c4718e1b6f9d8ccf9e62e031e10e4bc10",
    ("conn", "4", "2", "1", "json"): "fbdaf57568e7634ef0609cdbf843dd673952d1b01a793c8518f2b9f5248ddceb",
    ("biconn", "5", "3", "0", "dot"): "17653575eded0da7df374d6916fc8cc05766cc083f844f1b69116a6d40b3d495",
}


@pytest.mark.parametrize("family, n, k, s, fmt", sorted(GOLDEN_STDOUT))
def test_generate_stdout_matches_golden_hash(family, n, k, s, fmt):
    """Pins generate's stdout byte for byte (sha256).

    The class order, the key hex and the representatives all show in
    these hashes.  A new canonizer or key encoding is expected to change
    them: update the hashes with it and record the change in CHANGES.md.
    """
    code, out, _ = run_cli("generate", "--family", family, "--n", n, "--k", k, "--s", s,
                           "--format", fmt, "--jobs", "1")
    assert code == 0
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == GOLDEN_STDOUT[family, n, k, s, fmt]


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
    code, _, err = run_cli("generate", "--family", "conn", "--n", "1", "--k", "0",
                           "--format", "table")
    assert code == 1
    assert "error:" in err


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

    The hash covers every class checked (key hex, representative,
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
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["generate", "--family", "conn", "--n", "2", "--k", "0",
                     "--format", "table"]) == 0
loaded = set(sys.modules) - before
assert "autgraph.verify" not in loaded and "dataclasses" not in loaded, sorted(loaded)
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
