"""End-to-end and per-layer benchmark of the autgraph CLI.

    python3 perfbench/run.py --workload legs --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a source checkout; the package is taken from its
``src`` directory.  A single client drives the CLI in a closed loop: each
call is a fresh interpreter (the canonizer keeps module-level caches) and
waits for the one before it.  Every output is checked against
``oracle.py``, which shares no code with the package.

With ``--trace 0`` the end-to-end metrics are medians over whole rounds
of the workload's calls, made until ``--seconds`` have passed.  With
``--trace 1`` one round runs untraced with ``--jobs 1`` and with
``--jobs 2``, then once under ``tracer.py``, and the probe runs; this
gives the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

CALL_TIMEOUT_S = 150
SETUP_REPEATS = 12
# The reference call: a fresh interpreter that imports the standard-library
# modules the package uses and shares no code with it.  Its speed follows
# the shared machine's drifting speed, so the CPU and wall time of each
# round and each set-up call are divided by the mean CPU time of the
# reference calls just before and after it; a reference call's wall time
# strays from its CPU time in some runs, so it is not used.
# REFERENCE_S, the reference call's median CPU time on the reference
# machine (README), turns the quotient back into seconds.
REFERENCE = "import argparse, concurrent.futures, dataclasses, fractions, functools, itertools, json, pathlib, random, typing"
REFERENCE_S = 0.110
FAMILY_BY_FLAG = {"conn": "conn", "biconn": "biconn", "2edge": "two_edge", "2edge-cycles": "two_edge_cycles"}
# probe graphs with their automorphism group orders
PROBE_AUT = {"C8": 16, "Q3": 48, "K33": 72}

# Runs the CLI, then writes to the file named by its first argument the
# peak resident set (kB) of the largest process of the call: the CLI itself
# (VmHWM) or one of the pool workers it has reaped.  The ru_maxrss that
# wait4 gives will not do: exec keeps the peak of the memory it replaces,
# which for a process spawned by this benchmark is the benchmark's own peak.
CLI_WITH_PEAK = """
import resource, runpy, sys
peak_path = sys.argv.pop(1)
sys.argv[0] = "autgraph"
try:
    runpy.run_module("autgraph.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        own = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
    with open(peak_path, "w") as out:
        out.write(str(max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)))
"""


def generate(family: str, n: int, k: int, s: int = 0, fmt: str = "json", *extra: str) -> list[str]:
    return ["generate", "--family", family, "--n", str(n), "--k", str(k), "--s", str(s), "--format", fmt, *extra]


@dataclass
class Workload:
    """``round`` is the list of timed calls; "{cache}" stands for the cache dir.

    ``setup`` is a trivial call with the workload's flags.  ``fresh_cache``
    gives every round an empty cache directory; otherwise calls get none.
    """

    jobs: int
    round: list[list[str]]
    setup: list[str]
    fresh_cache: bool = False


BLOCKS = [
    generate("biconn", 6, 4, 0, "json", "--cache", "{cache}"),
    generate("2edge", 6, 4, 0, "json", "--cache", "{cache}"),
]

WORKLOADS = {
    # conn 6 1 2: legs threaded through every split and insertion, large JSON output
    "legs": Workload(
        jobs=1,
        round=[generate("conn", 6, 1, 2, "json")],
        setup=generate("conn", 2, 0),
    ),
    # biconn 6 4 into an empty disk cache, 2edge 6 4 reading the stored
    # blocks, then both cells again answered from the filled cache
    "blocks_cache": Workload(
        jobs=1,
        round=BLOCKS + BLOCKS,
        setup=generate("conn", 2, 0, 0, "json", "--cache", "{cache}"),
        fresh_cache=True,
    ),
    # 2edge 7 4 with two workers: the only process-pool workload, two_edge at scale
    "bridgeless_pool": Workload(
        jobs=2,
        round=[generate("2edge", 7, 4, 0, "table")],
        setup=generate("conn", 2, 0, 0, "table"),
    ),
    # verify up to n+k 6: brute-force enumeration, aut_order, lemma suite
    "verify": Workload(
        jobs=1,
        round=[["verify", "--max-order", "6", "--s", "0", "--format", "json"]],
        setup=generate("conn", 2, 0),
    ),
}

# ----------------------------------------------------------------------
# running CLI calls


@dataclass
class Call:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float  # user + system time of the process and the workers it reaped
    peak_rss_mb: float  # 0 for a traced call
    stdout: Path


class Runner:
    """Runs CLI calls one at a time and keeps their outputs under ``work``."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.env = {key: value for key, value in os.environ.items() if key != "AUTGRAPH_CACHE"}
        self.env["PYTHONPATH"] = str(SRC)

    def new_dir(self, prefix: str) -> Path:
        self.count += 1
        path = self.work / f"{prefix}{self.count}"
        path.mkdir(parents=True)
        return path

    def call(self, argv: list[str], jobs: int, cache: Path | None, stats: Path | None = None) -> Call:
        """One CLI call; under the tracer when ``stats`` names its output file."""
        argv = [str(cache) if arg == "{cache}" else arg for arg in argv] + ["--jobs", str(jobs)]
        if stats is not None:
            return self._run([sys.executable, str(HERE / "tracer.py"), str(stats), "--", *argv], argv)
        peak_path = self.work / f"peak{self.count}"
        call = self._run([sys.executable, "-c", CLI_WITH_PEAK, str(peak_path), *argv], argv)
        if peak_path.exists():
            call.peak_rss_mb = int(peak_path.read_text()) / 1024
        return call

    def reference(self) -> Call:
        call = self._run([sys.executable, "-c", REFERENCE], ["reference"])
        if call.code != 0:
            raise RuntimeError(f"the reference call exited {call.code}")
        return call

    def probe(self, seed: int, stats: Path) -> Call:
        return self._run([sys.executable, str(HERE / "tracer.py"), str(stats), "--probe", str(seed)], ["probe"])

    def _run(self, command: list[str], argv: list[str]) -> Call:
        self.count += 1
        out_path = self.work / f"out{self.count}"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                command, stdout=out, stderr=subprocess.DEVNULL, env=self.env, cwd=ROOT, start_new_session=True
            )
            # kill the call's whole process group (pool workers too) if it hangs
            timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return Call(argv, proc.returncode, wall, cpu, 0.0, out_path)


# ----------------------------------------------------------------------
# output checks against the oracle


def _graph(record: dict):
    legs = [(leg["label"], leg["vertex"]) for leg in record.get("external", [])]
    return record["n"], [tuple(edge) for edge in record["edges"]], legs


def _parse_generate(text: str, fmt: str):
    if fmt == "json":
        return [(Fraction(entry["coefficient"]), _graph(entry["graph"])) for entry in json.loads(text)]
    rows = []
    for line in text.splitlines()[2:]:
        coefficient, n, edges, legs = re.split(r" {2,}", line)
        edge_list = [] if edges == "-" else [tuple(map(int, e.split("-"))) for e in edges.split()]
        leg_list = [] if legs == "-" else [(leg.split("@")[0], int(leg.split("@")[1])) for leg in legs.split()]
        rows.append((Fraction(coefficient), (int(n), edge_list, leg_list)))
    return rows


def _check_class(family: str, n: int, k: int, s: int, coefficient: Fraction, graph) -> list[str]:
    problems = []
    g_n, edges, legs = graph
    if g_n != n or len(edges) != n + k - 1:
        problems.append(f"{graph}: expected n={n} and {n + k - 1} edges")
    if sorted(label for label, _ in legs) != sorted(f"x{i}" for i in range(1, s + 1)):
        problems.append(f"{graph}: expected legs x1..x{s}")
    if family in ("conn", "biconn", "two_edge") and not oracle.is_member(family, graph):
        problems.append(f"{graph}: not in {family}")
    if coefficient != Fraction(1, oracle.aut_order(graph)):
        problems.append(f"{graph}: coefficient {coefficient} is not 1/|Aut|")
    return problems


def check_generate(argv: list[str], text: str) -> list[str]:
    flags = dict(zip(argv[1::2], argv[2::2]))
    family = FAMILY_BY_FLAG[flags["--family"]]
    n, k, s = int(flags["--n"]), int(flags["--k"]), int(flags["--s"])
    records = _parse_generate(text, flags["--format"])
    problems = []
    buckets = defaultdict(list)
    for coefficient, graph in records:
        problems += _check_class(family, n, k, s, coefficient, graph)
        buckets[oracle.invariant(graph)].append(graph)
    for group in buckets.values():
        for index, first in enumerate(group):
            if any(oracle.isomorphic(first, other) for other in group[index + 1 :]):
                problems.append(f"{first}: listed twice")
    total = sum((coefficient for coefficient, _ in records), Fraction(0))
    if total != oracle.mass(family, n, k, s):
        problems.append(f"mass {total} != oracle {oracle.mass(family, n, k, s)}")
    return problems


def check_verify(argv: list[str], text: str) -> list[str]:
    flags = dict(zip(argv[1::2], argv[2::2]))
    max_order, max_legs = int(flags["--max-order"]), int(flags["--s"])
    payload = json.loads(text)
    problems = [] if payload["passed"] and payload["lemmas"]["passed"] else ["verify did not pass"]
    expected_cells = {
        (family, n, k, s)
        for family in oracle.FAMILIES
        for s in range(max_legs + 1)
        for n in range(2, max_order + 1)
        for k in range(1 if family.startswith("two_edge") else 0, max_order - n + 1)
    }
    cells = set()
    for report in payload["beta"]:
        family, n, k, s = report["family"], report["n"], report["k"], report["s"]
        cells.add((family, n, k, s))
        if report["missing"] or report["extra"]:
            problems.append(f"{family} {n} {k} {s}: missing or extra classes")
        total = Fraction(0)
        for entry in report["classes"]:
            coefficient = Fraction(entry["coefficient"])
            total += coefficient
            if Fraction(entry["inverse_aut_order"]) != coefficient:
                problems.append(f"{family} {n} {k} {s}: coefficient differs from 1/|Aut|")
            problems += _check_class(family, n, k, s, coefficient, _graph(entry["graph"]))
        if total != oracle.mass(family, n, k, s):
            problems.append(f"{family} {n} {k} {s}: mass {total} != oracle {oracle.mass(family, n, k, s)}")
    if cells != expected_cells:
        problems.append(f"cells differ from the grid: {sorted(cells ^ expected_cells)}")
    return problems


class Checker:
    """Checks each distinct output once; counts failed and incorrect calls."""

    def __init__(self):
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, call: Call) -> bytes:
        """Counts the call; checks its stdout if it printed any.

        A non-zero exit is a failed call.  Its output is still checked:
        ``verify`` exits 1 exactly when it finds a wrong cell, and prints
        the cells all the same.
        """
        self.attempted += 1
        data = call.stdout.read_bytes()
        if call.code != 0:
            self.failed += 1
            self.problems.append(f"exit {call.code}: {' '.join(call.argv)}")
            if not data:
                return data
        cell = tuple(arg for arg in call.argv if not arg.startswith("/"))  # drop the cache dir
        key = (cell, hashlib.sha256(data).hexdigest())
        if key not in self.verdicts:
            check = check_verify if call.argv[0] == "verify" else check_generate
            try:
                self.verdicts[key] = check(call.argv, data.decode("utf-8"))
            except (ValueError, KeyError, TypeError) as exc:
                self.verdicts[key] = [f"unreadable output: {exc!r}"]
            self.problems += [f"{' '.join(cell)}: {p}" for p in self.verdicts[key][:5]]
        return data

    @property
    def correct(self) -> bool:
        return not any(self.verdicts.values())


# ----------------------------------------------------------------------
# the two modes


def _round(runner: Runner, checker: Checker, workload: Workload, jobs: int, trace: bool = False):
    """One round of the workload's calls; returns (calls, stdout bytes, trace stats)."""
    cache = runner.new_dir("cache") if workload.fresh_cache else None
    calls, outputs, stats = [], [], []
    for index, argv in enumerate(workload.round):
        stats_path = runner.work / f"stats{index}.json" if trace else None
        call = runner.call(argv, jobs, cache, stats_path)
        calls.append(call)
        outputs.append(checker.check(call))
        if trace and call.code == 0:
            stats.append(json.loads(stats_path.read_text()))
    return calls, outputs, stats


def measure(runner: Runner, checker: Checker, workload: Workload, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed; the set-up calls are spread over them.

    The machine's speed drifts by 10-20% within seconds, so the set-up
    calls are made one at a time at even intervals rather than in one burst.
    A reference call follows every set-up call and every round, and each
    is timed against the reference calls on either side of it.
    """
    setup, cpus, walls, raw, peak = [], [], [], [], 0.0
    last = runner.reference()

    def scaled(cpu: float, wall: float) -> tuple[float, float, float]:
        nonlocal last
        after = runner.reference()
        reference_cpu = (last.cpu_s + after.cpu_s) / 2
        last = after
        return cpu / reference_cpu * REFERENCE_S, wall / reference_cpu * REFERENCE_S, reference_cpu

    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            call = runner.call(workload.setup, workload.jobs, runner.new_dir("cache"))
            checker.check(call)
            setup.append((call.cpu_s, scaled(call.cpu_s, call.wall_s)[0]))
        elif cpus and elapsed >= seconds:
            break
        else:
            calls, _, _ = _round(runner, checker, workload, workload.jobs)
            cpu, wall = sum(call.cpu_s for call in calls), sum(call.wall_s for call in calls)
            cpu_ref, wall_ref, reference_cpu = scaled(cpu, wall)
            cpus.append(cpu_ref)
            walls.append(wall_ref)
            raw.append((cpu, wall, reference_cpu))
            peak = max([peak] + [call.peak_rss_mb for call in calls])
    medians = [statistics.median(column) for column in zip(*raw)]
    print(f"{len(raw)} rounds; unscaled medians: set-up cpu {statistics.median(s for s, _ in setup):.4f} s, "
          f"round cpu {medians[0]:.4f} s, round wall {medians[1]:.4f} s, reference cpu {medians[2]:.4f} s",
          file=sys.stderr)
    return {
        "setup_s": statistics.median(scaled_setup for _, scaled_setup in setup),
        "cpu_ref_s": statistics.median(cpus),
        "wall_ref_s": statistics.median(walls),
        "peak_rss_mb": peak,
    }


def trace_layers(runner: Runner, checker: Checker, workload: Workload, seed: int) -> dict:
    walls, outputs = {}, {}
    for jobs in (1, 2):
        calls, outputs[jobs], _ = _round(runner, checker, workload, jobs)
        walls[jobs] = sum(call.wall_s for call in calls)
    calls, traced_outputs, stats = _round(runner, checker, workload, 1, trace=True)
    # outputs must not depend on the worker count or on tracing
    for variant in (outputs[2], traced_outputs):
        for index, data in enumerate(variant):
            if data != outputs[1][index]:
                checker.failed += 1
                checker.problems.append(f"stdout differs from --jobs 1: {' '.join(workload.round[index])}")
    probe_path = runner.work / "probe.json"
    checker.attempted += 1
    if runner.probe(seed, probe_path).code == 0:
        probe = json.loads(probe_path.read_text())
    else:
        checker.failed += 1
        probe = {"canon.probe_s": 0.0, "graphs": {}}
    for name, entry in probe["graphs"].items():
        graph = (entry["n"], [tuple(e) for e in entry["edges"]], [])
        if not entry["aut_order"] == oracle.aut_order(graph) == PROBE_AUT[name]:
            checker.verdicts[("probe", name)] = [f"probe {name}: aut_order {entry['aut_order']}"]
    metrics = {}
    for name in stats[0] if stats else ():
        values = [entry[name] for entry in stats]
        # memory is per process, so the cache size is the largest one call left
        metrics[name] = max(values) if name == "canon.cache_entries" else sum(values)
    raw = metrics.get("ops.raw_terms", 0)
    metrics["ops.kept_per_term"] = metrics.get("ops.classes_out", 0) / raw if raw else 0.0
    metrics["canon.probe_s"] = probe["canon.probe_s"]
    metrics["recursion.pool.jobs1_s"] = walls[1]
    metrics["recursion.pool.jobs2_s"] = walls[2]
    metrics["recursion.pool.speedup"] = walls[1] / walls[2]
    metrics["cli.output_bytes"] = sum(len(data) for data in traced_outputs)
    metrics["trace.overhead_s"] = sum(call.wall_s for call in calls) - walls[1]
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner, checker = Runner(work), Checker()
    try:
        if trace:
            values = trace_layers(runner, checker, WORKLOADS[name], seed)
        else:
            values = measure(runner, checker, WORKLOADS[name], seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for problem in checker.problems[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    # a metric is missing only when a failed call left no trace; failed counts it
    metrics = {metric: {"value": values.get(metric, 0), "unit": unit} for metric, unit in units.items()}
    return {"correct": checker.correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": metrics}


def _units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="seeds the probe's relabelling")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "autgraph" / "cli.py").is_file():
        print(f"error: no autgraph sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.workload == "all" else (bool(args.trace),)
    results = {}
    for name in names:
        for trace in modes:
            result = run_workload(name, args.seed, args.seconds, trace, _units(trace))
            results[f"{name}/trace{int(trace)}"] = result
            print(f"{name} trace={int(trace)}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    final = results.popitem()[1] if len(results) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
