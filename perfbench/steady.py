"""Repeat the benchmark and report how steady each metric is.

    python3 perfbench/steady.py --runs 10 --workloads legs verify > first.txt
    python3 perfbench/steady.py --runs 10 --against first.txt
    python3 perfbench/steady.py --runs 2 --trace 1    # counts must repeat

Run N uses seed N.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, against the metric's bound in BENCHMARK.json.  A
spread above a third of the bound is flagged.  ``--against`` names
the saved output of an earlier set; each median's shift from that set's
median, in the worse direction, is flagged when it exceeds the bound.
With ``--trace 1`` it instead prints each per-layer median and checks that
every count and byte total repeats exactly.  The last line is JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    print(f"  {workload} seed {seed}: run took {time.perf_counter() - start:.1f} s", flush=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float], metric: dict, earlier: dict | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    spread = (q3 - q1) / median if median else 0.0
    steady = spread <= metric["bound"] / 3
    entry = {"median": median, "q1": q1, "q3": q3, "spread": spread, "steady": steady, "values": values}
    if earlier is not None:
        worse = (median - earlier["median"]) / earlier["median"]
        entry["shift"] = worse if metric["better"] == "lower" else -worse
        entry["within_bound"] = entry["shift"] <= metric["bound"]
    return entry


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--against", type=Path, help="saved output of an earlier set of runs")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text().strip().splitlines()[-1]) if args.against else {}
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {}
    for workload in args.workloads:
        results = [
            run_once(workload, seed, args.seconds, args.trace) for seed in range(1, args.runs + 1)
        ]
        shares = {result["failed"] / result["attempted"] for result in results}
        entry = {"correct": all(r["correct"] for r in results), "failed_shares": sorted(shares), "metrics": {}}
        print(f"{workload}: {args.runs} runs, correct {entry['correct']}, failed shares {sorted(shares)}")
        for metric in metrics:
            values = [result["metrics"][metric["name"]]["value"] for result in results]
            if args.trace:
                repeats = metric["unit"] not in ("count", "bytes") or len(set(values)) == 1
                entry["metrics"][metric["name"]] = {"median": statistics.median(values), "repeats": repeats}
                note = "" if repeats else f"  differs between runs: {values}"
                print(f"  {metric['name']:34s} median {statistics.median(values):.6g} {metric['unit']}{note}")
                continue
            before = earlier.get(workload, {}).get("metrics", {}).get(metric["name"])
            summary = summarize(values, metric, before)
            entry["metrics"][metric["name"]] = summary
            line = (
                f"  {metric['name']:14s} median {summary['median']:.4f} {metric['unit']}"
                f"  Q1 {summary['q1']:.4f}  Q3 {summary['q3']:.4f}"
                f"  spread {summary['spread']:.4f} / bound {metric['bound']}"
            )
            if not summary["steady"]:
                line += "  (spread above a third of the bound)"
            if before is not None:
                line += f"  shift {summary['shift']:+.4f}" + ("" if summary["within_bound"] else "  (beyond the bound)")
            print(line)
        report[workload] = entry
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
