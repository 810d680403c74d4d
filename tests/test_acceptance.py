"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All coefficient comparisons are exact rational equality.
"""

import contextlib
import io
import time
from fractions import Fraction
from math import factorial

import pytest

from autgraph import (
    BetaEngine,
    BetaKey,
    canonical_key,
    cycle_graph,
    is_biconnected,
    is_two_edge_connected,
    multi_edge_graph,
    verify_beta,
    verify_lemmas,
)
from autgraph import recursion
from autgraph.cli import main
from autgraph.canon import LinearCombination
from autgraph.ops import xi_distribute
from autgraph.verify import blocks_are_cycles
from test_recursion import count_forks, patch_cpus

FAMILIES = ("biconn", "conn", "two_edge", "two_edge_cycles", "aux")
CLI_FAMILIES = ("biconn", "conn", "2edge", "2edge-cycles")


def sweep_cells():
    """(family, n, k, s) grid: n+k <= 6 for s=0 and n+k <= 5 for s in {1, 2}."""
    for family in FAMILIES:
        min_k = 1 if family in ("two_edge", "two_edge_cycles", "aux") else 0
        for s, order in ((0, 6), (1, 5), (2, 5)):
            for n in range(2, order + 1):
                for k in range(min_k, order - n + 1):
                    yield family, n, k, s


@pytest.fixture(scope="module")
def engine():
    return BetaEngine()


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_base_case_coefficients():
    start = time.perf_counter()
    fresh = BetaEngine()
    ok = True
    for k in range(5):
        expected = {canonical_key(multi_edge_graph(k + 1)): Fraction(1, 2 * factorial(k + 1))}
        ok = ok and fresh.beta(BetaKey("biconn", 2, k)).class_coefficients() == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report("criterion 1 (base-case coefficients, k=0..4)", ok, f"{elapsed:.3f}s")


def test_criterion_2_cycle_coefficients():
    start = time.perf_counter()
    fresh = BetaEngine()
    ok = True
    for n in range(3, 7):
        expected = {canonical_key(cycle_graph(n)): Fraction(1, 2 * n)}
        ok = ok and fresh.beta(BetaKey("biconn", n, 1)).class_coefficients() == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report("criterion 2 (cycle coefficients, n=3..6)", ok, f"{elapsed:.3f}s")


def test_criterion_3_oracle_agreement(engine):
    start = time.perf_counter()
    failures = []
    cells = 0
    for family, n, k, s in sweep_cells():
        kwargs = {"j": 2} if family == "aux" else {}
        report = verify_beta(family, n, k, s, engine=engine, **kwargs)
        cells += 1
        if not report.passed:
            failures.append((family, n, k, s))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    _report(
        "criterion 3 (oracle agreement, all families)",
        ok,
        f"{cells} cells in {elapsed:.1f}s, failures: {failures}",
    )


def test_criterion_4_cross_family_restriction(engine):
    failures = []
    for n in range(2, 7):
        for k in range(0, 7 - n):
            conn = engine.beta(BetaKey("conn", n, k))
            if conn.restricted(is_biconnected) != engine.beta(BetaKey("biconn", n, k)):
                failures.append(("biconn", n, k))
            if conn.restricted(is_two_edge_connected) != engine.beta(BetaKey("two_edge", n, k)):
                failures.append(("two_edge", n, k))
    _report("criterion 4 (cross-family restriction, n+k<=6)", not failures, f"failures: {failures}")


def test_criterion_5_leg_distribution_factorizes(engine):
    failures = []
    for n in range(2, 5):
        for k in range(0, 2):
            for s in range(0, 2):
                for extra in range(1, 3):
                    direct = engine.with_legs(BetaKey("conn", n, k), s + extra)
                    labels = [f"x{i}" for i in range(s + 1, s + extra + 1)]
                    lifted = LinearCombination()
                    for _, coeff, rep in engine.with_legs(BetaKey("conn", n, k), s).terms():
                        lifted._merge(
                            xi_distribute(rep, range(1, rep.n + 1), labels), coeff
                        )
                    if direct != lifted:
                        failures.append((n, k, s, extra))
    _report(
        "criterion 5 (post-hoc leg distribution, n<=4 k<=1 s<=1 s'<=2)",
        not failures,
        f"failures: {failures}",
    )


def test_criterion_6_lemma_suite(engine):
    report = verify_lemmas(bound=5, engine=engine)
    failing = [check.name for check in report.checks if not check.passed]
    cases = sum(check.cases for check in report.checks)
    _report("criterion 6 (operator property suite, n+k<=5)", report.passed,
            f"{cases} cases, failing: {failing}")


def test_criterion_7_cycle_restricted_variant(engine):
    base = engine.beta(BetaKey("two_edge_cycles", 2, 1)).class_coefficients()
    ok = base == {canonical_key(multi_edge_graph(2)): Fraction(1, 4)}
    failures = []
    for n in range(2, 7):
        for k in range(1, 7 - n):
            full = engine.beta(BetaKey("two_edge", n, k))
            if engine.beta(BetaKey("two_edge_cycles", n, k)) != full.restricted(blocks_are_cycles):
                failures.append((n, k))
    _report(
        "criterion 7 (cycle-restricted variant, n+k<=6)",
        ok and not failures,
        f"base ok: {ok}, failures: {failures}",
    )


def _run_generate(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(args)
    assert code == 0, args
    return buffer.getvalue()


def test_criterion_8_cli_determinism_across_jobs():
    start = time.perf_counter()
    mismatches = []
    cells = 0
    for family, n, k, s in sweep_cells():
        if family == "aux":
            continue  # not a CLI family
        flag = {"two_edge": "2edge", "two_edge_cycles": "2edge-cycles"}.get(family, family)
        args = ["generate", "--family", flag, "--n", str(n), "--k", str(k),
                "--s", str(s), "--format", "json"]
        serial = _run_generate(args + ["--jobs", "1"])
        parallel = _run_generate(args + ["--jobs", "8"])
        cells += 1
        if serial != parallel:
            mismatches.append((family, n, k, s))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (byte-identical output for --jobs 1 vs --jobs 8)",
        not mismatches,
        f"{cells} cases in {elapsed:.1f}s, mismatches: {mismatches}",
    )


def test_criterion_8_pooled_evaluations_keep_every_term(monkeypatch):
    """The criterion-8 sweep with every evaluation of two or more applications
    summed in slices by forked helpers: keys, coefficients and order all
    match the one-process engine."""
    monkeypatch.setattr(recursion, "_FORK_MIN_APPLICATIONS", 2)
    patch_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    start = time.perf_counter()
    serial = BetaEngine()
    mismatches = []
    cells = 0
    pooled = BetaEngine(jobs=2)
    for family, n, k, s in sweep_cells():
        key = BetaKey(family, n, k, j=2 if family == "aux" else 0)
        cells += 1
        if pooled.with_legs(key, s).terms() != serial.with_legs(key, s).terms():
            mismatches.append((family, n, k, s))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (pooled evaluations match one process term by term)",
        forks and not mismatches,
        f"{cells} cases in {elapsed:.1f}s, helpers forked: {len(forks)}, mismatches: {mismatches}",
    )
