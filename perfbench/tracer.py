"""Run one autgraph CLI call with the package's public functions timed.

    python3 perfbench/tracer.py STATS.json -- generate --family conn ...
    python3 perfbench/tracer.py STATS.json --probe SEED

Run it in a fresh interpreter with the package's ``src`` directory on
PYTHONPATH.  The CLI's stdout passes through unchanged; the counts and
self times go to STATS.json.  Each wrapped function is also replaced in
every autgraph module that imported it by name, so a call from
``verify`` into ``canonical_key`` is seen.  A function's self time is its
wall time minus the time spent in wrapped functions it called.

``--probe`` times ``canonical_key`` and ``aut_order`` on C8, Q3 and K3,3,
relabelled by a permutation drawn from SEED, with the caches empty.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from itertools import product
from math import factorial

from autgraph import canon, cli, graph, ops, recursion, verify

MODULES = (graph, canon, ops, recursion, verify, cli)

# Module-level public functions timed per layer.  Generators are left out:
# wrapping one would time only its creation.
FUNCTIONS = {
    graph: (
        "block_decomposition",
        "connected_components",
        "cyclomatic_number",
        "is_biconnected",
        "is_connected",
        "is_two_edge_connected",
    ),
    canon: ("aut_order", "canonical_key"),
    ops: (
        "add_edge",
        "apply_weighted",
        "contract_block",
        "erase_external",
        "insert_block",
        "insert_block_hat",
        "q_hat_map",
        "q_map",
        "split_vertex",
        "split_vertex_hat",
        "xi_distribute",
    ),
    verify: ("enumerate_classes", "family_predicate", "verify_beta", "verify_lemmas"),
    cli: ("render_dot", "render_json", "render_table"),
}

# Methods timed as part of their module's layer.
METHODS = {
    canon.LinearCombination: (
        "__init__",
        "_add",
        "_merge",
        "add_term",
        "copy",
        "__add__",
        "__sub__",
        "__mul__",
        "__rmul__",
        "coefficient",
        "terms",
        "support",
        "class_coefficients",
        "restricted",
        "total_mass",
        "__eq__",
    ),
    recursion.BetaEngine: ("beta", "_load_cached", "_store_cached"),
}

OPERATORS = ("q_map", "q_hat_map", "insert_block", "insert_block_hat")

_clock = time.perf_counter
_stack = [0.0]  # per active wrapped call: time spent in wrapped callees
calls: dict[str, int] = {}
self_s: dict[str, float] = {}
counters = {
    "ops.raw_terms": 0,
    "ops.classes_out": 0,
    "recursion.disk_hits": 0,
    "recursion.disk_writes": 0,
    "recursion.disk_bytes": 0,
    "verify.classes_checked": 0,
}
memo_keys: set = set()


def _mass(combo):
    return sum(coeff for coeff, _ in combo._terms.values())


def _record_result(name: str, args, result) -> None:
    short = name.rsplit(".", 1)[-1]
    if short in OPERATORS:
        mass = _mass(result)
        if short in ("q_map", "q_hat_map"):
            mass *= 2 * factorial(args[2] - 1)  # args[2] is rho
        counters["ops.raw_terms"] += int(mass)
        counters["ops.classes_out"] += len(result)
    elif name == "recursion.BetaEngine.beta":
        memo_keys.add(args[1])
    elif name == "recursion.BetaEngine._load_cached" and result is not None:
        counters["recursion.disk_hits"] += 1
        counters["recursion.disk_bytes"] += args[0]._cache_path(args[1]).stat().st_size
    elif name == "recursion.BetaEngine._store_cached" and args[0]._cache_dir is not None:
        counters["recursion.disk_writes"] += 1
        counters["recursion.disk_bytes"] += args[0]._cache_path(args[1]).stat().st_size
    elif name == "verify.verify_beta":
        counters["verify.classes_checked"] += result.class_count


def _wrap(name: str, fn):
    calls[name] = 0
    self_s[name] = 0.0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _stack.append(0.0)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            calls[name] += 1
            self_s[name] += elapsed - _stack.pop()
        # the bookkeeping below is charged to no layer
        _record_result(name, args, result)
        _stack[-1] += _clock() - start
        return result

    return wrapper


def install() -> dict:
    """Wrap every listed function; returns the original functions by name."""
    originals = {}
    for module, names in FUNCTIONS.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            original = getattr(module, name)
            wrapped = _wrap(f"{layer}.{name}", original)
            originals[f"{layer}.{name}"] = original
            for other in MODULES:
                if getattr(other, name, None) is original:
                    setattr(other, name, wrapped)
    # the CLI dispatches to its renderers through this table
    for fmt, renderer in cli._RENDERERS.items():
        cli._RENDERERS[fmt] = getattr(cli, renderer.__name__)
    for cls, names in METHODS.items():
        layer = cls.__module__.rsplit(".", 1)[-1]
        for name in names:
            setattr(cls, name, _wrap(f"{layer}.{cls.__name__}.{name}", cls.__dict__[name]))
    return originals


def _layer_self(prefix: str) -> float:
    return sum(value for name, value in self_s.items() if name.startswith(prefix))


def run_cli(argv: list[str]) -> tuple[int, dict]:
    originals = install()
    code = cli.main(argv)
    sys.stdout.flush()
    key_cache = originals["canon.canonical_key"].cache_info()
    aut_cache = originals["canon.aut_order"].cache_info()
    stats = {
        "canon.canonical_key.calls": calls["canon.canonical_key"],
        "canon.canonical_key.misses": key_cache.misses,
        "canon.canonical_key.self_s": self_s["canon.canonical_key"],
        "canon.accumulate.self_s": _layer_self("canon.LinearCombination."),
        "canon.aut_order.calls": calls["canon.aut_order"],
        "canon.aut_order.self_s": self_s["canon.aut_order"],
        "canon.cache_entries": key_cache.currsize + aut_cache.currsize,
        "ops.applications": sum(calls[f"ops.{name}"] for name in OPERATORS),
        "ops.raw_terms": counters["ops.raw_terms"],
        "ops.classes_out": counters["ops.classes_out"],
        "ops.self_s": _layer_self("ops."),
        "graph.block_decomposition.calls": calls["graph.block_decomposition"],
        "graph.block_decomposition.self_s": self_s["graph.block_decomposition"],
        "recursion.beta.calls": calls["recursion.BetaEngine.beta"],
        "recursion.memo_keys": len(memo_keys),
        "recursion.beta.self_s": _layer_self("recursion."),
        "recursion.disk_hits": counters["recursion.disk_hits"],
        "recursion.disk_writes": counters["recursion.disk_writes"],
        "recursion.disk_bytes": counters["recursion.disk_bytes"],
        "verify.enumerate_classes.calls": calls["verify.enumerate_classes"],
        "verify.enumerate_classes.self_s": self_s["verify.enumerate_classes"],
        "verify.lemmas.self_s": self_s["verify.verify_lemmas"],
        "verify.classes_checked": counters["verify.classes_checked"],
        "cli.render.self_s": _layer_self("cli.render_"),
    }
    return code, stats


def _probe_graphs() -> dict[str, list[tuple[int, int]]]:
    cycle = [(v, v % 8 + 1) for v in range(1, 9)]
    corners = list(product((0, 1), repeat=3))
    cube = [
        (a + 1, b + 1)
        for a in range(8)
        for b in range(a + 1, 8)
        if sum(x != y for x, y in zip(corners[a], corners[b])) == 1
    ]
    k33 = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    return {"C8": [8, cycle], "Q3": [8, cube], "K33": [6, k33]}


def run_probe(seed: int) -> dict:
    rng = random.Random(seed)
    total = 0.0
    graphs = {}
    for name, (n, edges) in _probe_graphs().items():
        image = list(range(1, n + 1))
        rng.shuffle(image)
        g = graph.Multigraph(n, tuple(edges)).relabeled(image)
        start = _clock()
        canon.canonical_key(g)
        order = canon.aut_order(g)
        total += _clock() - start
        graphs[name] = {"n": g.n, "edges": [list(e) for e in g.edges], "aut_order": order}
    return {"canon.probe_s": total, "graphs": graphs}


def main(argv: list[str]) -> int:
    stats_path = argv[0]
    if argv[1] == "--probe":
        code, stats = 0, run_probe(int(argv[2]))
    else:
        assert argv[1] == "--", "usage: tracer.py STATS.json -- CLI ARGS"
        code, stats = run_cli(argv[2:])
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
