"""The oracle against direct labelled counting on small graphs.

Run with ``python3 -m pytest perfbench/test_oracle.py`` or
``python3 perfbench/test_oracle.py``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def _components_without(n, edges, removed_vertex) -> int:
    parent = {v: v for v in range(1, n + 1) if v != removed_vertex}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        if removed_vertex not in (u, v):
            parent[find(u)] = find(v)
    return len({find(v) for v in parent})


def _cycles_only(n, edges) -> bool:
    """Every block is a cycle: the block count, 1 + sum over vertices of
    (components of G - v) - 1, equals the cyclomatic number."""
    blocks = 1 + sum(_components_without(n, edges, v) - 1 for v in range(1, n + 1))
    return blocks == len(edges) - n + 1


def _labelled_mass(family: str, n: int, m: int) -> Fraction:
    """Count graphs on labelled vertices 1..n with m labelled edges directly."""
    pairs = list(combinations(range(1, n + 1), 2))
    count = 0
    for edges in product(pairs, repeat=m):
        graph = (n, list(edges), [])
        if family == "two_edge_cycles":
            member = oracle.is_member("two_edge", graph) and _cycles_only(n, list(edges))
        else:
            member = oracle.is_member(family, graph)
        count += member
    return Fraction(count, factorial(n) * factorial(m))


def test_mass_matches_labelled_counts():
    for family in oracle.FAMILIES:
        for n in range(2, 5):
            for k in range(0, 6 - n):
                expected = _labelled_mass(family, n, n + k - 1)
                assert oracle.mass(family, n, k) == expected, (family, n, k)


def test_legs_multiply_mass_by_n_to_the_s():
    assert oracle.mass("conn", 3, 1, 2) == 9 * oracle.mass("conn", 3, 1)


def _brute_aut(graph) -> int:
    n, edges, legs = graph
    mult = oracle._multiplicities(edges)
    count = 0
    for perm in permutations(range(1, n + 1)):
        image = dict(zip(range(1, n + 1), perm))
        same_edges = oracle._multiplicities([(image[u], image[v]) for u, v in edges]) == mult
        same_legs = sorted((label, image[v]) for label, v in legs) == sorted(legs)
        count += same_edges and same_legs
    for c in mult.values():
        count *= factorial(c)
    return count


def test_aut_order_matches_permutation_count():
    graphs = [
        (4, [(1, 2), (2, 3), (3, 4), (4, 1)], []),
        (4, [(1, 2), (1, 2), (2, 3), (3, 4), (4, 1)], []),
        (4, [(1, 2), (1, 3), (1, 4)], [("x1", 2)]),
        (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], []),
        (3, [(1, 2), (1, 2), (2, 3), (2, 3)], [("x1", 2), ("x2", 2)]),
    ]
    for graph in graphs:
        assert oracle.aut_order(graph) == _brute_aut(graph), graph


def test_isomorphic_and_invariant():
    square = (4, [(1, 2), (2, 3), (3, 4), (4, 1)], [])
    relabelled = (4, [(1, 3), (3, 2), (2, 4), (4, 1)], [])
    path = (4, [(1, 2), (2, 3), (3, 4), (1, 2)], [])
    assert oracle.isomorphic(square, relabelled)
    assert oracle.invariant(square) == oracle.invariant(relabelled)
    assert not oracle.isomorphic(square, path)


def test_membership():
    triangle = (3, [(1, 2), (2, 3), (1, 3)], [])
    bowtie = (5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)], [])
    bridge = (4, [(1, 2), (1, 2), (2, 3), (3, 4), (3, 4)], [])
    assert oracle.is_member("biconn", triangle)
    assert not oracle.is_member("biconn", bowtie)
    assert oracle.is_member("two_edge", bowtie)
    assert not oracle.is_member("two_edge", bridge)
    assert oracle.is_member("conn", bridge)
    assert not oracle.is_member("conn", (3, [(1, 2)], []))


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
