"""Canonical keys, automorphism orders, and linear combinations."""

import pickle
import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

import pytest

from autgraph import (
    CanonicalKey,
    GraphError,
    LinearCombination,
    Multigraph,
    aut_order,
    block_decomposition,
    canonical_key,
    cycle_graph,
    multi_edge_graph,
    path_graph,
)
from autgraph import canon, ops
from autgraph.canon import automorphism_group, key_graph, tuple_orbits
from autgraph.recursion import BetaEngine, BetaKey
from autgraph.verify import enumerate_classes

TRIANGLE = cycle_graph(3)
P2 = path_graph(2)
P3 = path_graph(3)


def aut_bruteforce(g):
    """Full count of (vertex permutation, edge bijection) automorphism pairs.

    Kept deliberately naive: enumerate every vertex permutation and every
    edge bijection and check endpoint compatibility and leg labels.
    """
    leg_set = set(g.legs)
    count = 0
    for sigma in permutations(range(1, g.n + 1)):
        if not all((label, sigma[v - 1]) in leg_set for label, v in g.legs):
            continue
        for psi in permutations(range(g.num_edges)):
            ok = True
            for eid, (u, v) in enumerate(g.edges):
                a, b = g.edges[psi[eid]]
                if {a, b} != {sigma[u - 1], sigma[v - 1]}:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def all_multigraphs(max_n, max_m, max_s):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for m in range(0, max_m + 1):
            if m > 0 and not pairs:
                continue
            for chosen in combinations_with_replacement(pairs, m):
                for s in range(0, max_s + 1):
                    labels = [f"x{i}" for i in range(1, s + 1)]
                    for hosts in product(range(1, n + 1), repeat=s):
                        yield Multigraph(n, chosen, tuple(zip(labels, hosts)))


# ----------------------------------------------------------------------
# canonical keys

def test_keys_order_and_print_by_their_bytes():
    keys = [canonical_key(g) for g in (P3, TRIANGLE, P2, multi_edge_graph(2))]
    assert all(type(key) is bytes for key in keys) and CanonicalKey is bytes
    assert sorted(keys) == sorted(keys, key=bytes.hex)  # hex keeps the byte order
    assert sorted(keys) == [b"2|1,2;1,2|", b"2|1,2|", b"3|1,2;1,3;2,3|", b"3|1,3;2,3|"]
    key = canonical_key(TRIANGLE)
    assert key == b"3|1,2;1,3;2,3|"
    assert key.hex() == "337c312c323b312c333b322c337c"


def test_key_is_relabeling_invariant_for_triangle():
    keys = {canonical_key(TRIANGLE.relabeled(p)) for p in permutations((1, 2, 3))}
    assert len(keys) == 1


def test_key_distinguishes_path_from_cycle():
    assert canonical_key(P3) != canonical_key(TRIANGLE)
    assert canonical_key(P2) != canonical_key(multi_edge_graph(2))


def test_key_respects_leg_placement():
    middle = Multigraph(3, P3.edges, (("x1", 2),))
    end = Multigraph(3, P3.edges, (("x1", 1),))
    assert canonical_key(middle) != canonical_key(end)


def test_p2_leg_swap_is_isomorphic():
    a = Multigraph(2, ((1, 2),), (("x1", 1),))
    b = Multigraph(2, ((1, 2),), (("x1", 2),))
    assert canonical_key(a) == canonical_key(b)


def test_key_invariance_over_all_permutations_small():
    for g in all_multigraphs(4, 3, 1):
        key = canonical_key(g)
        for sigma in permutations(range(1, g.n + 1)):
            assert canonical_key(g.relabeled(sigma)) == key


def test_keys_separate_nonisomorphic_graphs():
    # graphs whose keys collide must be related by some relabeling
    seen = {}
    for g in all_multigraphs(3, 3, 1):
        seen.setdefault(canonical_key(g), []).append(g)
    for group in seen.values():
        pivot = group[0]
        for g in group[1:]:
            assert any(
                g.relabeled(sigma) == pivot for sigma in permutations(range(1, g.n + 1))
            )


# ----------------------------------------------------------------------
# differential check against the earlier kernel
#
# A frozen copy of the canonizer as it was before the kernel was
# rewritten: neighbour queries through one multiplicity table, one
# relabeling tuple and one encoding tuple per candidate, and |Aut| by a
# per-permutation structure check.  The kernel must give the same
# leg-free key bytes and every order, since those fix the CLI's class
# order and output.  Legged keys now come from the leg-free walk: their
# judge, ref_legged_key, applies that rule to the reference's relabelings,
# and the frozen leg-aware key still judges which legged graphs they join.

def ref_vertex_invariants(g):
    neighbours = {v: {} for v in range(1, g.n + 1)}  # v -> {w: multiplicity of vw}
    for (u, w), mult in g.multiplicities.items():
        neighbours[u][w] = neighbours[w][u] = mult
    base = {}
    for v in range(1, g.n + 1):
        incident_mults = tuple(sorted(neighbours[v].values()))
        base[v] = (g.degree(v), tuple(sorted(g.legs_at(v))), incident_mults)
    refined = {}
    for v in range(1, g.n + 1):
        around = tuple(sorted((mult, base[w]) for w, mult in neighbours[v].items()))
        refined[v] = (base[v], around)
    return refined


def ref_invariant_cells(g):
    refined = ref_vertex_invariants(g)
    groups = {}
    for v in range(1, g.n + 1):
        groups.setdefault(refined[v], []).append(v)
    return [groups[key] for key in sorted(groups)]


def ref_relabelings(g):
    cells = ref_invariant_cells(g)
    offsets = []
    base = 0
    for cell in cells:
        offsets.append(base)
        base += len(cell)
    for choice in product(*(permutations(cell) for cell in cells)):
        image = [0] * g.n
        for offset, ordering in zip(offsets, choice):
            for rank, v in enumerate(ordering):
                image[v - 1] = offset + rank + 1
        yield tuple(image)


def ref_encode(g, image):
    edges = sorted(
        (image[u - 1], image[v - 1]) if image[u - 1] < image[v - 1] else (image[v - 1], image[u - 1])
        for u, v in g.edges
    )
    legs = sorted((image[v - 1], label) for label, v in g.legs)
    return tuple(edges), tuple(legs)


def ref_canonical_key(g):
    edges, legs = min(ref_encode(g, image) for image in ref_relabelings(g))
    edge_part = ";".join(f"{u},{v}" for u, v in edges)
    leg_part = ";".join(f"{v}:{label}" for v, label in legs)
    return f"{g.n}|{edge_part}|{leg_part}".encode("ascii")


def ref_legged_key(g):
    """The key of a legged graph, written as the reference is: of the
    reference's relabelings of g's leg-free graph that reach its least
    edge list, one whose tuple of ranks of the hosts of x1..xs is least."""
    bare = Multigraph(g.n, g.edges)
    edges, ranks = min(
        (ref_encode(bare, image)[0], tuple(image[v - 1] for _, v in g.legs))
        for image in ref_relabelings(bare)
    )
    edge_part = ";".join(f"{u},{v}" for u, v in edges)
    legs = sorted((rank, label) for rank, (label, _) in zip(ranks, g.legs))
    leg_part = ";".join(f"{v}:{label}" for v, label in legs)
    return f"{g.n}|{edge_part}|{leg_part}".encode("ascii")


def ref_aut_order(g):
    cells = ref_invariant_cells(g)
    leg_set = set(g.legs)
    mults = g.multiplicities
    vertex_count = 0
    for choice in product(*(permutations(cell) for cell in cells)):
        image = {}
        for cell, ordering in zip(cells, choice):
            for v, w in zip(cell, ordering):
                image[v] = w
        if all(
            mults.get(tuple(sorted((image[u], image[v]))), 0) == mult for (u, v), mult in mults.items()
        ) and all((label, image[v]) in leg_set for label, v in g.legs):
            vertex_count += 1
    edge_factor = 1
    for mult in mults.values():
        edge_factor *= factorial(mult)
    return vertex_count * edge_factor


def complete_bipartite(a, b):
    return Multigraph(a + b, tuple((u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)))


CUBE = Multigraph(
    8,
    tuple(
        (u + 1, w + 1)
        for u in range(8)
        for w in range(u + 1, 8)
        if bin(u ^ w).count("1") == 1
    ),
)


# K4 with every edge doubled, and the five connected cubic graphs on 8
# vertices (|Aut| 4, 12, 16, 16 and 48; the last is the cube)
DOUBLED_K4 = Multigraph(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5)) * 2)
CUBIC_8 = [
    Multigraph(8, edges)
    for edges in (
        ((1, 2), (1, 7), (1, 8), (2, 4), (2, 8), (3, 5), (3, 6), (3, 8), (4, 5), (4, 7), (5, 6), (6, 7)),
        ((1, 3), (1, 4), (1, 5), (2, 4), (2, 6), (2, 8), (3, 6), (3, 7), (4, 7), (5, 7), (5, 8), (6, 8)),
        ((1, 2), (1, 7), (1, 8), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 8)),
        ((1, 4), (1, 5), (1, 8), (2, 3), (2, 7), (2, 8), (3, 4), (3, 5), (4, 7), (5, 6), (6, 7), (6, 8)),
        ((1, 2), (1, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 6), (3, 8), (4, 5), (5, 8), (6, 7), (7, 8)),
    )
]


def relabelings(rng, g, count):
    for _ in range(count):
        image = list(range(1, g.n + 1))
        rng.shuffle(image)
        yield g.relabeled(image)


def compare_with_reference_canonizer(orders, leg_counts, graphs=()) -> int:
    """Check key bytes and aut_order against the frozen reference on every
    conn class with n+k in ``orders`` and s in ``leg_counts`` and on
    ``graphs``, each as it is and under one random relabeling; returns the
    number of conn classes checked.  Leg-free keys are judged by
    ``ref_canonical_key`` and legged keys by ``ref_legged_key``.  The
    reference runs once per graph, as it gives a graph and its relabeled
    copy one key and one order."""
    rng = random.Random(20100)
    classes = [
        g
        for order in orders
        for n in range(1, order + 1)
        for s in leg_counts
        for g in enumerate_classes("conn", n, order - n, s, max_order=order).values()
    ]
    for g in classes + list(graphs):
        ref_key = ref_legged_key(g) if g.legs else ref_canonical_key(g)
        ref_order = ref_aut_order(g)
        for h in (g, *relabelings(rng, g, 1)):
            assert canonical_key(h) == ref_key, h
            assert aut_order(h) == ref_order, h
    return len(classes)


def test_kernel_matches_reference_canonizer():
    # biconn, two_edge and two_edge_cycles are subfamilies of conn, so the
    # conn classes with n+k <= 7 and s <= 1 hold every class of all four;
    # the fifth cubic graph is the cube in another labeling
    symmetric = [cycle_graph(8), CUBE, complete_bipartite(3, 3), DOUBLED_K4, *CUBIC_8]
    assert compare_with_reference_canonizer(range(1, 8), (0, 1), symmetric) == 695


def test_old_and_new_legged_rules_split_classes_alike():
    # every placement of s legs on every leg-free conn class with n+k <= 6:
    # the frozen leg-aware key and the leg-free walk's key must induce one
    # partition, with one part per legged class
    placements = 0
    for n in range(1, 7):
        for k in range(0, 7 - n):
            for s in (1, 2, 3):
                labels = [f"x{i}" for i in range(1, s + 1)]
                old_to_new, new_to_old = {}, {}
                for core in enumerate_classes("conn", n, k).values():
                    for hosts in product(range(1, n + 1), repeat=s):
                        g = Multigraph(n, core.edges, tuple(zip(labels, hosts)))
                        old, new = ref_canonical_key(g), canonical_key(g)
                        assert old_to_new.setdefault(old, new) == new, g
                        assert new_to_old.setdefault(new, old) == old, g
                        placements += 1
                assert len(new_to_old) == len(enumerate_classes("conn", n, k, s)), (n, k, s)
    assert placements == 5693


# ----------------------------------------------------------------------
# automorphism order

def test_aut_order_examples():
    assert aut_order(TRIANGLE) == 6
    assert aut_order(multi_edge_graph(2)) == 4  # vertex swap times parallel swap
    pinned = Multigraph(2, ((1, 2),), (("x1", 1),))
    assert aut_order(pinned) == 1


def test_aut_order_matches_bruteforce_exhaustively():
    for g in all_multigraphs(4, 4, 2):
        assert aut_order(g) == aut_bruteforce(g), g


def test_aut_order_keeps_a_bounded_cache():
    assert aut_order.cache_info().maxsize == canon._GROUP_CACHE_SIZE
    aut_order.cache_clear()
    graphs = list(all_multigraphs(4, 4, 2))  # 4,903 distinct graphs
    assert len(graphs) > canon._GROUP_CACHE_SIZE
    for g in graphs:
        aut_order(g)
    assert aut_order.cache_info().currsize == canon._GROUP_CACHE_SIZE


def test_orbit_stabilizer_identity():
    # labeled variants on a fixed vertex set times |Aut| equals n! * prod(mult!)
    for n, k, s in ((3, 0, 0), (3, 1, 0), (2, 1, 1), (4, 0, 0), (4, 1, 0), (3, 1, 1)):
        m = k + n - 1
        pairs = list(combinations(range(1, n + 1), 2))
        labels = [f"x{i}" for i in range(1, s + 1)]
        by_key = {}
        for chosen in combinations_with_replacement(pairs, m):
            for hosts in product(range(1, n + 1), repeat=s):
                g = Multigraph(n, chosen, tuple(zip(labels, hosts)))
                by_key.setdefault(canonical_key(g), []).append(g)
        for variants in by_key.values():
            rep = variants[0]
            edge_perms = 1
            for mult in rep.multiplicities.values():
                edge_perms *= factorial(mult)
            assert len(variants) * aut_order(rep) == factorial(n) * edge_perms


# ----------------------------------------------------------------------
# automorphism groups

def conn_classes_to_order(max_order):
    return [
        g
        for n in range(1, max_order + 1)
        for k in range(0, max_order + 1 - n)
        for s in (0, 1)
        for g in enumerate_classes("conn", n, k, s).values()
    ]


def group_corpus():
    return [
        *all_multigraphs(4, 4, 2),
        *conn_classes_to_order(6),
        cycle_graph(8),
        CUBE,
        complete_bipartite(3, 3),
        DOUBLED_K4,
        *CUBIC_8,
    ]


def edge_factor(g):
    factor = 1
    for mult in g.multiplicities.values():
        factor *= factorial(mult)
    return factor


def orbit_sizes(g):
    return sorted(size for _, size in tuple_orbits(automorphism_group(g), g.n, 1))


def test_automorphism_group_is_kept_and_immutable():
    g = cycle_graph(5)
    group = automorphism_group(g)
    assert automorphism_group(g) is group
    assert isinstance(group, tuple) and all(isinstance(sigma, tuple) for sigma in group)
    assert len(group) == 10 and group[0] == (1, 2, 3, 4, 5)


def test_automorphisms_form_the_group_of_the_reference_order():
    for g in group_corpus():
        group = automorphism_group(g)
        assert group[0] == tuple(range(1, g.n + 1))
        as_set = {tuple(sigma) for sigma in group}
        assert len(as_set) == len(group), g
        for sigma in group:
            assert g.relabeled(sigma) == g, (g, sigma)  # multiplicities and legs kept
        for a in group:
            for b in group:
                assert tuple(a[b[v - 1] - 1] for v in range(1, g.n + 1)) in as_set, g
        assert len(group) * edge_factor(g) == ref_aut_order(g), g
        sizes = orbit_sizes(g)
        assert sum(sizes) == g.n
        assert all(len(group) % size == 0 for size in sizes), g


def test_with_legs_walks_each_host_once():
    # with_legs keys every placement from its host's key, so each host is
    # walked once, for its group, and keyed once, to check its key, whatever
    # the number of placements: no placement reaches the canonizer
    engine = BetaEngine()
    key = BetaKey("conn", 5, 1)
    hosts = len(engine.beta(key))
    for cache in (canon._walk, canonical_key, automorphism_group):
        cache.cache_clear()
    legged = engine.with_legs(key, 2)
    assert (hosts, len(legged), canon._walk.cache_info().misses) == (11, 180, 11)
    assert (canonical_key.cache_info().hits, canonical_key.cache_info().misses) == (0, 11)


def test_legged_keys_are_the_keys_of_their_placements():
    # each placement that with_legs keeps, built as a graph on its host's
    # canonical form and keyed by the canonizer, in with_legs's order; the
    # last cell puts x10 and x11 on a vertex with x1
    engine = BetaEngine()
    cells = [
        (family, n, k, s)
        for family in ("conn", "biconn", "two_edge")
        for n in range(1, 6)
        for k in range(0, 6 - n)
        for s in (1, 2, 3)
    ]
    for family, n, k, s in cells + [("conn", 2, 0, 11)]:
        labels = [f"x{a}" for a in range(1, s + 1)]
        expected = []
        for _, coeff, host in engine.beta(BetaKey(family, n, k)).terms():
            for point, size in tuple_orbits(automorphism_group(host), host.n, s):
                placed = Multigraph(host.n, host.edges, list(zip(labels, point)))
                expected.append((canonical_key(placed), coeff * size))
        legged = list(engine.with_legs(BetaKey(family, n, k), s).class_coefficients().items())
        assert legged == expected, (family, n, k, s)
        assert len({key for key, _ in legged}) == len(legged), (family, n, k, s)


def test_tuple_orbits_partition_the_tuples():
    for g in (cycle_graph(5), CUBE, complete_bipartite(2, 3), TRIANGLE, P3):
        group = automorphism_group(g)
        for length in (0, 1, 2, 3):
            orbits = tuple_orbits(group, g.n, length)
            covered = set()
            for least, size in orbits:
                orbit = {tuple(sigma[v - 1] for v in least) for sigma in group}
                assert min(orbit) == least and len(orbit) == size
                covered |= orbit
            assert [least for least, _ in orbits] == sorted(least for least, _ in orbits)
            assert sum(size for _, size in orbits) == g.n**length == len(covered)


def test_automorphism_group_is_relabeling_invariant():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 6))
        pairs = list(combinations(range(1, n + 1), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        hosts = data.draw(st.lists(st.integers(1, n), max_size=2))
        g = Multigraph(n, tuple(edges), tuple((f"x{i}", v) for i, v in enumerate(hosts, 1)))
        image = data.draw(st.permutations(range(1, n + 1)))
        h = g.relabeled(image)
        assert len(automorphism_group(h)) == len(automorphism_group(g))
        assert orbit_sizes(h) == orbit_sizes(g)

    check()


def test_automorphism_count_matches_networkx():
    nx = pytest.importorskip("networkx")
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    classes = conn_classes_to_order(6)
    assert len(classes) == 202
    for g in classes:
        graph = nx.Graph()
        for v in range(1, g.n + 1):
            graph.add_node(v, legs=g.legs_at(v))
        for (u, v), mult in g.multiplicities.items():
            graph.add_edge(u, v, mult=mult)
        matcher = isomorphism.GraphMatcher(
            graph,
            graph,
            node_match=lambda a, b: a["legs"] == b["legs"],
            edge_match=lambda a, b: a["mult"] == b["mult"],
        )
        assert sum(1 for _ in matcher.isomorphisms_iter()) == len(automorphism_group(g)), g


# ----------------------------------------------------------------------
# linear combinations

def test_add_term_merges_isomorphic_graphs():
    relabeled = Multigraph(2, ((2, 1),))
    combo = LinearCombination().add_term(P2, Fraction(1, 2)).add_term(relabeled, Fraction(1, 2))
    assert len(combo) == 1
    assert combo.coefficient(P2) == 1


def test_add_term_cancellation():
    combo = (
        LinearCombination()
        .add_term(TRIANGLE, Fraction(1, 3))
        .add_term(TRIANGLE.relabeled((2, 3, 1)), Fraction(-1, 3))
    )
    assert not combo
    assert combo.coefficient(TRIANGLE) == 0


def test_add_term_keeps_distinct_classes():
    combo = LinearCombination([(P3, Fraction(1, 2))]).add_term(TRIANGLE, Fraction(1, 6))
    assert len(combo) == 2
    assert combo.coefficient(TRIANGLE) == Fraction(1, 6)
    assert combo.coefficient(P3) == Fraction(1, 2)


def test_add_term_rejects_zero_and_floats():
    combo = LinearCombination()
    with pytest.raises(GraphError):
        combo.add_term(P2, 0)
    with pytest.raises(GraphError):
        combo.add_term(P2, 0.5)
    with pytest.raises(GraphError):
        LinearCombination([(P2, 0.25)])


def test_coefficients_must_be_int_or_fraction():
    for bad in (0.5, True, Decimal("0.5")):
        with pytest.raises(GraphError, match="exact rationals"):
            LinearCombination([(P2, bad)])
        with pytest.raises(GraphError, match="exact rationals"):
            LinearCombination().add_term(P2, bad)
        with pytest.raises(GraphError, match="exact rationals"):
            LinearCombination([(P2, 1)]) * bad
    weight = Fraction(2, 3)
    assert LinearCombination([(P2, weight)]).coefficient(P2) is weight
    whole = LinearCombination([(P2, 2)]).coefficient(P2)
    assert type(whole) is Fraction and whole == 2


def test_add_term_returns_new_value():
    base = LinearCombination([(P2, 1)])
    grown = base.add_term(TRIANGLE, 1)
    assert len(base) == 1 and len(grown) == 2


def test_combination_arithmetic():
    a = LinearCombination([(P2, Fraction(1, 2))])
    b = LinearCombination([(P2, Fraction(1, 3)), (TRIANGLE, 1)])
    total = a + b
    assert total.coefficient(P2) == Fraction(5, 6)
    assert (total - b) == a
    assert (2 * a).coefficient(P2) == 1
    assert not (a * 0)


def test_combination_restriction_and_mass():
    combo = LinearCombination([(P2, Fraction(1, 2)), (TRIANGLE, Fraction(1, 6))])
    only_cycles = combo.restricted(lambda g: g.num_edges == g.n)
    assert only_cycles.class_coefficients() == {canonical_key(TRIANGLE): Fraction(1, 6)}
    assert combo.total_mass() == Fraction(2, 3)


def test_terms_give_each_class_its_canonical_form():
    """A class is its key: whichever of its graphs is added first, terms()
    gives the graph that the key spells, whose key it is."""
    first = Multigraph(3, ((1, 2), (2, 3)))
    second = Multigraph(3, ((1, 3), (2, 3)))
    both_ways = [LinearCombination([(first, 1), (second, 1)]), LinearCombination([(second, 1), (first, 1)])]
    assert both_ways[0].terms() == both_ways[1].terms() == [(b"3|1,3;2,3|", 2, second)]
    assert not hasattr(LinearCombination, "representative")
    # legs come in label order x1, x2, ..., x10, as the graph holds them
    legged = Multigraph(3, ((1, 2), (2, 3)), [(f"x{i}", 1 + i % 3) for i in range(1, 11)])
    key = canonical_key(legged)
    assert canonical_key(key_graph(key)) == key and key_graph(key, strict=True) == key_graph(key)
    with pytest.raises(GraphError, match="canonical text"):
        key_graph(b"03|1,3;2,3|", strict=True)
    n, edge_text, leg_text = canon.key_texts(key)
    legs = canon.legs_by_label(leg_text)
    assert [label for label, _ in legs] == [f"x{i}" for i in range(1, 11)]
    assert (n, [tuple(map(int, e.split(","))) for e in edge_text.split(";")]) == ("3", list(key_graph(key).edges))
    assert [(label, int(v)) for label, v in legs] == list(key_graph(key).legs)


def test_terms_are_sorted_by_key():
    combo = LinearCombination([(TRIANGLE, 1), (P3, 1), (multi_edge_graph(3), 1)])
    keys = [key for key, _, _ in combo.terms()]
    assert keys == sorted(keys)


def test_coefficients_stay_exact_fractions():
    combo = LinearCombination([(P2, Fraction(1, 3))]) * Fraction(3, 7)
    value = combo.coefficient(P2)
    assert isinstance(value, Fraction) and value == Fraction(1, 7)


def key_calls():
    info = canonical_key.cache_info()
    return info.hits + info.misses


def eager_terms(adds):
    """The accumulation rule, keying each graph as it is added: key ->
    coefficient, and a class that cancels to zero is dropped."""
    terms = {}
    for g, coeff in adds:
        key = canonical_key(g)
        terms[key] = terms.get(key, 0) + Fraction(coeff)
        if terms[key] == 0:
            del terms[key]
    return terms


def test_total_mass_of_operator_results_needs_no_key():
    """The verifier's term counts read only the mass of each operator result:
    it equals the mass of the keyed terms, and no graph is canonized for it."""
    blocks = [P2, multi_edge_graph(2), TRIANGLE]
    hosts = [g for n in range(2, 5) for s in (0, 1) for g in enumerate_classes("conn", n, 5 - n, s).values()]
    checked = 0
    for g in hosts:
        for i in range(1, g.n + 1):
            results = [ops.split_vertex(g, i)] + [ops.insert_block(g, i, block) for block in blocks]
            before = key_calls()
            masses = [combo.total_mass() for combo in results]
            assert key_calls() == before, (g, i)
            d, legs = g.degree(i), len(g.legs_at(i))
            at_i = len(block_decomposition(g).blocks_at[i])
            expected = [(2**d - 2) * 2**legs if d >= 2 else 0]
            expected += [block.n ** (at_i + legs) for block in blocks]
            assert masses == expected, (g, i)
            assert masses == [sum(coeff for _, coeff, _ in combo.terms()) for combo in results]
            checked += 1
    assert checked == 106


def test_deferred_keying_matches_eager_accumulation():
    """Keys, coefficients and key order are those of keying each graph as it
    is added, wherever the combination is read."""
    p3_again = P3.relabeled((3, 1, 2))
    p3_third = P3.relabeled((2, 3, 1))
    adds = [
        (P3, 1),
        (TRIANGLE, Fraction(1, 6)),
        (p3_again, -1),  # P3 cancels to zero and is dropped
        (TRIANGLE.relabeled((2, 3, 1)), Fraction(1, 3)),
        (p3_third, 2),  # P3 again
        (P2, Fraction(1, 2)),
        (multi_edge_graph(2), 0),  # a zero coefficient adds nothing
    ]
    expected = eager_terms(adds)
    assert expected == {
        canonical_key(TRIANGLE): Fraction(1, 2),
        canonical_key(P3): 2,
        canonical_key(P2): Fraction(1, 2),
    }
    for split in range(len(adds) + 1):
        so_far = eager_terms(adds[:split])
        before = key_calls()
        combo = LinearCombination(adds[:split])
        assert combo.total_mass() == sum(so_far.values())
        assert key_calls() == before  # nothing keyed yet
        assert len(combo) == len(so_far)  # keys what was added so far
        for g, coeff in adds[split:]:
            combo._add(g, coeff)
        assert combo.class_coefficients() == expected, split
        assert combo.terms() == [(key, coeff, key_graph(key)) for key, coeff in sorted(expected.items())]
        assert combo.total_mass() == 3


def test_merge_keys_the_pending_graphs_of_both_sides():
    """A merge keys the pending graphs of both sides, each once."""
    first = Multigraph(3, ((1, 2), (2, 3)))
    second = Multigraph(3, ((1, 3), (2, 3)))
    triangle = TRIANGLE.relabeled((3, 1, 2))
    into = LinearCombination([(first, 1)])
    other = LinearCombination([(second, 1), (triangle, 1)])
    before = key_calls()
    into._merge(other, 2)
    assert key_calls() == before + 3
    assert not into._pending and not other._pending
    assert into.class_coefficients() == eager_terms([(first, 1), (second, 2), (triangle, 2)])
    assert other.class_coefficients() == eager_terms([(second, 1), (triangle, 1)])


def test_pickled_combination_keys_its_pending_graphs_alike():
    """Forked helpers send their sums pickled; pending graphs travel as they
    are and are keyed where the combination is read."""
    adds = [(P3, 1), (TRIANGLE, 1), (P3.relabeled((2, 3, 1)), -1), (P3.relabeled((3, 1, 2)), 1)]
    before = key_calls()
    combo = LinearCombination(adds)
    restored = pickle.loads(pickle.dumps(combo))
    assert key_calls() == before
    assert restored.total_mass() == combo.total_mass() == 2
    assert restored.terms() == combo.terms()
    assert restored.class_coefficients() == eager_terms(adds)
