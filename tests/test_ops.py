"""The elementary graph transformations."""

import random
from fractions import Fraction
from math import factorial

import pytest

from autgraph import (
    GraphError,
    LinearCombination,
    Multigraph,
    add_edge,
    apply_weighted,
    block_decomposition,
    canonical_key,
    contract_block,
    cycle_graph,
    cyclomatic_number,
    erase_external,
    insert_block,
    insert_block_hat,
    is_biconnected,
    is_two_edge_connected,
    multi_edge_graph,
    path_graph,
    q_hat_map,
    q_map,
    split_vertex,
    split_vertex_hat,
    xi_distribute,
)

from autgraph.canon import automorphism_group
from autgraph.verify import enumerate_classes
from full_enumeration import full_insertion, full_split, full_split_vertex, ordered_assignments

P2 = path_graph(2)
P3 = path_graph(3)
TRIANGLE = cycle_graph(3)
DOUBLE = multi_edge_graph(2)
TWO_TRIANGLES = Multigraph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)))
STAR3 = Multigraph(4, ((1, 2), (1, 3), (1, 4)))


def single_class(combo):
    terms = combo.terms()
    assert len(terms) == 1
    return terms[0]


# ----------------------------------------------------------------------
# assignment enumeration

def test_ordered_assignments_each_admissible_once():
    plain = list(ordered_assignments(3, 4))
    assert len(plain) == len(set(plain)) == 4**3
    bipartitions = list(ordered_assignments(4, 2, nonempty_parts=True))
    assert len(bipartitions) == len(set(bipartitions)) == 2**4 - 2
    grouped = list(
        ordered_assignments(4, 2, nonempty_parts=True, split_groups=[(0, 1), (2, 3)])
    )
    assert len(grouped) == len(set(grouped)) == 4  # both groups must reach both slots
    assert list(ordered_assignments(0, 3)) == [()]


# ----------------------------------------------------------------------
# leg distribution

def test_xi_one_label_on_two_targets():
    combo = xi_distribute(P2, (1, 2), ("x1",))
    assert combo.total_mass() == 2  # one term per assignment
    assert len(combo) == 1  # the two placements are isomorphic


def test_xi_two_labels_on_two_targets():
    combo = xi_distribute(P2, (1, 2), ("x1", "x2"))
    assert combo.total_mass() == 4
    together = Multigraph(2, P2.edges, (("x1", 1), ("x2", 1)))
    split = Multigraph(2, P2.edges, (("x1", 1), ("x2", 2)))
    assert combo.class_coefficients() == {
        canonical_key(together): Fraction(2),
        canonical_key(split): Fraction(2),
    }


def test_xi_empty_label_set_is_identity():
    assert xi_distribute(TRIANGLE, (1, 2, 3), ()) == LinearCombination([(TRIANGLE, 1)])


def test_xi_rejects_duplicate_labels():
    with pytest.raises(GraphError):
        xi_distribute(P2, (1, 2), ("x1", "x1"))
    carrying = Multigraph(2, P2.edges, (("x1", 1),))
    with pytest.raises(GraphError):
        xi_distribute(carrying, (1, 2), ("x1",))


def test_xi_rejects_labels_that_do_not_continue_the_numbering():
    with pytest.raises(GraphError):
        xi_distribute(P2, (1, 2), ("x2",))
    with pytest.raises(GraphError):
        xi_distribute(P2, (1, 2), ("y1",))


def test_xi_rejects_unknown_vertices():
    for targets in ((1, 5), (0,), (True, 2), (1.0,)):
        with pytest.raises(GraphError):
            xi_distribute(P2, targets, ("x1",))


def test_operators_reject_sites_that_are_not_vertices():
    # True == 1, but it is not a vertex number
    for i in (0, 4, True, 1.0):
        for call in (
            lambda: split_vertex(TRIANGLE, i),
            lambda: split_vertex_hat(TRIANGLE, i),
            lambda: q_map(TRIANGLE, i, 1),
            lambda: q_hat_map(TRIANGLE, i, 1),
            lambda: insert_block(TRIANGLE, i, DOUBLE),
            lambda: insert_block_hat(TRIANGLE, i, DOUBLE),
            lambda: add_edge(TRIANGLE, i, 2),
            lambda: add_edge(TRIANGLE, 2, i),
        ):
            with pytest.raises(GraphError):
                call()


# ----------------------------------------------------------------------
# edge addition

def test_add_edge_examples():
    assert add_edge(P2, 1, 2) == DOUBLE
    thickened = add_edge(TRIANGLE, 1, 2)
    assert cyclomatic_number(thickened) == 2
    assert thickened.multiplicities[1, 2] == 2


def test_add_edge_iterates():
    g = P2
    for _ in range(3):
        g = add_edge(g, 1, 2)
    assert cyclomatic_number(g) == 3


def test_add_edge_rejects_loops():
    with pytest.raises(GraphError):
        add_edge(P2, 1, 1)


# ----------------------------------------------------------------------
# vertex splitting

def test_split_vertex_with_one_end_is_zero():
    assert not split_vertex(P2, 1)


def test_split_vertex_triangle():
    combo = split_vertex(TRIANGLE, 1)
    assert combo.total_mass() == 2  # 2^2 - 2 bipartitions
    assert combo.class_coefficients() == {canonical_key(path_graph(4)): Fraction(2)}


def test_split_vertex_three_ends():
    combo = split_vertex(STAR3, 1)
    assert combo.total_mass() == 6  # 2^3 - 2


def test_split_vertex_distributes_legs():
    g = Multigraph(3, TRIANGLE.edges, (("x1", 1),))
    combo = split_vertex(g, 1)
    assert combo.total_mass() == 4  # two bipartitions times two leg placements


def test_split_vertex_requires_connected_input():
    host = Multigraph(4, ((1, 2), (1, 2), (3, 4)))
    for call in (
        lambda: split_vertex(host, 1),
        lambda: split_vertex_hat(host, 1),
        lambda: q_map(host, 1, 1),
        lambda: q_hat_map(host, 1, 1),
    ):
        with pytest.raises(GraphError, match="^splitting expects a connected graph$"):
            call()


def test_split_vertex_hat_at_shared_vertex():
    combo = split_vertex_hat(TWO_TRIANGLES, 3)
    assert combo.total_mass() == 4  # each triangle must put one end on each side
    full = split_vertex(TWO_TRIANGLES, 3)
    assert full.total_mass() == 2**4 - 2


def test_split_vertex_hat_equals_split_at_non_cut_vertex():
    assert split_vertex_hat(TRIANGLE, 2) == split_vertex(TRIANGLE, 2)


def test_split_vertex_hat_zero_when_some_block_has_one_end():
    assert not split_vertex_hat(P3, 2)


# ----------------------------------------------------------------------
# split-and-join maps

def test_q_map_zero_when_split_is_zero():
    assert not q_map(P2, 1, 1)


def test_q_map_triangle_gives_four_cycle():
    combo = q_map(TRIANGLE, 1, 1)
    assert combo.class_coefficients() == {canonical_key(cycle_graph(4)): Fraction(1)}


def test_q_map_double_edge_gives_triangle():
    combo = q_map(DOUBLE, 1, 1)
    assert combo.class_coefficients() == {canonical_key(TRIANGLE): Fraction(1)}


def test_q_map_weight_includes_rho_factorial():
    combo = q_map(DOUBLE, 1, 3)  # weight 1/(2*2!) per bipartition
    assert combo.total_mass() == Fraction(2, 4)
    for _, _, rep in combo.terms():
        assert cyclomatic_number(rep) == cyclomatic_number(DOUBLE) + 3 - 1
        assert rep.n == DOUBLE.n + 1


def test_q_map_rejects_bad_rho():
    for op in (q_map, q_hat_map):
        for rho in (0, -1):
            with pytest.raises(GraphError, match="^the edge count rho must be at least 1$"):
                op(TRIANGLE, 1, rho)
        # True == 1 and 2.0 == 2, but neither is an edge count
        for rho in (True, 1.5, 2.0, "2"):
            with pytest.raises(GraphError, match="^the edge count rho must be an integer"):
                op(TRIANGLE, 1, rho)


def test_q_hat_equals_q_at_non_cut_vertex():
    assert q_hat_map(TRIANGLE, 1, 1) == q_map(TRIANGLE, 1, 1)


def test_q_hat_at_shared_vertex_yields_biconnected():
    combo = q_hat_map(TWO_TRIANGLES, 3, 1)
    assert combo.total_mass() == 2  # 4 admissible bipartitions, weight 1/2
    assert all(is_biconnected(rep) for _, _, rep in combo.terms())


def test_q_difference_avoids_biconnected_classes():
    chain = Multigraph(4, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 4)))
    assert len(block_decomposition(chain).cut_vertices) == 2
    for i in (1, 2, 3, 4):
        difference = q_map(chain, i, 1) - q_hat_map(chain, i, 1)
        assert not any(is_biconnected(rep) for _, _, rep in difference.terms())


# ----------------------------------------------------------------------
# block insertion

def test_insert_block_p2_into_p2():
    combo = insert_block(P2, 1, P2)
    assert combo.total_mass() == 2
    assert combo.class_coefficients() == {canonical_key(P3): Fraction(2)}


def test_insert_block_c4_into_two_triangles():
    combo = insert_block(TWO_TRIANGLES, 3, cycle_graph(4))
    assert combo.total_mass() == 16  # 4 choices for each of the two triangles


def test_insert_block_preserves_two_edge_connectivity():
    host = Multigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
    assert is_two_edge_connected(host)
    for i in (1, 2, 3):
        combo = insert_block(host, i, DOUBLE)
        assert all(is_two_edge_connected(rep) for _, _, rep in combo.terms())


def test_insert_block_counts_and_numbers():
    block = cycle_graph(3)
    combo = insert_block(TWO_TRIANGLES, 3, block)
    for _, _, rep in combo.terms():
        assert rep.n == TWO_TRIANGLES.n + block.n - 1
        assert cyclomatic_number(rep) == cyclomatic_number(TWO_TRIANGLES) + 1


def test_insert_block_distributes_legs_over_inserted_vertices():
    host = Multigraph(2, P2.edges, (("x1", 1),))
    combo = insert_block(host, 1, cycle_graph(3))
    assert combo.total_mass() == 3 * 3  # one host block times one leg over 3 sites


def test_insert_block_rejects_bad_blocks():
    with pytest.raises(GraphError):
        insert_block(P2, 1, P3)  # not biconnected
    carrying = Multigraph(2, P2.edges, (("x1", 1),))
    with pytest.raises(GraphError):
        insert_block(P2, 1, carrying)


def test_insert_block_rejects_disconnected_host():
    host = Multigraph(4, ((1, 2), (3, 4)))
    for op in (insert_block, insert_block_hat):
        # the host is checked before the block, here not biconnected
        with pytest.raises(GraphError, match="^insertion expects a connected host graph$"):
            op(host, 1, P3)


def test_insert_block_hat_p2():
    combo = insert_block_hat(P2, 1, P2)
    assert combo.total_mass() == 2  # one placement per inserted vertex


def test_insert_block_hat_bundles_blocks():
    combo = insert_block_hat(TWO_TRIANGLES, 3, cycle_graph(4))
    assert combo.total_mass() == 4
    for _, _, rep in combo.terms():
        decomposition = block_decomposition(rep)
        assert len(decomposition.cut_vertices) == 1
        assert len(decomposition.blocks) == 3


def test_apply_weighted_bilinear():
    half_p2 = LinearCombination([(P2, Fraction(1, 2))])
    result = apply_weighted(insert_block, half_p2, 1, half_p2)
    assert result.class_coefficients() == {canonical_key(P3): Fraction(1, 2)}


def test_apply_weighted_empty_blocks():
    assert not apply_weighted(insert_block, LinearCombination(), 1, LinearCombination([(P2, 1)]))


def test_apply_weighted_scalar_homogeneity():
    blocks = LinearCombination([(DOUBLE, Fraction(1, 4))])
    target = LinearCombination([(TRIANGLE, Fraction(1, 6))])
    once = apply_weighted(insert_block, blocks, 2, target)
    scaled = apply_weighted(insert_block, blocks * 3, 2, target)
    assert scaled == once * 3


def test_apply_weighted_rejects_leggy_blocks():
    carrying = LinearCombination([(Multigraph(2, P2.edges, (("x1", 1),)), 1)])
    with pytest.raises(GraphError):
        apply_weighted(insert_block, carrying, 1, LinearCombination([(P2, 1)]))


# ----------------------------------------------------------------------
# contraction and leg erasure

def test_contract_block_two_triangles():
    decomposition = block_decomposition(TWO_TRIANGLES)
    for index in range(len(decomposition.blocks)):
        contracted = contract_block(TWO_TRIANGLES, index)
        assert canonical_key(contracted) == canonical_key(TRIANGLE)


def test_contract_unique_block_gives_single_vertex():
    g = Multigraph(3, TRIANGLE.edges, (("x1", 1), ("x2", 2)))
    contracted = contract_block(g, 0)
    assert contracted.n == 1 and contracted.num_edges == 0
    assert contracted.legs == (("x1", 1), ("x2", 1))


def test_contract_block_path():
    contracted = contract_block(P3, 0)
    assert canonical_key(contracted) == canonical_key(P2)


def test_contract_block_inverts_insert_numbers():
    block = cycle_graph(3)
    for _, _, rep in insert_block(TRIANGLE, 1, block).terms():
        decomposition = block_decomposition(rep)
        index = next(
            i for i, b in enumerate(decomposition.blocks)
            if len(b.vertices) == 3 and rep.n in b.vertices
        )
        shrunk = contract_block(rep, index)
        assert shrunk.n == rep.n - block.n + 1
        assert cyclomatic_number(shrunk) == cyclomatic_number(rep) - 1


def test_contract_block_rejects_bad_input():
    with pytest.raises(GraphError):
        contract_block(Multigraph(1), 0)
    with pytest.raises(GraphError):
        contract_block(TRIANGLE, 5)


def test_erase_external():
    g = Multigraph(2, P2.edges, (("x1", 1), ("x2", 2)))
    assert erase_external(g) == P2
    assert erase_external(TRIANGLE) == TRIANGLE
    dressed = Multigraph(3, TRIANGLE.edges, (("x1", 1), ("x2", 2), ("x3", 3)))
    assert erase_external(dressed) == TRIANGLE


# ----------------------------------------------------------------------
# equivariance of the vertex-summed operators

def vertex_sum(op, g):
    out = LinearCombination()
    for i in range(1, g.n + 1):
        out = out + op(g, i)
    return out


def test_vertex_summed_operators_are_relabeling_invariant():
    rng = random.Random(99)
    corpus = [TRIANGLE, P3, STAR3, TWO_TRIANGLES, Multigraph(4, ((1, 2), (1, 2), (2, 3), (3, 4)))]
    for g in corpus:
        for _ in range(3):
            image = list(range(1, g.n + 1))
            rng.shuffle(image)
            other = g.relabeled(image)
            assert vertex_sum(lambda h, i: q_map(h, i, 1), g) == vertex_sum(
                lambda h, i: q_map(h, i, 1), other
            )
            assert vertex_sum(lambda h, i: insert_block(h, i, DOUBLE), g) == vertex_sum(
                lambda h, i: insert_block(h, i, DOUBLE), other
            )


# ----------------------------------------------------------------------
# operator outputs built without validation

def assert_valid_and_normal(term):
    checked = Multigraph(term.n, term.edges, term.legs)
    assert term == checked and hash(term) == hash(checked), term
    assert all(u < v for u, v in term.edges) and list(term.edges) == sorted(term.edges)
    assert [label for label, _ in term.legs] == [f"x{i}" for i in range(1, term.num_legs + 1)]


def test_trusted_operator_outputs_equal_validated_graphs():
    # biconn classes are conn classes, so these hosts cover both families
    hosts = [
        g
        for n in range(1, 6)
        for k in range(0, 6 - n)
        for s in (0, 1)
        for g in enumerate_classes("conn", n, k, s).values()
    ]
    outcomes = 0
    for g in hosts:
        new_labels = [f"x{g.num_legs + 2}", f"x{g.num_legs + 1}"]
        combos = [xi_distribute(g, range(1, g.n + 1), new_labels)]
        for i in range(1, g.n + 1):
            combos += [split_vertex(g, i), split_vertex_hat(g, i), q_map(g, i, 2), q_hat_map(g, i, 2)]
            for block in (P2, DOUBLE, TRIANGLE):
                combos += [insert_block(g, i, block), insert_block_hat(g, i, block)]
        for combo in combos:
            for outcome, _ in combo._pending:  # as built, before keying
                assert_valid_and_normal(outcome)
                outcomes += 1
    assert outcomes == 3522


# ----------------------------------------------------------------------
# orbit enumeration against the full enumeration

C4 = cycle_graph(4)
K4 = Multigraph(4, tuple((u, v) for u in range(1, 5) for v in range(u + 1, 5)))


def assert_same_terms(orbit_path, full):
    # each outcome as built is a valid graph in normal form, and the keys
    # and coefficients, in key order, are those of the full enumeration
    for outcome, _ in orbit_path._pending:
        assert_valid_and_normal(outcome)
    assert orbit_path.terms() == full.terms()


def compare_with_full_enumeration(max_order: dict[int, int]) -> int:
    """Check every operator at every vertex of every conn class with s legs
    and n+k <= max_order[s] against the full enumeration; returns the number
    of (class, vertex) sites checked."""
    sites = 0
    for s, bound in max_order.items():
        for n in range(1, bound + 1):
            for k in range(0, bound + 1 - n):
                for g in enumerate_classes("conn", n, k, s).values():
                    for i in range(1, g.n + 1):
                        assert_same_terms(split_vertex(g, i), full_split_vertex(g, i, False))
                        assert_same_terms(split_vertex_hat(g, i), full_split_vertex(g, i, True))
                        for rho in (1, 2, 3):
                            assert_same_terms(q_map(g, i, rho), full_split(g, i, rho, False))
                            assert_same_terms(q_hat_map(g, i, rho), full_split(g, i, rho, True))
                        for block in (P2, DOUBLE, TRIANGLE, C4, K4):
                            full = full_insertion(g, i, block, False)
                            assert_same_terms(insert_block(g, i, block), full)
                            full = full_insertion(g, i, block, True)
                            assert_same_terms(insert_block_hat(g, i, block), full)
                        sites += 1
    return sites


def test_orbit_enumeration_matches_full_enumeration():
    # every vertex of every leg-free conn class with n+k <= 6, which covers
    # the cut vertex of every aux class q_hat_map is applied to, and of the
    # conn classes with one leg up to n+k = 5 and two legs up to n+k = 4
    assert compare_with_full_enumeration({0: 6, 1: 5, 2: 4}) == 493


def test_orbit_enumeration_with_three_legs_matches_full_enumeration():
    # the conn classes with three legs up to n+k = 3, where up to three
    # legs share the site as positions of the walk's points
    assert compare_with_full_enumeration({3: 3}) == 59


def test_orbit_enumeration_on_symmetric_sites():
    # an automorphism fixing the shared vertex 3 swaps the two triangles
    assert (4, 5, 3, 1, 2) in automorphism_group(TWO_TRIANGLES)
    for block in (DOUBLE, TRIANGLE, C4, K4):
        full = full_insertion(TWO_TRIANGLES, 3, block, False)
        assert_same_terms(insert_block(TWO_TRIANGLES, 3, block), full)
    for rho in (1, 2):
        assert_same_terms(q_hat_map(TWO_TRIANGLES, 3, rho), full_split(TWO_TRIANGLES, 3, rho, True))
    # same, adjacent or opposite vertices of the square: 16 attachments, 3 classes
    assert len(insert_block(TWO_TRIANGLES, 3, C4)) == 3
    # vertex 1 has a neighbour of multiplicity 3 and two neighbours swapped
    # by an automorphism fixing it
    g = Multigraph(4, ((1, 2), (1, 2), (1, 2), (1, 3), (1, 4)))
    assert g.multiplicities[1, 2] == 3 and (1, 2, 4, 3) in automorphism_group(g)
    for rho in (1, 2, 3):
        assert_same_terms(q_map(g, 1, rho), full_split(g, 1, rho, False))
        assert q_map(g, 1, rho).total_mass() == Fraction(2**5 - 2, 2 * factorial(rho - 1))


def built_outcomes(monkeypatch, g, i):
    """The number of graphs each of the six operators builds at vertex i of g:
    the splits, the joined splits with two edges, and the insertions of C4
    and of K4, each plain and then hatted."""
    trusted = Multigraph._trusted
    built = []

    def counting_trusted(*parts):
        built.append(parts)
        return trusted(*parts)

    counts = []
    calls = (
        lambda: split_vertex(g, i),
        lambda: split_vertex_hat(g, i),
        lambda: q_map(g, i, 2),
        lambda: q_hat_map(g, i, 2),
        lambda: insert_block(g, i, C4),
        lambda: insert_block_hat(g, i, C4),
        lambda: insert_block(g, i, K4),
        lambda: insert_block_hat(g, i, K4),
    )
    for call in calls:
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Multigraph, "_trusted", staticmethod(counting_trusted))
            call()
        counts.append(len(built))
    return counts


def test_operators_build_one_outcome_per_orbit(monkeypatch):
    # An orbit walk whose orbits are too small keeps more points: its
    # classes and coefficients stay right, so only these counts catch it.
    # The legs at the site are positions of the walk's points, so a legged
    # site builds one outcome per orbit of (point, placement) pairs: fewer
    # than its leg-free count times the placements in every way (2 halves
    # or 4 vertices per leg).
    triple = Multigraph(4, ((1, 2), (1, 2), (1, 2), (1, 3), (1, 4)))
    counts = {
        (TWO_TRIANGLES, 3): [3, 1, 3, 1, 3, 1, 2, 1],
        (triple, 1): [5, 0, 5, 0, 7, 1, 4, 1],
        (K4, 1): [1, 1, 1, 1, 1, 1, 1, 1],
        (Multigraph(5, TWO_TRIANGLES.edges, (("x1", 3), ("x2", 3))), 3): [8, 2, 8, 2, 24, 10, 11, 5],
        (Multigraph(4, triple.edges, (("x1", 1),)), 1): [10, 0, 10, 0, 24, 3, 11, 2],
        (Multigraph(4, K4.edges, (("x1", 1), ("x2", 2))), 1): [4, 4, 4, 4, 3, 3, 2, 2],
        (Multigraph(4, STAR3.edges, (("x1", 1), ("x2", 1))), 1): [4, 0, 4, 0, 46, 10, 20, 5],
        (Multigraph(5, TWO_TRIANGLES.edges, (("x1", 3), ("x2", 3), ("x3", 3))), 3): [16, 4, 16, 4, 88, 36, 35, 15],
        (Multigraph(4, K4.edges, (("x1", 1), ("x2", 1), ("x3", 1))), 1): [8, 8, 8, 8, 36, 36, 15, 15],
    }
    for (g, i), expected in counts.items():
        assert built_outcomes(monkeypatch, g, i) == expected, (g, i)


def test_trusted_legs_sort_by_label_number():
    g = Multigraph(2, ((1, 2),), tuple((f"x{i}", 1) for i in range(1, 9)))
    for placed, _ in xi_distribute(g, [1, 2], ["x10", "x9"])._pending:
        assert_valid_and_normal(placed)


# ----------------------------------------------------------------------
# outcomes, while they wait to be keyed, share the tuples of their host

def test_outcomes_share_the_host_edges_away_from_the_site():
    hosts = [
        g
        for n in range(2, 6)
        for k in range(0, 6 - n)
        for s in (0, 1)
        for g in enumerate_classes("conn", n, k, s).values()
    ]
    shared = 0
    for g in hosts:
        own = {id(edge) for edge in g.edges}
        for i in range(1, g.n + 1):
            combos = [q_map(g, i, 1), q_map(g, i, 2)]
            combos += [insert_block(g, i, block) for block in (P2, DOUBLE, TRIANGLE)]
            for combo in combos:
                for outcome, _ in combo._pending:
                    for edge in outcome.edges:
                        if i not in edge and max(edge) <= g.n:
                            assert id(edge) in own, (g, i, outcome, edge)
                            shared += 1
    assert shared > 1000


def test_leg_placements_on_one_host_share_their_tuples():
    # xi_distribute places the legs on one graph; its placements share the
    # graph's edge tuples and each leg built for it
    for host in (P3, cycle_graph(4), multi_edge_graph(2)):
        placed = [g for g, _ in xi_distribute(host, range(1, host.n + 1), ["x1", "x2"])._pending]
        assert len(placed) == host.n**2
        legs_seen: dict = {}
        for g in placed:
            assert all(a is b for a, b in zip(g.edges, host.edges, strict=True)), g
            for leg in g.legs:
                assert legs_seen.setdefault(leg, leg) is leg, (g, leg)
        # each of the 2 n legs is built once and shared by n placements
        assert len(legs_seen) == 2 * host.n


def test_trusted_orders_reversed_pairs_and_lists():
    kept = (2, 3)
    g = Multigraph._trusted(3, [(2, 1), [3, 1], kept, [1, 2]])
    assert g.edges == ((1, 2), (1, 2), (1, 3), (2, 3))
    assert all(type(edge) is tuple for edge in g.edges)
    assert g.edges[3] is kept
    assert g == Multigraph(3, [(2, 1), [3, 1], kept, [1, 2]])
