"""The multigraph data model and its structural queries."""

import json
import pickle
from itertools import combinations, combinations_with_replacement

import pytest

from autgraph import (
    GraphError,
    Multigraph,
    aut_order,
    block_decomposition,
    connected_components,
    cycle_graph,
    cyclomatic_number,
    enumerate_classes,
    is_biconnected,
    is_connected,
    is_two_edge_connected,
    multi_edge_graph,
    path_graph,
)

TRIANGLE = cycle_graph(3)
DOUBLE_EDGE = multi_edge_graph(2)
P2 = path_graph(2)
P3 = path_graph(3)
TWO_TRIANGLES = Multigraph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)))
TWO_PAIRS = Multigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3)))


def small_connected_corpus(max_n=5, max_m=5):
    """All connected multigraphs with n <= max_n and m <= max_m (no legs)."""
    graphs = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for m in range(0, max_m + 1):
            if m == 0 and n > 1:
                continue
            for chosen in combinations_with_replacement(pairs, m):
                g = Multigraph(n, chosen)
                if is_connected(g):
                    graphs.append(g)
    return graphs


def removal_disconnects(g, v):
    """Oracle: does deleting vertex v (with its edges) disconnect the rest?"""
    rest = [w for w in range(1, g.n + 1) if w != v]
    if len(rest) <= 1:
        return False
    rank = {w: i + 1 for i, w in enumerate(rest)}
    edges = [(rank[a], rank[b]) for a, b in g.edges if v not in (a, b)]
    return not is_connected(Multigraph(len(rest), edges))


def bridge_oracle(g):
    """Oracle: ids of edges whose removal disconnects the graph."""
    bridges = []
    for eid in range(g.num_edges):
        edges = [pair for j, pair in enumerate(g.edges) if j != eid]
        if not is_connected(Multigraph(g.n, edges)):
            bridges.append(eid)
    return bridges


# ----------------------------------------------------------------------
# construction and validation

def test_constructor_normalizes_edges_and_legs():
    g = Multigraph(3, ((3, 1), (2, 1)), (("x2", 3), ("x1", 1)))
    assert g.edges == ((1, 2), (1, 3))
    assert g.legs == (("x1", 1), ("x2", 3))


def test_constructor_rejects_loops():
    with pytest.raises(GraphError):
        Multigraph(2, ((1, 1),))


def test_constructor_rejects_out_of_range_vertices():
    with pytest.raises(GraphError):
        Multigraph(2, ((1, 3),))
    with pytest.raises(GraphError):
        Multigraph(2, (), (("x1", 5),))
    # bools are not vertex numbers, though True == 1
    with pytest.raises(GraphError):
        Multigraph(3, ((True, 2), (2, 3)))
    with pytest.raises(GraphError):
        Multigraph(3, ((1, 2), (2, 3)), (("x1", True),))
    with pytest.raises(GraphError):
        Multigraph(True, ())
    # records that are not pairs
    for edges, legs in ((((1, 2, 3),), ()), ((5,), ()), (((1,),), ()), ((), (("x1",),)), ((), (7,))):
        with pytest.raises(GraphError):
            Multigraph(3, edges, legs)
    # vertex queries check their vertex as the constructor does
    for v in (0, 4, True, 1.0):
        with pytest.raises(GraphError):
            cycle_graph(3).degree(v)


@pytest.mark.parametrize(
    "label", ["x\u0661", "x\uff11", "x\u00b2"], ids=["arabic-indic", "fullwidth", "superscript"]
)
def test_leg_labels_take_only_ascii_digits(label):
    # str.isdigit accepts all three; the first two then failed in canonical_key
    # with UnicodeEncodeError, the third in the constructor with int()'s ValueError
    message = "leg labels must look like 'x1', 'x2', ..."
    with pytest.raises(GraphError, match=message):
        Multigraph(2, [(1, 2)], [(label, 1)])
    with pytest.raises(GraphError, match=message):
        Multigraph.from_json_dict({"n": 2, "edges": [[1, 2]], "external": [{"label": label, "vertex": 1}]})


def test_constructor_rejects_bad_label_sets():
    with pytest.raises(GraphError):
        Multigraph(2, (), (("x1", 1), ("x1", 2)))  # repeated label
    with pytest.raises(GraphError):
        Multigraph(2, (), (("x2", 1),))  # gap: x1 missing
    with pytest.raises(GraphError):
        Multigraph(2, (), (("y1", 1),))


def test_equality_ignores_input_order():
    a = Multigraph(3, ((1, 2), (2, 3), (1, 2)))
    b = Multigraph(3, ((2, 1), (1, 2), (3, 2)))
    assert a == b and hash(a) == hash(b)


def test_graph_is_a_frozen_value():
    g = Multigraph(3, ((2, 1), (3, 2)), (("x1", 2),))
    assert repr(g) == "Multigraph(n=3, edges=((1, 2), (2, 3)), legs=(('x1', 2),))"
    assert hash(g) == hash((3, ((1, 2), (2, 3)), (("x1", 2),)))
    assert g == (3, g.edges, g.legs)  # a NamedTuple, as the other value types are
    for name in ("n", "edges", "legs", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert (g.n, g.edges, g.legs) == (3, ((1, 2), (2, 3)), (("x1", 2),))
    assert Multigraph(n=2, edges=((1, 2),)) == Multigraph(2, ((2, 1),))


def test_incidence_and_degrees():
    g = TWO_PAIRS
    assert g.degree(2) == 4
    assert g.degree(1) == 2
    assert g.multiplicities[1, 2] == 2
    assert (1, 3) not in g.multiplicities
    assert g.other_end(0, 1) == 2


def test_pickle_keeps_fields_and_drops_cached_properties():
    g = Multigraph(3, ((1, 2), (1, 2), (2, 3)), tuple((f"x{i}", 1 + i % 3) for i in range(1, 11)))
    g.degree(2), g.multiplicities  # fill the cached properties
    data = pickle.dumps(g)
    copy = pickle.loads(data)
    assert copy == g and hash(copy) == hash(g) and copy.legs == g.legs
    assert b"_incidence" not in data and b"multiplicities" not in data
    assert copy._fields == ("n", "edges", "legs") and not hasattr(copy, "__dict__")
    assert copy.degree(2) == 3


def test_graphs_hold_only_their_fields():
    """No query leaves state on a graph: it is a tuple of its three fields
    with no instance ``__dict__``, also after a pickle round trip."""
    g = Multigraph(4, ((3, 4), (2, 1), (2, 3), (1, 2), (1, 3)), (("x1", 2),))
    assert g._fields == ("n", "edges", "legs") and not hasattr(g, "__dict__")
    assert g.edges == ((1, 2), (1, 2), (1, 3), (2, 3), (3, 4))
    incident = {v: g.incident_edges(v) for v in range(1, 5)}
    assert incident == {1: (0, 1, 2), 2: (0, 1, 3), 3: (2, 3, 4), 4: (4,)}
    assert [g.degree(v) for v in range(1, 5)] == [3, 3, 3, 1]
    assert dict(g.multiplicities) == {(1, 2): 2, (1, 3): 1, (2, 3): 1, (3, 4): 1}
    assert len(block_decomposition(g).blocks) == 2
    assert aut_order(g) == 2  # the parallel pair; the leg at 2 fixes every vertex
    assert tuple(g) == (4, g.edges, g.legs) and not hasattr(g, "__dict__")
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and type(copy) is Multigraph and not hasattr(copy, "__dict__")
    assert copy.incident_edges(3) == (2, 3, 4)


def test_replace_make_and_unpickling_check_their_input():
    g = Multigraph(3, ((2, 1), (3, 2)), (("x1", 2),))
    assert g._replace(edges=((3, 1),)) == Multigraph(3, ((1, 3),), (("x1", 2),))
    assert Multigraph._make((2, [(2, 1)], ())) == Multigraph(2, ((1, 2),))
    with pytest.raises(GraphError, match="vertex count must be positive"):
        g._replace(n=0)
    with pytest.raises(GraphError, match="vertex count must be positive"):
        Multigraph._make((0, (), ()))
    with pytest.raises(GraphError, match="vertex 3 is not in 1..2"):
        g._replace(n=2)
    # a graph that skipped the checks pickles as its fields, and loading them
    # goes through the checking constructor
    data = pickle.dumps(tuple.__new__(Multigraph, (0, (), ())))
    with pytest.raises(GraphError, match="vertex count must be positive"):
        pickle.loads(data)


def test_legs_at():
    g = Multigraph(2, ((1, 2),), (("x1", 1), ("x2", 1), ("x3", 2)))
    assert g.legs_at(1) == ("x1", "x2")
    assert g.legs_at(2) == ("x3",)


def test_relabeled_is_permutation_only():
    with pytest.raises(GraphError):
        TRIANGLE.relabeled([1, 1, 2])
    g = P3.relabeled([3, 1, 2])
    assert g.edges == ((1, 2), (1, 3))


# ----------------------------------------------------------------------
# cyclomatic number

def test_cyclomatic_examples():
    assert cyclomatic_number(P2) == 0
    assert cyclomatic_number(TRIANGLE) == 1  # m - n + c = 3 - 3 + 1
    assert cyclomatic_number(DOUBLE_EDGE) == 1


def test_cyclomatic_counts_components():
    two_edges_apart = Multigraph(4, ((1, 2), (3, 4)))
    assert cyclomatic_number(two_edges_apart) == 2 - 4 + 2


def test_cyclomatic_equals_m_minus_n_plus_1_when_connected():
    for g in small_connected_corpus(4, 4):
        assert cyclomatic_number(g) == g.num_edges - g.n + 1


# ----------------------------------------------------------------------
# connectivity

def test_is_connected_examples():
    assert is_connected(TRIANGLE)
    assert not is_connected(Multigraph(4, ((1, 2), (3, 4))))
    assert is_connected(Multigraph(1))


def test_connected_components_partition_vertices():
    g = Multigraph(5, ((1, 2), (4, 5)))
    components = connected_components(g)
    assert sorted(map(sorted, components)) == [[1, 2], [3], [4, 5]]


# ----------------------------------------------------------------------
# blocks and cut vertices

def test_block_decomposition_two_triangles():
    decomposition = block_decomposition(TWO_TRIANGLES)
    assert len(decomposition.blocks) == 2
    assert decomposition.cut_vertices == frozenset({3})
    assert sorted(sorted(b.vertices) for b in decomposition.blocks) == [[1, 2, 3], [3, 4, 5]]


def test_block_decomposition_triangle():
    decomposition = block_decomposition(TRIANGLE)
    assert len(decomposition.blocks) == 1
    assert decomposition.cut_vertices == frozenset()


def test_block_decomposition_path():
    decomposition = block_decomposition(P3)
    assert len(decomposition.blocks) == 2
    assert all(len(b.edge_ids) == 1 for b in decomposition.blocks)
    assert decomposition.cut_vertices == frozenset({2})


def test_block_decomposition_rejects_disconnected():
    # vertex 1 in a component, isolated, and without any edge
    for g in (Multigraph(4, ((1, 2), (3, 4))), Multigraph(3, ((2, 3),)), Multigraph(2)):
        with pytest.raises(GraphError, match="^block decomposition is defined for connected graphs$"):
            block_decomposition(g)


def test_kept_block_decompositions_are_read_only():
    decomposition = block_decomposition(TWO_TRIANGLES)
    assert block_decomposition(Multigraph(5, TWO_TRIANGLES.edges)) is decomposition
    with pytest.raises(TypeError):
        decomposition.blocks_at[3] = ()
    assert len(block_decomposition(TWO_TRIANGLES).blocks_at[3]) == 2


def test_parallel_pair_is_one_block():
    decomposition = block_decomposition(TWO_PAIRS)
    assert len(decomposition.blocks) == 2
    assert all(len(b.edge_ids) == 2 for b in decomposition.blocks)
    assert decomposition.cut_vertices == frozenset({2})


def test_blocks_partition_edges_and_cover_vertices():
    for g in small_connected_corpus(5, 5):
        if g.n == 1:
            continue
        decomposition = block_decomposition(g)
        edge_ids = [eid for b in decomposition.blocks for eid in b.edge_ids]
        assert sorted(edge_ids) == list(range(g.num_edges))
        covered = set().union(*(b.vertices for b in decomposition.blocks))
        assert covered == set(range(1, g.n + 1))


def test_cut_vertices_match_removal_oracle():
    for g in small_connected_corpus(5, 5):
        if g.n == 1:
            continue
        cut = block_decomposition(g).cut_vertices
        for v in range(1, g.n + 1):
            assert (v in cut) == removal_disconnects(g, v)


def test_blocks_at_counts_cut_membership():
    for g in small_connected_corpus(5, 4):
        if g.n == 1:
            continue
        decomposition = block_decomposition(g)
        for v in range(1, g.n + 1):
            assert (len(decomposition.blocks_at[v]) >= 2) == (v in decomposition.cut_vertices)


def recursive_block_edge_sets(g):
    """Reference: the recursive lowpoint search, blocks in emission order."""
    disc, low, stack, blocks = {}, {}, [], []
    clock = iter(range(g.n + g.num_edges + 1))

    def visit(u, via):
        disc[u] = low[u] = next(clock)
        for eid in g.incident_edges(u):
            if eid == via:
                continue
            w = g.other_end(eid, u)
            if w not in disc:
                stack.append(eid)
                visit(w, eid)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    edges = []
                    while True:
                        edges.append(stack.pop())
                        if edges[-1] == eid:
                            break
                    blocks.append(frozenset(edges))
            elif disc[w] < disc[u]:
                stack.append(eid)
                low[u] = min(low[u], disc[w])

    if g.num_edges:
        visit(1, None)
    return blocks


def test_block_order_matches_recursive_search():
    # the order of blocks and of blocks_at[v] fixes the order of raw
    # operator terms
    graphs = list(small_connected_corpus(5, 5))
    for n in range(2, 7):
        for k in range(0, 7 - n):
            graphs.extend(enumerate_classes("conn", n, k).values())
    for g in graphs:
        decomposition = block_decomposition(g)
        expected = recursive_block_edge_sets(g)
        assert [block.edge_ids for block in decomposition.blocks] == expected
        for v in range(1, g.n + 1):
            assert decomposition.blocks_at[v] == tuple(
                index for index, edges in enumerate(expected)
                if any(v in g.edges[eid] for eid in edges)
            )


def test_block_decomposition_of_a_long_path():
    decomposition = block_decomposition(path_graph(5000))
    assert len(decomposition.blocks) == 4999
    assert decomposition.cut_vertices == frozenset(range(2, 5000))
    assert all(len(block.edge_ids) == 1 for block in decomposition.blocks)


def test_block_decomposition_of_a_long_chain_of_parallel_pairs():
    length = 3000
    chain = Multigraph(length + 1, tuple((v, v + 1) for v in range(1, length + 1) for _ in range(2)))
    decomposition = block_decomposition(chain)
    assert len(decomposition.blocks) == length
    assert decomposition.cut_vertices == frozenset(range(2, length + 1))
    assert all(len(block.edge_ids) == 2 for block in decomposition.blocks)
    assert is_two_edge_connected(chain)
    assert not is_biconnected(chain)


# ----------------------------------------------------------------------
# biconnected / 2-edge-connected predicates

def test_is_biconnected_examples():
    assert is_biconnected(DOUBLE_EDGE)
    assert is_biconnected(P2)
    assert not is_biconnected(P3)
    assert not is_biconnected(TWO_TRIANGLES)
    # disconnected: two parallel pairs, and two vertices with no edge
    assert not is_biconnected(Multigraph(4, ((1, 2), (1, 2), (3, 4), (3, 4))))
    assert not is_biconnected(Multigraph(2))


def test_is_two_edge_connected_examples():
    assert is_two_edge_connected(TWO_PAIRS)
    assert not is_two_edge_connected(P3)
    assert is_two_edge_connected(TRIANGLE)
    # disconnected: two parallel pairs, and two vertices with no edge
    assert not is_two_edge_connected(Multigraph(4, ((1, 2), (1, 2), (3, 4), (3, 4))))
    assert not is_two_edge_connected(Multigraph(2))


def test_two_edge_matches_bridge_oracle():
    for g in small_connected_corpus(5, 5):
        if g.n == 1:
            continue
        assert is_two_edge_connected(g) == (not bridge_oracle(g))


def test_predicate_implication_chain():
    # the 2-vertex single-edge graph is the lone exception: it counts as
    # biconnected (vertex removal leaves a single vertex) yet its edge is
    # a bridge, so it is not 2-edge-connected
    for g in small_connected_corpus(5, 5):
        if is_biconnected(g) and not (g.n == 2 and g.num_edges == 1):
            assert is_two_edge_connected(g)
        if is_two_edge_connected(g):
            assert is_connected(g)


def test_single_vertex_conventions():
    g = Multigraph(1)
    assert is_connected(g)
    assert not is_biconnected(g)
    assert not is_two_edge_connected(g)
    assert block_decomposition(g).blocks == ()


# ----------------------------------------------------------------------
# JSON interface

def test_json_round_trip():
    g = Multigraph(3, ((1, 2), (1, 2), (2, 3)), (("x1", 1),))
    data = g.to_json_dict()
    assert data == {
        "n": 3,
        "edges": [[1, 2], [1, 2], [2, 3]],
        "external": [{"label": "x1", "vertex": 1}],
    }
    assert Multigraph.from_json_dict(json.loads(json.dumps(data))) == g


def test_json_rejects_loops_and_duplicate_labels():
    with pytest.raises(GraphError):
        Multigraph.from_json_dict({"n": 2, "edges": [[1, 1]], "external": []})
    with pytest.raises(GraphError):
        Multigraph.from_json_dict(
            {
                "n": 2,
                "edges": [[1, 2]],
                "external": [
                    {"label": "x1", "vertex": 1},
                    {"label": "x1", "vertex": 2},
                ],
            }
        )


def test_json_rejects_malformed_records():
    with pytest.raises(GraphError):
        Multigraph.from_json_dict({"edges": [[1, 2]]})
    with pytest.raises(GraphError):
        Multigraph.from_json_dict({"n": 2, "edges": [[1]], "external": []})
    # numbers are checked as they are, not rounded or converted to int
    for edge in ([1.9, 2], [1.0, 2], ["1", 2], [True, 2]):
        with pytest.raises(GraphError):
            Multigraph.from_json_dict({"n": 2, "edges": [edge]})
    for vertex in (1.0, "1", True):
        with pytest.raises(GraphError):
            Multigraph.from_json_dict({"n": 2, "external": [{"label": "x1", "vertex": vertex}]})


# ----------------------------------------------------------------------
# factories

def test_factories():
    assert path_graph(4).edges == ((1, 2), (2, 3), (3, 4))
    assert cycle_graph(2) == DOUBLE_EDGE
    assert cycle_graph(4).num_edges == 4
    assert multi_edge_graph(3).edges == ((1, 2), (1, 2), (1, 2))
    with pytest.raises(GraphError):
        cycle_graph(1)
    with pytest.raises(GraphError):
        multi_edge_graph(0)
