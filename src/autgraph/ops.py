"""The elementary linear transformations on multigraphs.

Each operator acts on a single labeled graph and returns either a graph
or a linear combination of classes.  Operators that feed into further
graph surgery (vertex splitting inside the edge-joining maps) expose the
raw labeled terms internally, because aggregating into classes too early
would forget which vertex is the split one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from typing import Callable, Sequence

from .canon import LinearCombination
from .graph import (
    GraphError,
    Multigraph,
    block_decomposition,
    is_biconnected,
    is_connected,
)


# ----------------------------------------------------------------------
# ordered assignments of distinguishable items to slots

def ordered_assignments(
    item_count: int,
    slots: int,
    *,
    nonempty_parts: bool = False,
    split_groups: Sequence[Sequence[int]] | None = None,
):
    """Every admissible assignment of ``item_count`` items to ordered slots, once.

    Yields tuples giving each item's slot index.  ``nonempty_parts``
    requires every slot to receive at least one item; ``split_groups``
    requires every listed group of item positions to reach at least two
    distinct slots.
    """
    for assignment in product(range(slots), repeat=item_count):
        if nonempty_parts and len(set(assignment)) < slots:
            continue
        if split_groups is not None and any(
            len({assignment[position] for position in group}) < 2 for group in split_groups
        ):
            continue
        yield assignment


# ----------------------------------------------------------------------
# leg distribution

def xi_distribute(
    g: Multigraph,
    target_vertices: Sequence[int],
    new_labels: Sequence[str],
) -> LinearCombination:
    """Attach fresh labeled legs to the target vertices in all possible ways.

    Every assignment of each new label to one target vertex contributes a
    term with coefficient 1, so a class's coefficient counts how many of
    the len(targets)**len(labels) assignments land in it.  With no new
    labels this is the identity.
    """
    targets = [g.check_vertex(v) for v in target_vertices]
    labels = list(new_labels)
    existing = {label for label, _ in g.legs}
    if len(set(labels)) != len(labels) or existing & set(labels):
        raise GraphError("new leg labels must be distinct and not already used")
    if not labels:
        return LinearCombination([(g, 1)])
    if targets:  # one validated placement checks the new label names
        Multigraph(g.n, g.edges, g.legs + tuple((label, targets[0]) for label in labels))
    out = LinearCombination()
    for assignment in ordered_assignments(len(labels), len(targets)):
        legs = g.legs + tuple((label, targets[slot]) for label, slot in zip(labels, assignment))
        out._add(Multigraph._trusted(g.n, g.edges, legs), 1)
    return out


def _redistribute_legs(
    base_legs: tuple[tuple[str, int], ...],
    moving: Sequence[str],
    sites: Sequence[int],
):
    """All reassignments of the given labels over the given sites."""
    for assignment in ordered_assignments(len(moving), len(sites)):
        yield base_legs + tuple((label, sites[slot]) for label, slot in zip(moving, assignment))


# ----------------------------------------------------------------------
# edge addition

def add_edge(g: Multigraph, i: int, j: int) -> Multigraph:
    """Connect (or reconnect) vertices i and j with one fresh internal edge."""
    g.check_vertex(i)
    g.check_vertex(j)
    if i == j:
        raise GraphError("cannot add a loop: endpoints must differ")
    return Multigraph(g.n, g.edges + ((i, j),), g.legs)


# ----------------------------------------------------------------------
# vertex splitting

def _split_terms(
    g: Multigraph, i: int, *, per_block: bool, join: int = 0, unordered: bool = False
) -> list[Multigraph]:
    """Raw labeled outcomes of splitting vertex i into i and n+1.

    One term per (ordered bipartition of i's internal edge ends, leg
    assignment).  ``per_block`` keeps only bipartitions in which every
    block at i contributes ends to both sides.  ``join`` adds that many
    parallel edges between the two halves to every term.  ``unordered``
    keeps only the bipartitions whose first end stays on i: they come
    first, and each of the others is one of them with the halves swapped.
    """
    ends = g.incident_edges(i)
    d = len(ends)
    if d < 2:
        return []
    groups: list[list[int]] | None = None
    if per_block:
        decomposition = block_decomposition(g)
        owner = {
            eid: index
            for index, block in enumerate(decomposition.blocks)
            for eid in block.edge_ids
        }
        by_block: dict[int, list[int]] = {}
        for position, eid in enumerate(ends):
            by_block.setdefault(owner[eid], []).append(position)
        groups = list(by_block.values())
        if any(len(group) < 2 for group in groups):
            return []
    new_vertex = g.n + 1
    joining = [(i, new_vertex)] * join
    moving_legs = [label for label, v in g.legs if v == i]
    fixed_legs = tuple((label, v) for label, v in g.legs if v != i)
    out = []
    for assignment in ordered_assignments(d, 2, nonempty_parts=True, split_groups=groups):
        if unordered and assignment[0]:
            break
        moved = {ends[position] for position, slot in enumerate(assignment) if slot == 1}
        edges = list(joining)
        for eid, (u, v) in enumerate(g.edges):
            if eid in moved:
                u, v = (new_vertex, v) if u == i else (u, new_vertex)
            edges.append((u, v))
        for legs in _redistribute_legs(fixed_legs, moving_legs, (i, new_vertex)):
            out.append(Multigraph._trusted(new_vertex, edges, legs))
    return out


def split_vertex(g: Multigraph, i: int) -> LinearCombination:
    """Split vertex i over all ordered bipartitions of its internal edge ends.

    Zero if i has fewer than two internal ends.  The legs of i are then
    distributed over the two halves in all ways.  Individual terms may be
    disconnected (two components, one per half).
    """
    if not is_connected(g):
        raise GraphError("split_vertex expects a connected graph")
    g.check_vertex(i)
    return LinearCombination((term, 1) for term in _split_terms(g, i, per_block=False))


def split_vertex_hat(g: Multigraph, i: int) -> LinearCombination:
    """As split_vertex, keeping only bipartitions that cut every block at i."""
    if not is_connected(g):
        raise GraphError("split_vertex_hat expects a connected graph")
    g.check_vertex(i)
    return LinearCombination((term, 1) for term in _split_terms(g, i, per_block=True))


def _joined_split(g: Multigraph, i: int, rho: int, *, per_block: bool) -> LinearCombination:
    if rho < 1:
        raise GraphError("the edge count rho must be at least 1")
    if not is_connected(g):
        raise GraphError("expected a connected graph")
    g.check_vertex(i)
    # swapping i and n+1 maps each term onto the term of the complementary
    # bipartition, so half of them at twice the weight 1/(2 (rho-1)!) suffice
    weight = Fraction(1, factorial(rho - 1))
    out = LinearCombination()
    for term in _split_terms(g, i, per_block=per_block, join=rho, unordered=True):
        out._add(term, weight)
    return out


def q_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """Split vertex i, then join the two halves with rho fresh parallel edges.

    Carries the prefactor 1/(2 (rho-1)!); raises the cyclomatic number by
    rho - 1 and the vertex count by 1.  Outputs are always connected.
    """
    return _joined_split(g, i, rho, per_block=False)


def q_hat_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """As q_map but only over bipartitions that cut every block at i."""
    return _joined_split(g, i, rho, per_block=True)


# ----------------------------------------------------------------------
# block insertion

def _insert_terms(
    g: Multigraph,
    i: int,
    block: Multigraph,
    *,
    bundle: bool,
) -> list[Multigraph]:
    """Raw outcomes of replacing vertex i of g with a copy of ``block``.

    The copy's first vertex takes index i; its remaining vertices get the
    fresh indices n+1..n+n'-1.  Each block of g at i is reattached, ends
    at i moving as a unit, to one inserted vertex; ``bundle`` restricts to
    the assignments placing all of them on a single inserted vertex.  The
    legs of i are distributed over all inserted vertices either way.
    """
    g.check_vertex(i)
    try:
        decomposition = block_decomposition(g)
    except GraphError:
        raise GraphError("insertion expects a connected host graph") from None
    if block.num_legs:
        raise GraphError("inserted blocks must not carry external legs")
    if not is_biconnected(block):
        raise GraphError("inserted blocks must be biconnected")
    host_blocks = decomposition.blocks_at[i]
    sites = [i] + [g.n + offset for offset in range(1, block.n)]
    inserted_edges = tuple((sites[u - 1], sites[v - 1]) for u, v in block.edges)
    owner = {
        eid: index
        for index, host_block in enumerate(decomposition.blocks)
        for eid in host_block.edge_ids
    }
    moving_legs = [label for label, v in g.legs if v == i]
    fixed_legs = tuple((label, v) for label, v in g.legs if v != i)
    if bundle:
        assignments = [(position,) * len(host_blocks) for position in range(block.n)]
        if not host_blocks:
            assignments = [()]
    else:
        assignments = list(ordered_assignments(len(host_blocks), block.n))
    out = []
    for assignment in assignments:
        position_of = dict(zip(host_blocks, assignment))
        edges = []
        for eid, (u, v) in enumerate(g.edges):
            if u == i or v == i:
                site = sites[position_of[owner[eid]]]
                u, v = (site, v) if u == i else (u, site)
            edges.append((u, v))
        edges.extend(inserted_edges)
        for legs in _redistribute_legs(fixed_legs, moving_legs, sites):
            out.append(Multigraph._trusted(g.n + block.n - 1, edges, legs))
    return out


def insert_block(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """Replace vertex i by a copy of ``block``, distributing the blocks of g
    at i over the inserted vertices in all n'**|blocks at i| ways."""
    return LinearCombination((term, 1) for term in _insert_terms(g, i, block, bundle=False))


def insert_block_hat(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """As insert_block, but all blocks of g at i land on one inserted vertex."""
    return LinearCombination((term, 1) for term in _insert_terms(g, i, block, bundle=True))


def apply_weighted(
    op: Callable[[Multigraph, int, Multigraph], LinearCombination],
    combo_blocks: LinearCombination,
    i: int,
    target: LinearCombination,
) -> LinearCombination:
    """Bilinear extension of a block-insertion operator.

    Sums op(target_rep, i, block_rep) over all pairs of terms, weighted by
    the product of the two coefficients.  The block combination must be
    supported on biconnected, leg-free classes.
    """
    for _, _, block_rep in combo_blocks.terms():
        if block_rep.num_legs or not is_biconnected(block_rep):
            raise GraphError("block combinations must hold biconnected leg-free classes")
    out = LinearCombination()
    for _, block_coeff, block_rep in combo_blocks.terms():
        for _, target_coeff, target_rep in target.terms():
            out._merge(op(target_rep, i, block_rep), block_coeff * target_coeff)
    return out


# ----------------------------------------------------------------------
# block contraction and leg erasure

def contract_block(g: Multigraph, block_index: int) -> Multigraph:
    """Contract one biconnected component to its lowest-indexed vertex.

    The block's internal edges vanish; edges and legs of the merged
    vertices reattach to the surviving vertex; vertex indices recompact to
    1..n-n'+1 preserving order.  Drops the cyclomatic number by the
    block's own cyclomatic number.
    """
    if g.n < 2:
        raise GraphError("contraction needs at least two vertices")
    decomposition = block_decomposition(g)
    if not 0 <= block_index < len(decomposition.blocks):
        raise GraphError(f"no block with index {block_index}")
    chosen = decomposition.blocks[block_index]
    keep = min(chosen.vertices)
    removed = set(chosen.vertices) - {keep}
    remaining = [v for v in range(1, g.n + 1) if v not in removed]
    rank = {v: index + 1 for index, v in enumerate(remaining)}

    def image(v: int) -> int:
        return rank[keep] if v in chosen.vertices else rank[v]

    edges = tuple(
        (image(u), image(v))
        for eid, (u, v) in enumerate(g.edges)
        if eid not in chosen.edge_ids
    )
    legs = tuple((label, image(v)) for label, v in g.legs)
    return Multigraph(g.n - len(chosen.vertices) + 1, edges, legs)


def erase_external(g: Multigraph) -> Multigraph:
    """The same graph with every external leg removed."""
    return Multigraph(g.n, g.edges, ())
