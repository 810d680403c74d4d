"""The elementary linear transformations on multigraphs.

Each operator acts on a single labeled graph and returns either a graph
or a linear combination of classes.  Operators that feed into further
graph surgery (vertex splitting inside the edge-joining maps) expose the
raw labeled terms internally, because aggregating into classes too early
would forget which vertex is the split one.

On a leg-free graph, ``q_map``, ``q_hat_map``, ``insert_block`` and
``insert_block_hat`` build one outcome per orbit of the symmetries that
fix their site (``_split_orbits``, ``_insert_orbits``), weighted by the
orbit's size.  Outcomes in one orbit are isomorphic, so the classes and
coefficients are those of the full enumeration (``_split_terms``,
``_insert_terms``), which graphs with legs still go through.  The
outcome kept is the first of its orbit in the full enumeration's order,
and the kept ones are added in that order, so each class also keeps the
representative it is first seen with there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Sequence

from .canon import LinearCombination, automorphism_group
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
# helpers shared by the full enumeration and the orbit enumeration

def _rewired(g: Multigraph, i: int, site_of: Mapping[int, int]) -> list[tuple[int, int]]:
    """g's edges, with the end at i of each edge id in ``site_of`` moved to its site."""
    edges = []
    for eid, (u, v) in enumerate(g.edges):
        site = site_of.get(eid)
        if site is not None:
            u, v = (site, v) if u == i else (u, site)
        edges.append((u, v))
    return edges


def _stabilizer(g: Multigraph, i: int) -> list[tuple[int, ...]]:
    """The automorphisms of g fixing vertex i."""
    return [sigma for sigma in automorphism_group(g) if sigma[i - 1] == i]


def _least_of_orbits(
    points: Iterable[tuple[int, ...]], orbit: Callable[[tuple[int, ...]], set]
) -> list[tuple[tuple[int, ...], int]]:
    """(point, orbit size) for each point of ``points`` that is first in its orbit.

    ``points`` runs through a union of orbits in increasing order and
    ``orbit`` gives the set of a point's images, so each kept point is
    the least of its orbit, and the kept points keep their order.
    """
    seen: set = set()
    out = []
    for point in points:
        if point not in seen:
            images = orbit(point)
            seen |= images
            out.append((point, len(images)))
    return out


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
        moved = {ends[position]: new_vertex for position, slot in enumerate(assignment) if slot}
        edges = joining + _rewired(g, i, moved)
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


def _split_orbits(g: Multigraph, i: int, rho: int, *, per_block: bool) -> LinearCombination:
    """The joined split of leg-free g at i, one outcome per orbit of its symmetries.

    An outcome depends only on the count vector c giving, for each
    neighbour w of i, how many of the m_w edges to w move to the new
    vertex n+1; it stands for prod C(m_w, c_w) of the ordered
    bipartitions, each of weight 1/(2 (rho-1)!).  The automorphisms of g
    fixing i permute the neighbours, and swapping the halves maps c to
    m - c; both give isomorphic outcomes.  The count vectors in
    lexicographic order are the outcomes of ``_split_terms`` in order of
    first occurrence, so the least c of each orbit, at the orbit's size,
    is added in that order.
    """
    ends_to: dict[int, list[int]] = {}
    for eid in g.incident_edges(i):
        ends_to.setdefault(g.other_end(eid, i), []).append(eid)
    neighbours = sorted(ends_to)
    ends = [ends_to[w] for w in neighbours]
    mults = [len(group) for group in ends]
    # c = 0 comes first and c = m last; they are the splits with an empty half
    counts = list(product(*(range(m + 1) for m in mults)))[1:-1]
    if per_block:
        # both halves must get ends of every block at i
        decomposition = block_decomposition(g)
        cuts = []
        for b in decomposition.blocks_at[i]:
            vertices = decomposition.blocks[b].vertices
            positions = [p for p, w in enumerate(neighbours) if w in vertices]
            cuts.append((positions, sum(mults[p] for p in positions)))
        counts = [
            c
            for c in counts
            if all(0 < sum([c[p] for p in positions]) < size for positions, size in cuts)
        ]
    index = {w: position for position, w in enumerate(neighbours)}
    moves = {tuple([index[sigma[w - 1]] for w in neighbours]) for sigma in _stabilizer(g, i)}

    def orbit(c: tuple[int, ...]) -> set:
        images = {tuple([c[position] for position in move]) for move in moves}
        return images | {tuple([m - x for m, x in zip(mults, image)]) for image in images}

    new_vertex = g.n + 1
    joining = [(i, new_vertex)] * rho
    denominator = 2 * factorial(rho - 1)
    out = LinearCombination()
    for c, size in _least_of_orbits(counts, orbit):
        moved = {eid: new_vertex for group, x in zip(ends, c) for eid in group[len(group) - x :]}
        weight = size
        for m, x in zip(mults, c):
            weight *= comb(m, x)
        term = Multigraph._trusted(new_vertex, joining + _rewired(g, i, moved))
        out._add(term, Fraction(weight, denominator))
    return out


def _joined_split(g: Multigraph, i: int, rho: int, *, per_block: bool) -> LinearCombination:
    if rho < 1:
        raise GraphError("the edge count rho must be at least 1")
    if not is_connected(g):
        raise GraphError("expected a connected graph")
    g.check_vertex(i)
    if not g.num_legs:
        return _split_orbits(g, i, rho, per_block=per_block)
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
    rho - 1 and the vertex count by 1.  Outputs are always connected.  A
    leg-free g gets one outcome per orbit of the symmetries of the split
    (``_split_orbits``); a g with legs gets every split (``_split_terms``).
    """
    return _joined_split(g, i, rho, per_block=False)


def q_hat_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """As q_map but only over bipartitions that cut every block at i.

    Leg-free and legged g are enumerated as in q_map.
    """
    return _joined_split(g, i, rho, per_block=True)


# ----------------------------------------------------------------------
# block insertion

def _insertion_layout(g: Multigraph, i: int, block: Multigraph):
    """Check an insertion of ``block`` at vertex i of g and lay it out.

    The copy of the block's vertex p is placed at sites[p-1]: i, then the
    fresh n+1..n+n'-1.  Returns the vertex sets of g's blocks at i, the
    sites, and a function giving the outcome's edges for an attachment
    (the position in the block given to each block at i, in order).
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
    host_blocks = [decomposition.blocks[index] for index in decomposition.blocks_at[i]]
    place_of = {
        eid: place
        for place, host_block in enumerate(host_blocks)
        for eid in host_block.edge_ids
        if i in g.edges[eid]
    }
    sites = [i] + [g.n + offset for offset in range(1, block.n)]
    inserted_edges = [(sites[u - 1], sites[v - 1]) for u, v in block.edges]

    def edges_for(attachment: tuple[int, ...]) -> list[tuple[int, int]]:
        site_of = {eid: sites[attachment[place]] for eid, place in place_of.items()}
        return _rewired(g, i, site_of) + inserted_edges

    return [host_block.vertices for host_block in host_blocks], sites, edges_for


def _attachments(host_count: int, positions: int, bundle: bool) -> list[tuple[int, ...]]:
    """The attachments of ``host_count`` host blocks, in lexicographic order."""
    if bundle:
        if not host_count:
            return [()]
        return [(position,) * host_count for position in range(positions)]
    return list(ordered_assignments(host_count, positions))


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
    host_vertices, sites, edges_for = _insertion_layout(g, i, block)
    moving_legs = [label for label, v in g.legs if v == i]
    fixed_legs = tuple((label, v) for label, v in g.legs if v != i)
    out = []
    for attachment in _attachments(len(host_vertices), block.n, bundle):
        edges = edges_for(attachment)
        for legs in _redistribute_legs(fixed_legs, moving_legs, sites):
            out.append(Multigraph._trusted(g.n + block.n - 1, edges, legs))
    return out


def _insert_orbits(g: Multigraph, i: int, block: Multigraph, *, bundle: bool) -> LinearCombination:
    """The insertion into leg-free g at i, one outcome per orbit of its symmetries.

    The automorphisms of g fixing i permute the host blocks at i, and
    those of the inserted block permute its positions; either maps an
    attachment onto one with an isomorphic outcome.  The lexicographically
    least attachment of each orbit, the first of its orbit in
    ``_insert_terms``, is added at the orbit's size, in that order.  With
    ``bundle`` this is one attachment per vertex orbit of the block.
    """
    host_vertices, _, edges_for = _insertion_layout(g, i, block)
    place = {vertices: place for place, vertices in enumerate(host_vertices)}
    moves = {
        tuple(place[frozenset(sigma[v - 1] for v in vertices)] for vertices in host_vertices)
        for sigma in _stabilizer(g, i)
    }
    block_moves = [tuple(image - 1 for image in sigma) for sigma in automorphism_group(block)]

    def orbit(attachment: tuple[int, ...]) -> set:
        return {tuple([pi[attachment[p]] for p in move]) for move in moves for pi in block_moves}

    attachments = _attachments(len(host_vertices), block.n, bundle)
    out = LinearCombination()
    for attachment, size in _least_of_orbits(attachments, orbit):
        out._add(Multigraph._trusted(g.n + block.n - 1, edges_for(attachment)), size)
    return out


def _insertion(g: Multigraph, i: int, block: Multigraph, *, bundle: bool) -> LinearCombination:
    if not g.num_legs:
        return _insert_orbits(g, i, block, bundle=bundle)
    return LinearCombination((term, 1) for term in _insert_terms(g, i, block, bundle=bundle))


def insert_block(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """Replace vertex i by a copy of ``block``, distributing the blocks of g
    at i over the inserted vertices in all n'**|blocks at i| ways.

    A leg-free g gets one outcome per orbit of the symmetries of the
    insertion (``_insert_orbits``); a g with legs gets every assignment
    and leg placement (``_insert_terms``).
    """
    return _insertion(g, i, block, bundle=False)


def insert_block_hat(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """As insert_block, but all blocks of g at i land on one inserted vertex.

    Leg-free and legged g are enumerated as in insert_block.
    """
    return _insertion(g, i, block, bundle=True)


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
