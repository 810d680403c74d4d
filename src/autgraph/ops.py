"""The elementary linear transformations on multigraphs.

Each operator acts on a single labeled graph and returns either a graph
or a linear combination of classes.

The splits (``split_vertex``, ``split_vertex_hat``, ``q_map``,
``q_hat_map``) and the insertions (``insert_block``,
``insert_block_hat``) build one outcome per orbit of the symmetries at
their site through one walk, ``_orbit_outcomes``, whose docstring gives
the argument; they differ only in their layout (``_split``,
``_insert``).  The tests keep the full labelled enumeration as a
reference.

The engine never passes legs: it places them on its leg-free values at
the end.  The operators still take graphs with legs, because they are
the paper's operators, which act on graphs with external legs;
``verify.verify_lemmas`` checks their term counts with legs; and
``xi_distribute`` produces legged graphs for them to act on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, prod
from typing import Callable, Mapping, Sequence

from .canon import LinearCombination, automorphism_group, least_of_orbits, place_legs
from .graph import (
    BlockDecomposition,
    GraphError,
    Multigraph,
    _check_integer,
    block_decomposition,
    is_biconnected,
)


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
    # one validated placement checks that the new labels continue x1..xs
    Multigraph(g.n, g.edges, g.legs + tuple((label, 1) for label in labels))
    out = LinearCombination()
    place_legs(out, g.n, g.edges, g.legs, labels, targets, [range(1, len(targets) + 1)], 1)
    return out


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
# the orbit walk shared by the splits and the insertions

def _rewired(g: Multigraph, i: int, site_of: Mapping[int, int]) -> list[tuple[int, int]]:
    """g's edges, with the end at i of each edge id in ``site_of`` moved to its site.

    Each edge that does not move, its site being i or none, is g's own
    tuple, so the outcomes share it with g; a moved edge is a new ordered
    tuple."""
    edges = list(g.edges)
    for eid, site in site_of.items():
        if site != i:
            u, v = edges[eid]
            w = v if u == i else u
            edges[eid] = (site, w) if site < w else (w, site)
    return edges


def _decomposition(g: Multigraph, i: int, message: str) -> BlockDecomposition:
    """g's block decomposition once i is checked; GraphError(message) if g is disconnected."""
    g.check_vertex(i)
    try:
        return block_decomposition(g)
    except GraphError:
        raise GraphError(message) from None


def _orbit_outcomes(
    g: Multigraph, i: int, positions, points, local, sites, edges_for, weight_for
) -> LinearCombination:
    """An operator at vertex i of g, one outcome per orbit of its site's symmetries.

    A point gives a value to each of the ``positions`` (sets of g's vertices
    at i) and fixes an outcome with the edges ``edges_for(point)`` on
    vertices up to the largest of the ``sites``, the vertices that replace
    i.  ``points`` lists the admissible points in increasing order, the
    order of the full labelled enumeration.  An automorphism of g fixing i
    permutes the positions and keeps the legs at i.  A local move pairs a
    map of points, changing their values, with the permutation it makes of
    the sites.  A point's orbit is its images under a host move followed by
    a local one, which have isomorphic outcomes.  The least point of each
    orbit is added at ``weight_for(point, size)``, the weight of the
    labelled outcomes that the orbit's ``size`` points stand for.

    The legs at i then go on the sites once per orbit of the point's
    stabilizer, the local moves that some host move pairs with to fix
    the point (``canon.place_legs``), at that orbit's size times the
    point's weight.  An orbit of (point, placement) pairs is that large,
    so the classes and coefficients are those of the full enumeration.
    """
    # the positions share only i, so one other vertex tells where each goes
    place = {v: position for position, vertices in enumerate(positions) for v in vertices if v != i}
    others = [min(vertices - {i}) for vertices in positions]
    fixing_i = [sigma for sigma in automorphism_group(g) if sigma[i - 1] == i]
    moves = {tuple([place[sigma[v - 1]] for v in others]) for sigma in fixing_i}

    def host_images(point: tuple[int, ...]) -> set:
        return {tuple([point[p] for p in move]) for move in moves}

    def orbit(point: tuple[int, ...]) -> set:
        return {act(image) for image in host_images(point) for act, _ in local}

    fixed = tuple(leg for leg in g.legs if leg[1] != i)
    moving = [label for label, v in g.legs if v == i]
    n_out = max(sites)
    out = LinearCombination()
    for point, size in least_of_orbits(points, orbit):
        stabilizer = moving and [perm for act, perm in local if point in map(act, host_images(point))]
        place_legs(out, n_out, edges_for(point), fixed, moving, sites, stabilizer, weight_for(point, size))
    return out


# ----------------------------------------------------------------------
# vertex splitting

def _split(g: Multigraph, i: int, rho: int | None, *, per_block: bool) -> LinearCombination:
    """The split of connected g at i, its halves joined by rho edges, via ``_orbit_outcomes``.

    The positions are the neighbours w of i.  A point gives, for each,
    how many c_w of the m_w edges to w move to the new vertex n+1; the
    points in increasing order are the ordered bipartitions of i's edge
    ends in order of first occurrence.  A point stands for
    prod C(m_w, c_w) bipartitions, each of weight 1/(2 (rho-1)!), or 1
    for the plain split (rho None).  Besides the identity, the one local
    move swaps the halves: it maps each c_w to m_w - c_w and swaps the
    sites i and n+1.
    """
    if rho is not None and _check_integer("the edge count rho", rho) < 1:
        raise GraphError("the edge count rho must be at least 1")
    decomposition = _decomposition(g, i, "splitting expects a connected graph")
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
    new_vertex = g.n + 1
    joining = [(i, new_vertex)] * (rho or 0)
    denominator = 2 * factorial(rho - 1) if rho else 1

    def edges_for(c: tuple[int, ...]) -> list[tuple[int, int]]:
        moved = {eid: new_vertex for group, x in zip(ends, c) for eid in group[len(group) - x :]}
        return joining + _rewired(g, i, moved)

    def weight_for(c: tuple[int, ...], size: int) -> Fraction:
        return Fraction(size * prod(map(comb, mults, c)), denominator)

    local = [(lambda c: c, (1, 2)), (lambda c: tuple([m - x for m, x in zip(mults, c)]), (2, 1))]
    positions = [frozenset([w]) for w in neighbours]
    return _orbit_outcomes(g, i, positions, counts, local, (i, new_vertex), edges_for, weight_for)


def split_vertex(g: Multigraph, i: int) -> LinearCombination:
    """Split vertex i over all ordered bipartitions of its internal edge ends.

    Zero if i has fewer than two internal ends.  The legs of i are then
    distributed over the two halves in all ways.  Individual terms may be
    disconnected (two components, one per half).
    """
    return _split(g, i, None, per_block=False)


def split_vertex_hat(g: Multigraph, i: int) -> LinearCombination:
    """As split_vertex, keeping only bipartitions that cut every block at i."""
    return _split(g, i, None, per_block=True)


def q_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """Split vertex i, then join the two halves with rho fresh parallel edges.

    Carries the prefactor 1/(2 (rho-1)!); raises the cyclomatic number by
    rho - 1 and the vertex count by 1.  Outputs are always connected.  The
    legs of i are distributed over the two halves in all ways.
    """
    return _split(g, i, rho, per_block=False)


def q_hat_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """As q_map but only over bipartitions that cut every block at i."""
    return _split(g, i, rho, per_block=True)


# ----------------------------------------------------------------------
# block insertion

def _insertion_layout(g: Multigraph, i: int, block: Multigraph):
    """Check an insertion of ``block`` at vertex i of g and lay it out.

    The copy of the block's vertex p is placed at sites[p-1]: i, then the
    fresh n+1..n+n'-1.  Returns the vertex sets of g's blocks at i, the
    sites, and a function giving the outcome's edges for an attachment
    (the position in the block given to each block at i, in order).
    """
    decomposition = _decomposition(g, i, "insertion expects a connected host graph")
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
    return list(product(range(positions), repeat=host_count))


def _insert(g: Multigraph, i: int, block: Multigraph, *, bundle: bool) -> LinearCombination:
    """The insertion of ``block`` into g at i, via the orbit walk ``_orbit_outcomes``.

    The positions are the host blocks at i, and a point gives the
    inserted vertex, counted from 0, that each is attached to.  Each
    automorphism of the inserted block is a local move: it maps those
    vertices and the sites alike.  With ``bundle`` every host block goes
    to one inserted vertex, and the legs to any.
    """
    positions, sites, edges_for = _insertion_layout(g, i, block)
    local = [
        (lambda point, pi=[v - 1 for v in sigma]: tuple([pi[x] for x in point]), sigma)
        for sigma in automorphism_group(block)
    ]
    points = _attachments(len(positions), block.n, bundle)
    return _orbit_outcomes(g, i, positions, points, local, sites, edges_for, lambda _, size: size)


def insert_block(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """Replace vertex i by a copy of ``block``, distributing the blocks of g
    at i over the inserted vertices in all n'**|blocks at i| ways, and the
    legs of i over them in all n'**|legs at i| ways."""
    return _insert(g, i, block, bundle=False)


def insert_block_hat(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """As insert_block, but all blocks of g at i land on one inserted vertex."""
    return _insert(g, i, block, bundle=True)


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
