"""The elementary linear transformations on multigraphs.

Each operator acts on a single labeled graph and returns either a graph
or a linear combination of classes.

The splits (``split_vertex``, ``split_vertex_hat``, ``q_map``,
``q_hat_map``) and the insertions (``insert_block``,
``insert_block_hat``) build one outcome per orbit of the symmetries that
fix their site (``_split_orbits``, ``_insert_orbits``), weighted by the
orbit's size.  The orbit walks see the leg-free points only.  The legs
at the site vertex i are then placed on each kept point once per orbit
of the point's stabilizer (``canon.place_legs``), at the point's weight
times that orbit's size: the stabilizer moves them by the swap of a
split's halves or by the inserted block's automorphisms.  An orbit of
(point, placement) pairs is that large, so the classes and
coefficients are those of the full labelled enumeration, which the
tests keep as a reference.  The outcome kept is the first of its orbit
in that enumeration's order (point first, then leg placement): its point
is least in its orbit, and its placement least in its orbit under the
point's stabilizer.  The kept ones are added in that order, so each
class also keeps the representative it is first seen with there.

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
    GraphError,
    Multigraph,
    block_decomposition,
    is_biconnected,
    is_connected,
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
# helpers shared by the splits and the insertions

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


# ----------------------------------------------------------------------
# vertex splitting

def _split_orbits(g: Multigraph, i: int, rho: int, *, per_block: bool) -> LinearCombination:
    """The split of connected g at i, its halves joined by rho edges, one
    outcome per orbit of its symmetries.

    An outcome's edges depend only on the point giving, for each neighbour
    w of i, how many c_w of the m_w edges to w move to the new vertex n+1.
    It stands for prod C(m_w, c_w) ordered bipartitions, each of weight
    1/(2 (rho-1)!), or 1 for the plain split (rho = 0).  The automorphisms
    of g fixing i permute the neighbours and keep the legs at i; swapping
    the halves maps each entry x to m - x and flips each leg's half.  Both
    give isomorphic outcomes.  The points in lexicographic order are the
    ordered bipartitions in order of first occurrence, so the least point
    of each orbit, at the orbit's size, is added in that order.  The legs
    at i go on i or n+1, once per orbit of the swap if some automorphism
    fixing i maps the point onto its flip m - c, else in every way.
    """
    if not is_connected(g):
        raise GraphError("splitting expects a connected graph")
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
    new_vertex = g.n + 1

    def orbit(c: tuple[int, ...]) -> set:
        images = {tuple([c[position] for position in move]) for move in moves}
        return images | {tuple([m - x for m, x in zip(mults, image)]) for image in images}

    fixed = tuple(leg for leg in g.legs if leg[1] != i)
    moving = [label for label, v in g.legs if v == i]
    joining = [(i, new_vertex)] * rho
    denominator = 2 * factorial(rho - 1) if rho else 1
    out = LinearCombination()
    for c, size in least_of_orbits(counts, orbit):
        moved = {eid: new_vertex for group, x in zip(ends, c) for eid in group[len(group) - x :]}
        edges = joining + _rewired(g, i, moved)
        weight = Fraction(size * prod(map(comb, mults, c)), denominator)
        swaps = moving and any([m - x for m, x in zip(mults, c)] == [c[p] for p in move] for move in moves)
        halves = ((1, 2), (2, 1)) if swaps else ((1, 2),)
        place_legs(out, new_vertex, edges, fixed, moving, (i, new_vertex), halves, weight)
    return out


def split_vertex(g: Multigraph, i: int) -> LinearCombination:
    """Split vertex i over all ordered bipartitions of its internal edge ends.

    Zero if i has fewer than two internal ends.  The legs of i are then
    distributed over the two halves in all ways.  Individual terms may be
    disconnected (two components, one per half).
    """
    return _split_orbits(g, i, 0, per_block=False)


def split_vertex_hat(g: Multigraph, i: int) -> LinearCombination:
    """As split_vertex, keeping only bipartitions that cut every block at i."""
    return _split_orbits(g, i, 0, per_block=True)


def q_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """Split vertex i, then join the two halves with rho fresh parallel edges.

    Carries the prefactor 1/(2 (rho-1)!); raises the cyclomatic number by
    rho - 1 and the vertex count by 1.  Outputs are always connected.  The
    legs of i are distributed over the two halves in all ways.
    """
    if rho < 1:
        raise GraphError("the edge count rho must be at least 1")
    return _split_orbits(g, i, rho, per_block=False)


def q_hat_map(g: Multigraph, i: int, rho: int) -> LinearCombination:
    """As q_map but only over bipartitions that cut every block at i."""
    if rho < 1:
        raise GraphError("the edge count rho must be at least 1")
    return _split_orbits(g, i, rho, per_block=True)


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
    return list(product(range(positions), repeat=host_count))


def _insert_orbits(g: Multigraph, i: int, block: Multigraph, *, bundle: bool) -> LinearCombination:
    """The insertion of ``block`` into g at i, one outcome per orbit of its symmetries.

    An outcome's edges depend only on the point giving the position in the
    block that each host block at i is attached to.  The automorphisms of
    g fixing i permute the host blocks at i and keep the legs at i, and
    those of the inserted block permute its positions and so the legs'
    positions too; either maps a point onto one with an isomorphic
    outcome.  The points in lexicographic order are the attachments in
    the order of the labelled outcomes, so the least point of each orbit,
    the first of its orbit, is added at the orbit's size, in that order.
    The legs at i go on the inserted vertices once per orbit of the block
    automorphisms that some automorphism fixing i pairs with to fix the
    point.  With ``bundle`` every host block goes to one position, and
    the legs to any.
    """
    host_vertices, sites, edges_for = _insertion_layout(g, i, block)
    place = {vertices: place for place, vertices in enumerate(host_vertices)}
    moves = {
        tuple(place[frozenset(sigma[v - 1] for v in vertices)] for vertices in host_vertices)
        for sigma in _stabilizer(g, i)
    }
    block_group = automorphism_group(block)
    block_moves = [tuple(image - 1 for image in sigma) for sigma in block_group]

    def orbit(point: tuple[int, ...]) -> set:
        return {tuple([pi[point[p]] for p in move]) for move in moves for pi in block_moves}

    fixed = tuple(leg for leg in g.legs if leg[1] != i)
    moving = [label for label, v in g.legs if v == i]
    out = LinearCombination()
    for point, size in least_of_orbits(_attachments(len(host_vertices), block.n, bundle), orbit):
        fixing = moving and [
            sigma
            for sigma, pi in zip(block_group, block_moves)
            if any(tuple([pi[point[p]] for p in move]) == point for move in moves)
        ]
        place_legs(out, g.n + block.n - 1, edges_for(point), fixed, moving, sites, fixing, size)
    return out


def insert_block(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """Replace vertex i by a copy of ``block``, distributing the blocks of g
    at i over the inserted vertices in all n'**|blocks at i| ways, and the
    legs of i over them in all n'**|legs at i| ways."""
    return _insert_orbits(g, i, block, bundle=False)


def insert_block_hat(g: Multigraph, i: int, block: Multigraph) -> LinearCombination:
    """As insert_block, but all blocks of g at i land on one inserted vertex."""
    return _insert_orbits(g, i, block, bundle=True)


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
