"""The operators by full labelled enumeration: a frozen test reference.

Before the operators in ``autgraph.ops`` were built once per orbit of
their site's symmetries, they enumerated every labelled outcome: every
ordered bipartition of the split vertex's edge ends, every attachment of
the host's blocks at the insertion vertex, and every placement of the
legs at that vertex on the halves or on the inserted vertices.  This is
that enumeration, kept so that tests can compare the orbit path with it
(keys, coefficients and key order).
"""

from fractions import Fraction
from itertools import product
from math import factorial

from autgraph import LinearCombination, Multigraph, block_decomposition
from autgraph.ops import _attachments, _insertion_layout, _rewired


def ordered_assignments(item_count, slots, *, nonempty_parts=False, split_groups=None):
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


def redistribute_legs(base_legs, moving, sites):
    """All reassignments of the given labels over the given sites."""
    for assignment in ordered_assignments(len(moving), len(sites)):
        yield base_legs + tuple((label, sites[slot]) for label, slot in zip(moving, assignment))


def split_terms(g, i, *, per_block, join=0):
    """Raw labeled outcomes of splitting vertex i into i and n+1.

    One term per (ordered bipartition of i's internal edge ends, leg
    assignment).  ``per_block`` keeps only bipartitions in which every
    block at i contributes ends to both sides.  ``join`` adds that many
    parallel edges between the two halves to every term.
    """
    ends = g.incident_edges(i)
    d = len(ends)
    if d < 2:
        return []
    groups = None
    if per_block:
        decomposition = block_decomposition(g)
        owner = {
            eid: index
            for index, block in enumerate(decomposition.blocks)
            for eid in block.edge_ids
        }
        by_block = {}
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
        moved = {ends[position]: new_vertex for position, slot in enumerate(assignment) if slot}
        edges = joining + _rewired(g, i, moved)
        for legs in redistribute_legs(fixed_legs, moving_legs, (i, new_vertex)):
            out.append(Multigraph._trusted(new_vertex, edges, legs))
    return out


def insert_terms(g, i, block, *, bundle):
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
        for legs in redistribute_legs(fixed_legs, moving_legs, sites):
            out.append(Multigraph._trusted(g.n + block.n - 1, edges, legs))
    return out


def full_split_vertex(g, i, per_block):
    """split_vertex (or split_vertex_hat): every term at weight 1."""
    return LinearCombination((term, 1) for term in split_terms(g, i, per_block=per_block))


def full_split(g, i, rho, per_block):
    """q_map (or q_hat_map): every term at weight 1/(2 (rho-1)!)."""
    weight = Fraction(1, 2 * factorial(rho - 1))
    return LinearCombination((term, weight) for term in split_terms(g, i, per_block=per_block, join=rho))


def full_insertion(g, i, block, bundle):
    """insert_block (or insert_block_hat with ``bundle``): every term at weight 1."""
    return LinearCombination((term, 1) for term in insert_terms(g, i, block, bundle=bundle))
