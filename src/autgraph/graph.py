"""Loopless multigraphs with labeled external legs, and their block structure.

Vertices are the integers 1..n.  Internal edges are unordered pairs of
distinct vertices; parallel edges are allowed and stay distinguishable
because an edge's id is its position in the (canonically sorted) edge
tuple.  External legs are half-edges attached to a single vertex, each
carrying a unique label x1..xs.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs or operations applied outside their domain."""


def _label_index(label: str) -> int:
    if (
        isinstance(label, str)
        and len(label) >= 2
        and label[0] == "x"
        and label.isascii()
        and label[1:].isdigit()
        and label[1] != "0"
    ):
        return int(label[1:])
    raise GraphError(f"leg labels must look like 'x1', 'x2', ...: got {label!r}")


def _check_integer(name: str, value) -> int:
    """``value`` if it is an int and not a bool (though True == 1), else GraphError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphError(f"{name} must be an integer, got {value!r}")
    return value


class _GraphFields(NamedTuple):
    n: int
    edges: tuple[tuple[int, int], ...]
    legs: tuple[tuple[str, int], ...]


def _check_vertex(n: int, v: int) -> int:
    """``v`` if it is an integer in 1..n, else GraphError."""
    if not 1 <= _check_integer("vertex", v) <= n:
        raise GraphError(f"vertex {v!r} is not in 1..{n}")
    return v


class Multigraph(_GraphFields):
    """A loopless multigraph on vertices 1..n with labeled external legs.

    ``edges`` holds the internal edges as endpoint pairs; the constructor
    sorts each pair and the whole tuple, so equal graphs compare equal and
    an edge id is simply its position.  ``legs`` holds (label, vertex)
    pairs; the labels of a graph with s legs are exactly x1..xs.

    A graph is a NamedTuple of ``n``, ``edges`` and ``legs``, as the
    package's other value types are: it compares equal to the tuple of its
    fields, hashes and pickles as that tuple, and holds nothing else.
    Nothing is cached on a graph; the queries below read the fields each
    time.  ``_make`` (and so ``_replace``) and unpickling go through the
    checking constructor.

    ``_trusted`` builds a graph without these checks.  It is for operator
    outputs only, whose edges and legs come from an already valid graph.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Sequence = (), legs: Sequence = ()) -> "Multigraph":
        if _check_integer("vertex count", n) < 1:
            raise GraphError(f"vertex count must be positive, got {n!r}")
        try:
            edges = [(u, v) for u, v in edges]
            legs = [(label, v) for label, v in legs]
        except (TypeError, ValueError):
            raise GraphError("each edge and each leg must be a pair") from None
        norm = []
        for u, v in edges:
            if _check_vertex(n, u) == _check_vertex(n, v):
                raise GraphError(f"loop at vertex {u}: graphs are loopless")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        indexed = sorted((_label_index(label), label, _check_vertex(n, v)) for label, v in legs)
        if [idx for idx, _, _ in indexed] != list(range(1, len(indexed) + 1)):
            raise GraphError("leg labels must be exactly x1..xs with no repeats")
        return tuple.__new__(cls, (n, tuple(norm), tuple((label, v) for _, label, v in indexed)))

    @classmethod
    def _make(cls, fields: Sequence) -> "Multigraph":
        return cls(*fields)

    @classmethod
    def _trusted(cls, n: int, edges: Sequence, legs: Sequence = ()) -> "Multigraph":
        """A graph from valid parts: only pair order and sort order are normalized.

        An edge that is already an ordered tuple is kept as it is, so a graph
        built from another's edges shares their tuples; a reversed pair or a
        pair of another type becomes a new ordered tuple."""
        edges = sorted([e if type(e) is tuple and e[0] < e[1] else tuple(sorted(e)) for e in edges])
        legs = sorted(legs, key=lambda leg: int(leg[0][1:]))
        return tuple.__new__(cls, (n, tuple(edges), tuple(legs)))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_legs(self) -> int:
        return len(self.legs)

    def check_vertex(self, v: int) -> int:
        return _check_vertex(self.n, v)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Ids of the internal edges with one end at v (one id per parallel
        edge), in ascending order."""
        self.check_vertex(v)
        return tuple(eid for eid, edge in enumerate(self.edges) if v in edge)

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    def other_end(self, edge_id: int, v: int) -> int:
        u, w = self.edges[edge_id]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"edge {edge_id} is not incident to vertex {v}")

    def legs_at(self, v: int) -> tuple[str, ...]:
        self.check_vertex(v)
        return tuple(label for label, w in self.legs if w == v)

    @property
    def multiplicities(self) -> Mapping[tuple[int, int], int]:
        """Edge multiplicity per unordered vertex pair (pairs stored as (u, v), u < v)."""
        mult: dict[tuple[int, int], int] = {}
        for pair in self.edges:
            mult[pair] = mult.get(pair, 0) + 1
        return mult

    def relabeled(self, image: Sequence[int]) -> "Multigraph":
        """Apply the vertex permutation v -> image[v-1]."""
        if sorted(image) != list(range(1, self.n + 1)):
            raise GraphError("relabeling must be a permutation of 1..n")
        edges = [(image[u - 1], image[v - 1]) for u, v in self.edges]
        legs = [(label, image[v - 1]) for label, v in self.legs]
        return Multigraph(self.n, tuple(edges), tuple(legs))

    # ------------------------------------------------------------------
    # JSON encoding (shared across the package and the CLI)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [[u, v] for u, v in self.edges],
            "external": [{"label": label, "vertex": v} for label, v in self.legs],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Multigraph":
        try:
            n = data["n"]
            # not converted: the constructor checks each record and number
            edges = tuple(data.get("edges", []))
            legs = tuple((entry["label"], entry["vertex"]) for entry in data.get("external", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphError(f"malformed graph record: {exc}") from exc
        return cls(n, edges, legs)


# ----------------------------------------------------------------------
# small factories

def path_graph(n: int) -> Multigraph:
    """The path on n vertices (n >= 2)."""
    if n < 2:
        raise GraphError("a path needs at least two vertices")
    return Multigraph(n, tuple((v, v + 1) for v in range(1, n)))


def cycle_graph(n: int) -> Multigraph:
    """The cycle on n vertices; for n = 2 this is the parallel pair."""
    if n < 2:
        raise GraphError("a cycle needs at least two vertices")
    if n == 2:
        return Multigraph(2, ((1, 2), (1, 2)))
    return Multigraph(n, tuple((v, v + 1) for v in range(1, n)) + ((1, n),))


def multi_edge_graph(multiplicity: int) -> Multigraph:
    """Two vertices joined by the given number of parallel edges."""
    if multiplicity < 1:
        raise GraphError("multiplicity must be positive")
    return Multigraph(2, ((1, 2),) * multiplicity)


# ----------------------------------------------------------------------
# connectivity

def _incidence(g: Multigraph) -> list[list[int]]:
    """At index v, the ids of the edges at v in ascending order (index 0 is
    empty): the lists of every ``incident_edges`` call, built in one pass."""
    incident: list[list[int]] = [[] for _ in range(g.n + 1)]
    for eid, (u, v) in enumerate(g.edges):
        incident[u].append(eid)
        incident[v].append(eid)
    return incident


def connected_components(g: Multigraph) -> list[frozenset[int]]:
    incident = _incidence(g)
    seen: set[int] = set()
    components = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        component = {start}
        while stack:
            v = stack.pop()
            for eid in incident[v]:
                w = g.other_end(eid, v)
                if w not in seen:
                    seen.add(w)
                    component.add(w)
                    stack.append(w)
        components.append(frozenset(component))
    return components


def is_connected(g: Multigraph) -> bool:
    return len(connected_components(g)) == 1


def cyclomatic_number(g: Multigraph) -> int:
    """Dimension of the cycle space: edge count - vertex count + component count."""
    return g.num_edges - g.n + len(connected_components(g))


# ----------------------------------------------------------------------
# biconnected components

class Block(NamedTuple):
    """One biconnected component: its vertex set and its internal edge ids."""

    vertices: frozenset[int]
    edge_ids: frozenset[int]


class BlockDecomposition(NamedTuple):
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]
    blocks_at: Mapping[int, tuple[int, ...]]


# Decompositions held by block_decomposition.  Each operator application
# decomposes its host, and the engine's applications come grouped by host,
# so a few recent graphs suffice: 256 saved no measurable time over 32 and
# raised peak RSS by up to 0.5 MB.
_DECOMPOSITION_CACHE_SIZE = 32


@lru_cache(maxsize=_DECOMPOSITION_CACHE_SIZE)
def block_decomposition(g: Multigraph) -> BlockDecomposition:
    """Biconnected components of a connected multigraph.

    Depth-first lowpoint search adapted to parallel edges: only the tree
    edge itself is skipped on the way back, so a second copy of the same
    edge counts as a genuine cycle.  A bridge forms a single-edge block;
    a set of parallel edges between one vertex pair forms one block.  The
    decompositions of the last ``_DECOMPOSITION_CACHE_SIZE`` graphs are
    kept and shared, so ``blocks_at`` is read-only.
    """
    block_edge_sets: list[frozenset[int]] = []
    clock = 1  # the vertices the search from vertex 1 has discovered
    if g.num_edges:
        # iterative lowpoint search.  A frame is (vertex, tree edge from its
        # parent, its pending incident edges, edge-stack height below that
        # tree edge); blocks come out in the order of the recursive search.
        disc = [0] * (g.n + 1)  # discovery time, 0 while undiscovered
        low = [0] * (g.n + 1)
        edge_stack: list[int] = []
        incident = _incidence(g)
        disc[1] = low[1] = 1
        frames = [(1, -1, iter(incident[1]), 0)]
        while frames:
            u, via, pending, height = frames[-1]
            for eid in pending:
                if eid == via:
                    continue
                a, b = g.edges[eid]
                w = b if a == u else a
                if not disc[w]:
                    frames.append((w, eid, iter(incident[w]), len(edge_stack)))
                    edge_stack.append(eid)
                    clock += 1
                    disc[w] = low[w] = clock
                    break
                if disc[w] < disc[u]:
                    edge_stack.append(eid)
                    if disc[w] < low[u]:
                        low[u] = disc[w]
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                    if low[u] >= disc[parent]:
                        block_edge_sets.append(frozenset(edge_stack[height:]))
                        del edge_stack[height:]
    if clock < g.n:
        raise GraphError("block decomposition is defined for connected graphs")
    blocks = tuple(
        Block(
            vertices=frozenset(v for eid in edge_set for v in g.edges[eid]),
            edge_ids=edge_set,
        )
        for edge_set in block_edge_sets
    )
    membership: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for index, block in enumerate(blocks):
        for v in sorted(block.vertices):
            membership[v].append(index)
    cut_vertices = frozenset(v for v, ids in membership.items() if len(ids) >= 2)
    blocks_at = MappingProxyType({v: tuple(ids) for v, ids in membership.items()})
    return BlockDecomposition(blocks=blocks, cut_vertices=cut_vertices, blocks_at=blocks_at)


def is_biconnected(g: Multigraph) -> bool:
    """Connected and without cut vertices; 2-vertex graphs with an edge qualify.

    A single vertex does not count as biconnected.
    """
    try:
        return g.n >= 2 and len(block_decomposition(g).blocks) == 1
    except GraphError:  # disconnected
        return False


def is_two_edge_connected(g: Multigraph) -> bool:
    """Connected and bridgeless (a bridge is a single-edge block)."""
    try:
        return g.n >= 2 and all(len(block.edge_ids) >= 2 for block in block_decomposition(g).blocks)
    except GraphError:  # disconnected
        return False
