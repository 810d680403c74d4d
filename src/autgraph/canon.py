"""Canonical class keys, automorphism orders, and exact linear combinations.

Isomorphism here respects external labels: a vertex carrying the leg x3
can only map to a vertex carrying x3.  One walk (``_walk``) sees only
the edges: it compares the relabelings that keep a vertex invariant in
order pair by pair and returns all that reach the least sorted edge
list, a coset of the leg-free automorphism group.  Legs enter in one
place, ``_least_relabelings``, which keeps the walk's orders whose tuple
of ranks of the hosts of x1..xs is least, a coset of the group that
fixes every leg.  ``canonical_key`` encodes the first, so equal keys
mean isomorphic graphs, and ``automorphism_group`` composes each with
the first one's inverse.  Leg-free keys are those of the earlier kernel,
kept in tests/test_canon.py as a reference.  One orbit routine,
``least_of_orbits``, serves every symmetry reduction: the engine's
orbits of the group on vertex tuples (``tuple_orbits``), the operators'
orbits of their sites' symmetries in ``ops``, and the orbits of leg
placements, which ``place_legs`` builds as graphs for ``ops``.  The
engine's placements are never built: ``legged_classes`` writes each
one's key from its host's key and the least tuple of its orbit.
A class is its key; ``key_graph`` decodes it into the class's canonical
form, and ``key_fields`` is the one reader of its text.  ``LinearCombination``
sums graphs by class into key -> coefficient, keying the graphs added to it
only when a class is first asked for, so ``total_mass`` needs no key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, permutations, product, repeat
from math import factorial
from operator import add
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graph import GraphError, Multigraph


# A class key is its ASCII bytes ``n|u,v;...|v:label``: equal exactly for
# graphs isomorphic with their labels, ordered and printed (``hex``) as bytes.
CanonicalKey = bytes


def _vertex_invariants(n: int, edges: tuple) -> list[tuple]:
    """At index v: (degree, sorted incident multiplicities) of v, refined
    by the sorted (multiplicity, base invariant) of its neighbours."""
    adjacency: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for u, v in edges:
        adjacency[u][v] = adjacency[u].get(v, 0) + 1
        adjacency[v][u] = adjacency[v].get(u, 0) + 1
    base: list[tuple] = [()]
    for v in range(1, n + 1):
        mults = sorted(adjacency[v].values())
        base.append((sum(mults), tuple(mults)))
    return [()] + [
        (base[v], tuple(sorted([(mult, base[w]) for w, mult in adjacency[v].items()])))
        for v in range(1, n + 1)
    ]


@lru_cache(maxsize=None)
def _row_major_pairs(n: int) -> list[tuple[int, int]]:
    """The rank pairs (r, s), r < s, of n vertices in row-major order."""
    return [(r, s) for r in range(n) for s in range(r + 1, n)]


def _extended(heads: Iterable[tuple], cell: list[int]) -> Iterator[tuple]:
    """Each head followed by each permutation of cell, heads outermost.

    A single-vertex cell is appended by ``map``, which adds no generator
    frame for each candidate order to pass through."""
    if len(cell) == 1:
        return map(add, heads, repeat(tuple(cell)))
    return (head + tail for head in heads for tail in permutations(cell))


@lru_cache(maxsize=32)
def _walk(n: int, edges: tuple) -> list[tuple[int, ...]]:
    """The rank orders giving (n, edges) its least relabeled form, the first found first.

    The orders are the products of the permutations of the invariant
    cells.  Each is compared with the best so far on the multiplicity at
    each rank pair in row-major order, up to the first pair that differs.
    Of two sorted edge lists of one length, the smaller has the larger
    multiplicity there, so a larger entry is a new best.  The last 32
    results are kept, which callers must not change: the brute-force walk
    keys its leg placements on one graph in a row, the operators key their
    outcomes with legs on one host in a row, and ``legged_classes`` keys
    each host right after its group; 1,024 entries raised conn 10 1's peak
    RSS from 48 to 64 MB.
    """
    invariants = _vertex_invariants(n, edges)
    groups: dict[tuple, list[int]] = {}
    for v in range(1, n + 1):
        groups.setdefault(invariants[v], []).append(v)
    cells = [groups[key] for key in sorted(groups)]
    first = tuple(chain.from_iterable(cells))
    if len(cells) == n:  # one order: no table needed
        return [first]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v in edges:
        table[u][v] = table[v][u] = table[u][v] + 1
    pairs = _row_major_pairs(n)
    row = [table[first[r]][first[s]] for r, s in pairs]
    orders = reduce(_extended, cells, [()])
    best = [next(orders)]  # equal to first
    for order in orders:
        for index, (r, s) in enumerate(pairs):
            mult = table[order[r]][order[s]]
            if mult != row[index]:
                if mult > row[index]:
                    best = [order]
                    row[index:] = [table[order[r]][order[s]] for r, s in pairs[index:]]
                break
        else:
            best.append(order)
    return best


def _least_relabelings(g: Multigraph) -> list[tuple[int, ...]]:
    """The orders of g's leg-free walk whose tuple of ranks of the hosts of
    x1..xs is least, in walk order: a coset of g's automorphism group."""
    orders = _walk(g.n, g.edges)
    if not g.legs:
        return orders
    ranks = [tuple([order.index(v) for _, v in g.legs]) for order in orders]
    least = min(ranks)
    return [order for order, rank in zip(orders, ranks) if rank == least]


# Keys held by canonical_key.  Most keys are asked for once, and a key
# asked for again mostly is so soon after its miss, as with _walk's last
# 32 results.  With 4,096 entries, 2edge 7 4 kept 3,283 graphs that
# nothing else used, for 393 hits and 3,604 walks; with 64 it keeps 299
# of those hits at 3,698 walks, and verify --max-order 6 keeps 242 of 319
# hits at 700 walks instead of 631.  Unbounded, conn 10 2 peaked at 150 MB
# of RSS.
_KEY_CACHE_SIZE = 64


@lru_cache(maxsize=_KEY_CACHE_SIZE)
def canonical_key(g: Multigraph) -> CanonicalKey:
    """Key of g's isomorphism class (external labels respected)."""
    image = [0] * (g.n + 1)
    for rank, v in enumerate(_least_relabelings(g)[0], 1):
        image[v] = rank
    edges = []
    for u, v in g.edges:
        a = image[u]
        b = image[v]
        edges.append((a, b) if a < b else (b, a))
    edges.sort()
    return _key_bytes(g.n, edges, [(image[v], label) for label, v in g.legs])


def _leg_text(legs: Iterable[tuple[int, str]]) -> str:
    """The leg part ``v:label;...`` of a key: its (vertex, label) legs sorted, so
    that at one vertex x10 comes before x2."""
    return ";".join([f"{v}:{label}" for v, label in sorted(legs)])


def _key_bytes(n: int, edges: Iterable[tuple[int, int]], legs: Iterable[tuple[int, str]]) -> CanonicalKey:
    """The key ``n|u,v;...|v:label`` of sorted edges (u < v) and (vertex, label) legs."""
    edge_part = ";".join(f"{u},{v}" for u, v in edges)
    return f"{n}|{edge_part}|{_leg_text(legs)}".encode("ascii")


def key_fields(key: CanonicalKey) -> tuple[str, list[list[str]], list[list[str]]]:
    """A key's fields as text: its vertex count, its edges as [u, v] in key
    order, and its legs as [label, v] in label order x1, x2, ..."""
    n, edge_part, leg_part = key.decode("ascii").split("|")
    edges = [pair.split(",") for pair in edge_part.split(";")] if edge_part else []
    legs = [leg.split(":")[::-1] for leg in leg_part.split(";")] if leg_part else []
    legs.sort(key=lambda leg: int(leg[0][1:]))
    return n, edges, legs


def key_graph(key: CanonicalKey, *, strict: bool = False) -> Multigraph:
    """The graph that ``key`` spells, the canonical form of its class: its key is ``key``.

    ``strict`` checks a key read from outside: GraphError unless the graph is valid and
    spells ``key`` again byte for byte, as ``int`` takes signs, spaces, underscores and
    leading zeros and the constructor sorts, so a key in other text would count twice.
    """
    n, edges, legs = key_fields(key)
    parts = (int(n), [(int(u), int(v)) for u, v in edges], [(label, int(v)) for label, v in legs])
    if not strict:
        return Multigraph._trusted(*parts)
    g = Multigraph(*parts)
    if _key_bytes(g.n, g.edges, [(v, label) for label, v in g.legs]) != key:
        raise GraphError(f"not a class key in canonical text: {key!r}")
    return g


# Groups held by automorphism_group.  Each operator application asks for
# its target's group and an insertion also for its block's; applications
# come grouped by target, but the blocks recur across targets: with 256
# entries 2edge 7 4 recomputed 24 of its 367 groups.  aut_order keeps as
# many orders; verify --max-order 6 asks for 53.
_GROUP_CACHE_SIZE = 1024


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def automorphism_group(g: Multigraph) -> tuple[tuple[int, ...], ...]:
    """The vertex automorphisms of g, each as an image tuple: v -> sigma[v-1].

    Each order ``_least_relabelings`` keeps maps the vertex of each rank in
    the first kept order to its own vertex of that rank, the first to the
    identity.  The last ``_GROUP_CACHE_SIZE`` groups asked for are kept.
    """
    orders = _least_relabelings(g)
    ranks = sorted(range(g.n), key=orders[0].__getitem__)  # orders[0][ranks[v-1]] == v
    return tuple(tuple([order[r] for r in ranks]) for order in orders)


def least_of_orbits(
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


def tuple_orbits(
    group: Sequence[Sequence[int]], n: int, length: int
) -> list[tuple[tuple[int, ...], int]]:
    """One (least tuple, orbit size) per orbit of ``group`` on ordered
    ``length``-tuples of the vertices 1..n, in lexicographic order."""
    return least_of_orbits(
        product(range(1, n + 1), repeat=length),
        lambda point: {tuple([sigma[v - 1] for v in point]) for sigma in group},
    )


def place_legs(out, n: int, edges, legs: tuple, labels, sites, group, weight) -> None:
    """Add to ``out`` the graph (n, edges, legs) with labels[a] on sites[point[a] - 1]
    for the least point of each orbit of ``group`` on position tuples, in
    ``tuple_orbits`` order, at ``weight`` times the orbit's size.  With no
    labels the one graph is added at ``weight``; ``group`` is not read.

    The operators' placements and ``xi_distribute``'s are made here; the
    engine's are keyed without a graph (``legged_classes``).  Each
    (label, site) leg is built once, so the placements share it, and
    they share the tuples of ``edges`` that are ordered pairs
    (``Multigraph._trusted``)."""
    if not labels:
        out._add(Multigraph._trusted(n, edges, legs), weight)
        return
    legs_at = [[(label, site) for site in sites] for label in labels]
    for point, size in tuple_orbits(group, len(sites), len(labels)):
        placed = legs + tuple([legs_at[a][p - 1] for a, p in enumerate(point)])
        out._add(Multigraph._trusted(n, edges, placed), weight * size)


def legged_classes(combo: LinearCombination, labels: Sequence[str]) -> LinearCombination:
    """The leg-free classes of ``combo`` with labels[0], labels[1], ... on their vertices.

    Each class's canonical form H gets one placement per orbit of Aut H on
    tuples of its vertices, at the class's coefficient times the orbit's
    size.  No placement is built or keyed: H is canonical, so the walk's
    orders on it are Aut H with the identity first, and a placement's key
    is H's key with labels[a] on the a-th vertex of the least tuple of its
    orbit (``_least_relabelings``), the point ``tuple_orbits`` keeps.
    GraphError if a key is not the ``canonical_key`` of the graph it
    spells, as a corrupt cache's may be: that check is a hit of the walk
    that gave H's group.
    """
    out = LinearCombination()
    for key, coeff in sorted(combo._keyed().items()):
        text = key.decode("ascii")
        host = key_graph(key)
        group = automorphism_group(host)
        if canonical_key(host) != key:
            raise GraphError(f"class key {text!r} is not the canonical key of its graph")
        out._classes.update(  # no two placements share a key
            ((text + _leg_text(zip(point, labels))).encode("ascii"), coeff * size)
            for point, size in tuple_orbits(group, host.n, len(labels))
        )
    return out


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def aut_order(g: Multigraph) -> int:
    """Order of the automorphism group of g.

    The vertex automorphisms times the permutations of parallel internal
    edges: graphs are loopless and legs carry unique labels, so no other
    symmetry exists.  The last ``_GROUP_CACHE_SIZE`` orders asked for are kept.
    """
    edge_factor = 1
    for mult in g.multiplicities.values():
        edge_factor *= factorial(mult)
    return len(automorphism_group(g)) * edge_factor


def _as_fraction(coeff) -> Fraction:
    if type(coeff) is Fraction:
        return coeff
    if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
        raise GraphError(f"coefficients must be exact rationals, got {type(coeff).__name__}")
    return Fraction(coeff)


def _accumulate(terms: dict[CanonicalKey, Fraction], items: Iterable[tuple[CanonicalKey, Fraction]]) -> None:
    """Add each (key, coefficient) of ``items`` to ``terms``; a class whose
    coefficient cancels to zero is dropped."""
    for key, coeff in items:
        current = terms.get(key)
        if current is None:
            terms[key] = coeff
            continue
        total = current + coeff
        if total == 0:
            del terms[key]
        else:
            terms[key] = total


class LinearCombination:
    """A formal Q-linear combination of multigraph isomorphism classes.

    A class is its canonical key: the combination holds key -> coefficient,
    exact rationals, and drops a class whose coefficient cancels to zero;
    ``terms`` decodes each key into its class's canonical form
    (``key_graph``).  An added graph is keyed only when a class is first
    asked for, by any reader but ``total_mass``, which needs no key: a
    caller that only counts terms canonizes nothing.
    """

    def __init__(self, terms: Iterable[tuple[Multigraph, Fraction | int]] = ()):
        self._classes: dict[CanonicalKey, Fraction] = {}
        self._pending: list[tuple[Multigraph, Fraction]] = []
        for g, coeff in terms:
            self._add(g, coeff)

    def _keyed(self) -> dict[CanonicalKey, Fraction]:
        """key -> coefficient, once the graphs added since the last read are keyed."""
        if self._pending:
            pending, self._pending = self._pending, []
            _accumulate(self._classes, ((canonical_key(g), value) for g, value in pending))
        return self._classes

    @property
    def _terms(self) -> Mapping[CanonicalKey, tuple[Fraction, Multigraph]]:
        """A read-only view key -> (coefficient, canonical form) that nothing in the package
        reads: perfbench/tracer.py unpacks its values as pairs (ROADMAP item 6)."""
        return MappingProxyType({key: (coeff, key_graph(key)) for key, coeff in self._keyed().items()})

    # internal accumulation -------------------------------------------------

    def _add(self, g: Multigraph, coeff) -> None:
        value = _as_fraction(coeff)
        if value != 0:
            self._pending.append((g, value))

    def _merge(self, other: "LinearCombination", scale: Fraction | int = 1) -> None:
        factor = _as_fraction(scale)
        if factor == 0:
            return
        items = other._keyed().items()
        if factor != 1:
            items = ((key, factor * coeff) for key, coeff in items)
        _accumulate(self._keyed(), items)

    # value-style public interface ------------------------------------------

    def add_term(self, g: Multigraph, coeff) -> "LinearCombination":
        """A new combination with coeff added at g's class (coeff must be nonzero)."""
        value = _as_fraction(coeff)
        if value == 0:
            raise GraphError("add_term needs a nonzero coefficient")
        out = self.copy()
        out._add(g, value)
        return out

    def copy(self) -> "LinearCombination":
        out = LinearCombination()
        out._classes = dict(self._keyed())
        return out

    def __add__(self, other) -> "LinearCombination":
        if not isinstance(other, LinearCombination):
            return NotImplemented
        out = self.copy()
        out._merge(other)
        return out

    def __sub__(self, other) -> "LinearCombination":
        if not isinstance(other, LinearCombination):
            return NotImplemented
        out = self.copy()
        out._merge(other, -1)
        return out

    def __mul__(self, scalar) -> "LinearCombination":
        factor = _as_fraction(scalar)
        out = LinearCombination()
        if factor != 0:
            out._classes = {key: factor * coeff for key, coeff in self._keyed().items()}
        return out

    __rmul__ = __mul__

    # inspection -------------------------------------------------------------

    def coefficient(self, item: Multigraph | CanonicalKey) -> Fraction:
        key = canonical_key(item) if isinstance(item, Multigraph) else item
        return self._keyed().get(key, Fraction(0))

    def terms(self) -> list[tuple[CanonicalKey, Fraction, Multigraph]]:
        """Terms sorted by key bytes: (key, coefficient, the class's canonical form)."""
        return [(key, coeff, key_graph(key)) for key, coeff in sorted(self._keyed().items())]

    def support(self) -> frozenset[CanonicalKey]:
        return frozenset(self._keyed())

    def class_coefficients(self) -> dict[CanonicalKey, Fraction]:
        return dict(self._keyed())

    def restricted(self, predicate: Callable[[Multigraph], bool]) -> "LinearCombination":
        """Sub-combination of the classes whose canonical form satisfies predicate."""
        out = LinearCombination()
        out._classes = {key: coeff for key, coeff in self._keyed().items() if predicate(key_graph(key))}
        return out

    def total_mass(self) -> Fraction:
        """The sum of the coefficients; the pending graphs need no key for it."""
        return sum(chain(self._classes.values(), (value for _, value in self._pending)), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return self._keyed() == other._keyed()

    __hash__ = None  # mutable accumulator underneath

    def __len__(self) -> int:  # also the truth value
        return len(self._keyed())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearCombination({len(self)} classes, mass {self.total_mass()})"
