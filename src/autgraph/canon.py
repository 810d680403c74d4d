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
placements, which ``place_legs`` makes for the engine and ``ops``.
``LinearCombination`` sums graphs by class; it keys the graphs added to
it only when a class is first asked for, so ``total_mass`` needs no key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, permutations, product, repeat
from math import factorial
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph import GraphError, Multigraph


class CanonicalKey(NamedTuple):
    """Identifier of a multigraph isomorphism class.

    Two graphs get the same key exactly when some vertex relabeling maps
    one onto the other preserving edge multiplicities and leg labels.
    Keys order and serialize by their byte encoding.
    """

    encoding: bytes

    def hex(self) -> str:
        return self.encoding.hex()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CanonicalKey({self.encoding.decode('ascii')!r})"


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
    results are kept, which callers must not change: the leg tuples on one
    host are placed in a row, and 1,024 entries raised conn 10 1's peak
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


# Keys held by canonical_key.  Most keys are asked for once: unbounded, the
# cache kept every one to the end, and conn 10 2 peaked at 150 MB of RSS
# against 77 MB with this bound, at no more CPU time.  No benchmark cell
# keys more than about 3,300 graphs in one process.
_KEY_CACHE_SIZE = 4096


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
    edge_part = ";".join(f"{u},{v}" for u, v in edges)
    legs = sorted((image[v], label) for label, v in g.legs)
    leg_part = ";".join(f"{v}:{label}" for v, label in legs)
    return CanonicalKey(f"{g.n}|{edge_part}|{leg_part}".encode("ascii"))


# Groups held by automorphism_group.  Each operator application asks for
# its target's group and an insertion also for its block's; applications
# come grouped by target, but the blocks recur across targets: with 256
# entries 2edge 7 4 recomputed 24 of its 367 groups.
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
    labels the one graph is added at ``weight``; ``group`` is not read."""
    if not labels:
        out._add(Multigraph._trusted(n, edges, legs), weight)
        return
    for point, size in tuple_orbits(group, len(sites), len(labels)):
        placed = legs + tuple(zip(labels, [sites[p - 1] for p in point]))
        out._add(Multigraph._trusted(n, edges, placed), weight * size)


@lru_cache(maxsize=None)
def aut_order(g: Multigraph) -> int:
    """Order of the automorphism group of g.

    The vertex automorphisms times the permutations of parallel internal
    edges: graphs are loopless and legs carry unique labels, so no other
    symmetry exists.
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


def _accumulate(
    terms: dict[CanonicalKey, tuple[Fraction, Multigraph]],
    items: Iterable[tuple[CanonicalKey, Fraction, Multigraph]],
) -> None:
    """Add each (key, coefficient, graph) of ``items`` to ``terms``, in order:
    a new class keeps the graph as its representative, and a class whose
    coefficient cancels to zero is dropped."""
    for key, coeff, g in items:
        current = terms.get(key)
        if current is None:
            terms[key] = (coeff, g)
            continue
        total = current[0] + coeff
        if total == 0:
            del terms[key]
        else:
            terms[key] = (total, current[1])


class LinearCombination:
    """A formal Q-linear combination of multigraph isomorphism classes.

    Terms are keyed by canonical key; the first graph seen for a class is
    kept as the exported representative.  Coefficients are exact
    rationals; classes whose coefficient cancels to zero are dropped.
    An added graph is keyed only when a class is first asked for, by any
    reader but ``total_mass``, which needs no key: a caller that only
    counts terms canonizes nothing.
    """

    def __init__(self, terms: Iterable[tuple[Multigraph, Fraction | int]] = ()):
        self._keyed: dict[CanonicalKey, tuple[Fraction, Multigraph]] = {}
        self._pending: list[tuple[Multigraph, Fraction]] = []
        for g, coeff in terms:
            self._add(g, coeff)

    @property
    def _terms(self) -> dict[CanonicalKey, tuple[Fraction, Multigraph]]:
        """key -> (coefficient, representative), in first-seen order.

        The graphs added since the last read are keyed first, in the order
        they were added, so a class that cancels to zero and is added again
        takes its later graph as representative."""
        if self._pending:
            pending, self._pending = self._pending, []
            _accumulate(self._keyed, ((canonical_key(g), value, g) for g, value in pending))
        return self._keyed

    @_terms.setter
    def _terms(self, terms: dict[CanonicalKey, tuple[Fraction, Multigraph]]) -> None:
        self._keyed = terms
        self._pending = []

    @classmethod
    def _from_keyed(
        cls, terms: Iterable[tuple[CanonicalKey, Fraction, Multigraph]]
    ) -> "LinearCombination":
        """A combination of (key, coefficient, representative) terms whose keys
        are taken as given, not recomputed; a repeated key raises GraphError."""
        out = cls()
        keyed = out._terms
        for key, coeff, rep in terms:
            if key in keyed:
                raise GraphError("a class key appears twice")
            keyed[key] = (coeff, rep)
        return out

    # internal accumulation -------------------------------------------------

    def _add(self, g: Multigraph, coeff) -> None:
        value = _as_fraction(coeff)
        if value != 0:
            self._pending.append((g, value))

    def _merge(self, other: "LinearCombination", scale: Fraction | int = 1) -> None:
        factor = _as_fraction(scale)
        if factor == 0:
            return
        scaled = factor != 1
        _accumulate(
            self._terms,
            ((key, factor * coeff if scaled else coeff, rep) for key, (coeff, rep) in other._terms.items()),
        )

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
        out._terms = dict(self._terms)
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
            out._terms = {key: (factor * coeff, rep) for key, (coeff, rep) in self._terms.items()}
        return out

    __rmul__ = __mul__

    # inspection -------------------------------------------------------------

    def coefficient(self, item: Multigraph | CanonicalKey) -> Fraction:
        key = canonical_key(item) if isinstance(item, Multigraph) else item
        entry = self._terms.get(key)
        return entry[0] if entry else Fraction(0)

    def representative(self, key: CanonicalKey) -> Multigraph:
        try:
            return self._terms[key][1]
        except KeyError:
            raise GraphError("class is not present in this combination") from None

    def terms(self) -> list[tuple[CanonicalKey, Fraction, Multigraph]]:
        """Terms sorted by key bytes: (key, coefficient, representative)."""
        return [(key, coeff, rep) for key, (coeff, rep) in sorted(self._terms.items())]

    def support(self) -> frozenset[CanonicalKey]:
        return frozenset(self._terms)

    def class_coefficients(self) -> dict[CanonicalKey, Fraction]:
        return {key: coeff for key, (coeff, _) in self._terms.items()}

    def restricted(self, predicate: Callable[[Multigraph], bool]) -> "LinearCombination":
        """Sub-combination of the classes whose representative satisfies predicate."""
        out = LinearCombination()
        out._terms = {key: entry for key, entry in self._terms.items() if predicate(entry[1])}
        return out

    def total_mass(self) -> Fraction:
        """The sum of the coefficients; the pending graphs need no key for it."""
        return sum(
            chain((coeff for coeff, _ in self._keyed.values()), (value for _, value in self._pending)),
            Fraction(0),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCombination):
            return NotImplemented
        return self.class_coefficients() == other.class_coefficients()

    __hash__ = None  # mutable accumulator underneath

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearCombination({len(self._terms)} classes, mass {self.total_mass()})"
