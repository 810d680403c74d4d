"""Canonical class keys, automorphism orders, and exact linear combinations.

Isomorphism here respects external labels: a vertex carrying the leg x3
can only map to a vertex carrying x3.  A key is the least sorted edge
list over the relabelings that keep a vertex invariant in order.  The
invariant is isomorphism-invariant, so equal keys mean isomorphic graphs.
It is read from an adjacency table built in one pass over the edges and
from one pass over the legs.  Invariant, cells, relabelings and encoding are those
of the earlier kernel (kept in tests/test_canon.py as a reference), so
keys, class order and printed output are unchanged.

The same walk over relabelings gives the vertex automorphisms
(``automorphism_group``, kept for the graphs asked for last): those
reproducing the first relabeled form, each composed with the first
one's inverse.  ``aut_order`` counts them, the engine applies its
operators once per orbit of that group (``tuple_orbits``), and the
operators in ``ops`` build one outcome per orbit of a vertex's
stabilizer in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence

from .graph import GraphError, Multigraph


@dataclass(frozen=True, order=True)
class CanonicalKey:
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


def _vertex_invariants(g: Multigraph) -> list[tuple]:
    """At index v: (degree, sorted leg labels, sorted incident multiplicities)
    of v, refined by the sorted (multiplicity, base invariant) of its neighbours."""
    adjacency: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    for u, v in g.edges:
        adjacency[u][v] = adjacency[u].get(v, 0) + 1
        adjacency[v][u] = adjacency[v].get(u, 0) + 1
    labels: list[list[str]] = [[] for _ in range(g.n + 1)]
    for label, v in g.legs:
        labels[v].append(label)
    base: list[tuple] = [()]
    for v in range(1, g.n + 1):
        mults = sorted(adjacency[v].values())
        base.append((sum(mults), tuple(sorted(labels[v])), tuple(mults)))
    return [()] + [
        (base[v], tuple(sorted([(mult, base[w]) for w, mult in adjacency[v].items()])))
        for v in range(1, g.n + 1)
    ]


def _relabelings(g: Multigraph) -> Iterator[list[int]]:
    """Relabelings v -> image[v] numbering the invariant cells in order.

    One list is reused for every relabeling.  A vertex with a leg is alone
    in its cell (labels are unique), so every relabeling maps it alike.
    """
    invariants = _vertex_invariants(g)
    groups: dict[tuple, list[int]] = {}
    for v in range(1, g.n + 1):
        groups.setdefault(invariants[v], []).append(v)
    cells = [groups[key] for key in sorted(groups)]
    image = [0] * (g.n + 1)
    for choice in product(*map(permutations, cells)):
        rank = 0
        for ordering in choice:
            for v in ordering:
                rank += 1
                image[v] = rank
        yield image


@lru_cache(maxsize=None)
def canonical_key(g: Multigraph) -> CanonicalKey:
    """Key of g's isomorphism class (external labels respected).

    Legs map alike under every relabeling, so only edge lists are compared.
    """
    best = None
    for image in _relabelings(g):
        edges = []
        for u, v in g.edges:
            a = image[u]
            b = image[v]
            edges.append((a, b) if a < b else (b, a))
        edges.sort()
        if best is None or edges < best:
            best = edges
    edge_part = ";".join(f"{u},{v}" for u, v in best)
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

    The relabelings giving g one relabeled form are a coset of its vertex
    automorphism group, so sigma = first^-1 . image runs over the group as
    image runs over the relabelings reproducing the first one's edge
    multiplicities.  The identity comes first.  Legs never move, since a
    vertex with a leg is alone in its invariant cell.  The groups of the
    last ``_GROUP_CACHE_SIZE`` graphs asked for are kept.
    """
    pairs = list(g.multiplicities.items())
    relabelings = _relabelings(g)
    first = next(relabelings)
    preimage = [0] * (g.n + 1)
    for v in range(1, g.n + 1):
        preimage[first[v]] = v
    target = [[0] * (g.n + 1) for _ in range(g.n + 1)]
    for (u, v), mult in pairs:
        target[first[u]][first[v]] = mult
        target[first[v]][first[u]] = mult
    group = [tuple(range(1, g.n + 1))]
    for image in relabelings:
        for (u, v), mult in pairs:
            if target[image[u]][image[v]] != mult:
                break
        else:
            group.append(tuple([preimage[image[v]] for v in range(1, g.n + 1)]))
    return tuple(group)


def automorphisms(g: Multigraph) -> list[list[int]]:
    """``automorphism_group(g)`` as a new list of image lists."""
    return [list(sigma) for sigma in automorphism_group(g)]


def tuple_orbits(
    group: Sequence[Sequence[int]], n: int, length: int
) -> list[tuple[tuple[int, ...], int]]:
    """One (least tuple, orbit size) per orbit of ``group`` on ordered
    ``length``-tuples of the vertices 1..n, in lexicographic order.

    The least tuple of an orbit starts with the least vertex v of its
    first entry's orbit, and continues with the least tuple of its rest's
    orbit under the stabilizer of v; the orbit size is the product of the
    orbit sizes along the way.  ``length`` 1 gives the vertex orbits.
    """
    if length == 0:
        return [((), 1)]
    out = []
    seen = [False] * (n + 1)
    for v in range(1, n + 1):
        if seen[v]:
            continue
        orbit = {sigma[v - 1] for sigma in group}
        for w in orbit:
            seen[w] = True
        stabilizer = [sigma for sigma in group if sigma[v - 1] == v]
        for rest, size in tuple_orbits(stabilizer, n, length - 1):
            out.append(((v, *rest), len(orbit) * size))
    return out


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


class LinearCombination:
    """A formal Q-linear combination of multigraph isomorphism classes.

    Terms are keyed by canonical key; the first graph seen for a class is
    kept as the exported representative.  Coefficients are exact
    rationals; classes whose coefficient cancels to zero are dropped.
    """

    def __init__(self, terms: Iterable[tuple[Multigraph, Fraction | int]] = ()):
        self._terms: dict[CanonicalKey, tuple[Fraction, Multigraph]] = {}
        for g, coeff in terms:
            self._add(g, coeff)

    @classmethod
    def _from_keyed(
        cls, terms: Iterable[tuple[CanonicalKey, Fraction, Multigraph]]
    ) -> "LinearCombination":
        """A combination of (key, coefficient, representative) terms whose keys
        are taken as given, not recomputed; a repeated key raises GraphError."""
        out = cls()
        for key, coeff, rep in terms:
            if key in out._terms:
                raise GraphError("a class key appears twice")
            out._terms[key] = (coeff, rep)
        return out

    # internal accumulation -------------------------------------------------

    def _add(self, g: Multigraph, coeff) -> None:
        value = _as_fraction(coeff)
        if value == 0:
            return
        key = canonical_key(g)
        current = self._terms.get(key)
        if current is None:
            self._terms[key] = (value, g)
            return
        total = current[0] + value
        if total == 0:
            del self._terms[key]
        else:
            self._terms[key] = (total, current[1])

    def _merge(self, other: "LinearCombination", scale: Fraction | int = 1) -> None:
        factor = _as_fraction(scale)
        if factor == 0:
            return
        scaled = factor != 1
        for key, (coeff, rep) in other._terms.items():
            if scaled:
                coeff = factor * coeff
            current = self._terms.get(key)
            if current is None:
                self._terms[key] = (coeff, rep)
                continue
            total = current[0] + coeff
            if total == 0:
                del self._terms[key]
            else:
                self._terms[key] = (total, current[1])

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
        return sum((coeff for coeff, _ in self._terms.values()), Fraction(0))

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
