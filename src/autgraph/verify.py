"""Independent ground truth: exhaustive enumeration and coefficient checks.

The enumerator distributes indistinguishable internal edges over vertex
pairs by brute force and dedupes by canonical key, then places the legs
on every vertex of each leg-free class's graph, also by brute force.
It skips, as orderly generation does, every edge multiset that swapping
two vertices makes lexicographically smaller: each class is first seen
on the least multiset of its orbit, and each legged class on its
leg-free class's first graph, so the classes, their first graphs and
their order are those of the full walk over multisets and placements.
Each (n, k, s) cell of connected graphs is walked once per process; a
family is the subset of those classes whose representative passes the
family predicate.
Filtering representatives is exact because every predicate is
isomorphism-invariant.  The enumerator shares nothing with
the recursion drivers beyond the graph model and the canonical key, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, NamedTuple

from . import ops
from .canon import CanonicalKey, LinearCombination, aut_order, canonical_key, key_graph
from .graph import (
    GraphError,
    Multigraph,
    _check_integer,
    block_decomposition,
    cycle_graph,
    is_biconnected,
    is_connected,
    is_two_edge_connected,
    multi_edge_graph,
    path_graph,
)
from .recursion import BetaEngine, BetaKey, BlockLimits, _check_family

DEFAULT_MAX_ORDER = 7
MAX_LEGS = 3
# seeds the relabelings of the equivariance lemma
LEMMA_SEED = 20250809


# ----------------------------------------------------------------------
# family predicates

def _block_profile(g: Multigraph) -> list[tuple[int, int]]:
    """(vertex count, cyclomatic number) of every block of a connected graph."""
    profile = []
    for block in block_decomposition(g).blocks:
        block_n = len(block.vertices)
        block_m = len(block.edge_ids)
        profile.append((block_n, block_m - block_n + 1))
    return profile


def blocks_are_cycles(g: Multigraph) -> bool:
    """True when every biconnected component is a cycle (cyclomatic number 1)."""
    return all(block_k == 1 for _, block_k in _block_profile(g))


def blocks_within_limits(g: Multigraph, limits: BlockLimits) -> bool:
    return all(
        block_n >= limits.min_n and block_k >= limits.min_k
        for block_n, block_k in _block_profile(g)
    )


def family_predicate(family: str, j: int = 0, options: BlockLimits | None = None):
    """Membership test for one family of connected graphs; refuses a j or
    block limits that ``BetaKey`` refuses for the family, with its message."""
    _check_family(family, j, options)
    if family == "conn":
        return is_connected
    if family == "biconn":
        return is_biconnected

    if family in ("two_edge", "two_edge_cycles"):

        def two_edge_pred(g: Multigraph) -> bool:
            if not is_two_edge_connected(g):
                return False
            if family == "two_edge_cycles" and not blocks_are_cycles(g):
                return False
            return options is None or blocks_within_limits(g, options)

        return two_edge_pred

    # the family is "aux", the one left

    def aux_pred(g: Multigraph) -> bool:
        if not is_two_edge_connected(g):
            return False
        decomposition = block_decomposition(g)
        return len(decomposition.cut_vertices) == 1 and len(decomposition.blocks) == j

    return aux_pred


# ----------------------------------------------------------------------
# exhaustive enumeration

def _spans(n: int, pairs) -> bool:
    """Whether edges on the given vertex pairs connect all of 1..n (union-find)."""
    parent = list(range(n + 1))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    components = n
    for u, v in pairs:
        a, b = find(u), find(v)
        if a != b:
            parent[b] = a
            components -= 1
    return components == 1


def _swap_lowers(n: int, chosen: tuple[tuple[int, int], ...]) -> bool:
    """Whether swapping two vertices turns the sorted edges into a smaller tuple."""
    image = list(range(n + 1))
    for a, b in combinations(range(1, n + 1), 2):
        image[a], image[b] = b, a
        swapped = sorted(
            (image[u], image[v]) if image[u] < image[v] else (image[v], image[u])
            for u, v in chosen
        )
        image[a], image[b] = a, b
        if tuple(swapped) < chosen:
            return True
    return False


@lru_cache(maxsize=None)
def _connected_classes(n: int, k: int, s: int) -> dict[CanonicalKey, Multigraph]:
    """Every class of connected graphs in one cell, with the first graph seen.

    Without legs, the walk distributes the k+n-1 internal edges over all
    vertex pairs in increasing lexicographic order, skipping edge
    multisets that do not connect 1..n.  It also skips every multiset that
    a transposition of two vertices maps to a smaller sorted edge tuple,
    the test of orderly generation, and stops at the first multiset whose
    first edge is not (1, 2), which such a swap always lowers.  A class is
    first seen on the least multiset of its orbit, which no relabelling
    lowers, so the skipped multisets would only repeat classes already
    found: every class keeps its first graph and its place in the order of
    first sightings.

    With s legs, the walk places each of the s leg labels on every vertex
    of each leg-free class's graph, in the leg-free cell's order.  The
    full walk would place them on every multiset; but a legged class is
    first seen on the first multiset of its leg-free class, since a
    placement on a later multiset of that class is a relabelled placement
    on the first, so the classes, first graphs and order are the same.

    Only the classes are kept: each graph is keyed by ``canonical_key``,
    whose cache holds just the last ``_KEY_CACHE_SIZE`` keys.  Memoized
    per cell for the life of the process: callers must copy, never hand
    out or change, the returned dict.
    """
    found: dict[CanonicalKey, Multigraph] = {}
    if s:
        labels = [f"x{index}" for index in range(1, s + 1)]
        for core in _connected_classes(n, k, 0).values():
            for assignment in product(range(1, n + 1), repeat=s):
                g = Multigraph(n, core.edges, tuple(zip(labels, assignment)))
                found.setdefault(canonical_key(g), g)
        return found
    pairs = list(combinations(range(1, n + 1), 2))
    for chosen in combinations_with_replacement(pairs, k + n - 1):
        if chosen[:1] > ((1, 2),):
            break  # swapping 1 or 2 with an end of the first edge lowers the rest
        if not _spans(n, chosen) or _swap_lowers(n, chosen):
            continue
        g = Multigraph(n, chosen)
        found.setdefault(canonical_key(g), g)
    return found


def enumerate_classes(
    family: str,
    n: int,
    k: int,
    s: int = 0,
    *,
    j: int = 0,
    options: BlockLimits | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> dict[CanonicalKey, Multigraph]:
    """Every isomorphism class of the family, by brute force.

    Returns a new dict of the connected classes of the cell (n, k, s),
    walked once per process, whose representative passes the family
    predicate.  Every predicate is isomorphism-invariant, so a class's
    first graph in the connected walk is the one a walk filtered by the
    predicate would keep: keys, representatives and order are the same.
    The walk canonizes, through ``canonical_key``, only edge multisets
    that no swap of two vertices lowers, and places legs only on each
    leg-free class's first graph; a class's first graph lies on the least
    multiset of its orbit, so this pruning keeps every representative as
    the full walk has it.  The walked cells stay memoized for the life of
    the process, so the memory held grows with the largest ``max_order``
    and ``s`` asked for; of the placements, only the key cache's last few
    stay behind.
    """
    for name, value in (("n", n), ("k", k), ("s", s), ("max_order", max_order)):
        _check_integer(name, value)
    if n < 1 or k < 0 or s < 0:
        raise GraphError("need n >= 1, k >= 0, s >= 0")
    if n + k > max_order:
        raise GraphError(f"n+k = {n + k} exceeds the enumeration bound {max_order}")
    if s > MAX_LEGS:
        raise GraphError(f"leg count {s} exceeds the enumeration bound {MAX_LEGS}")
    predicate = family_predicate(family, j=j, options=options)
    return {key: g for key, g in _connected_classes(n, k, s).items() if predicate(g)}


# ----------------------------------------------------------------------
# coefficient verification

class ClassCheck(NamedTuple):
    key: CanonicalKey
    graph: Multigraph
    coefficient: Fraction
    expected: Fraction

    @property
    def ok(self) -> bool:
        return self.coefficient == self.expected


class BetaVerification(NamedTuple):
    family: str
    n: int
    k: int
    s: int
    j: int
    checks: list[ClassCheck]
    missing: list[tuple[CanonicalKey, Multigraph]]
    extra: list[tuple[CanonicalKey, Fraction, Multigraph]]

    @property
    def passed(self) -> bool:
        return not self.missing and not self.extra and all(check.ok for check in self.checks)

    @property
    def class_count(self) -> int:
        return len(self.checks)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "k": self.k,
            "s": self.s,
            "j": self.j,
            "passed": self.passed,
            "class_count": self.class_count,
            "classes": [
                {
                    "key": check.key.hex(),
                    "graph": check.graph.to_json_dict(),
                    "coefficient": f"{check.coefficient.numerator}/{check.coefficient.denominator}",
                    "inverse_aut_order": f"{check.expected.numerator}/{check.expected.denominator}",
                    "match": check.ok,
                }
                for check in self.checks
            ],
            "missing": [graph.to_json_dict() for _, graph in self.missing],
            "extra": [graph.to_json_dict() for _, _, graph in self.extra],
        }

    def to_text(self) -> str:
        tag = f"{self.family}{self.j if self.family == 'aux' else ''}"
        lines = [
            f"{tag} n={self.n} k={self.k} s={self.s}: "
            f"{self.class_count} classes, {'pass' if self.passed else 'FAIL'}"
        ]
        for check in self.checks:
            if not check.ok:
                lines.append(
                    f"  mismatch {check.graph.to_json_dict()}: "
                    f"got {check.coefficient}, expected {check.expected}"
                )
        for _, graph in self.missing:
            lines.append(f"  missing class {graph.to_json_dict()}")
        for _, coeff, graph in self.extra:
            lines.append(f"  extra class {graph.to_json_dict()} with coefficient {coeff}")
        return "\n".join(lines)


def verify_beta(
    family: str,
    n: int,
    k: int,
    s: int = 0,
    *,
    j: int = 0,
    options: BlockLimits | None = None,
    engine: BetaEngine | None = None,
    max_order: int = DEFAULT_MAX_ORDER,
) -> BetaVerification:
    """Compare one family value against exhaustive enumeration.

    Passes when the class sets agree exactly and every coefficient equals
    the inverse automorphism group order of its class.
    """
    engine = engine or BetaEngine()
    combo = engine.with_legs(BetaKey(family, n, k, j=j, options=options), s)
    expected = enumerate_classes(
        family, n, k, s, j=j, options=options, max_order=max_order
    )
    coefficients = combo.class_coefficients()
    checks = [
        ClassCheck(key, expected[key], coefficients[key], Fraction(1, aut_order(expected[key])))
        for key in sorted(expected)
        if key in coefficients
    ]
    missing = [(key, expected[key]) for key in sorted(set(expected) - set(coefficients))]
    extra = [
        (key, coefficients[key], key_graph(key))
        for key in sorted(set(coefficients) - set(expected))
    ]
    return BetaVerification(
        family=family, n=n, k=k, s=s, j=j, checks=checks, missing=missing, extra=extra
    )


# ----------------------------------------------------------------------
# property checks for the operator laws

class LemmaCheck(NamedTuple):
    name: str
    cases: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


class LemmaReport(NamedTuple):
    bound: int
    checks: list[LemmaCheck]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "passed": self.passed,
            "checks": [
                {
                    "name": check.name,
                    "cases": check.cases,
                    "failures": check.failures[:20],
                    "passed": check.passed,
                }
                for check in self.checks
            ],
        }

    def to_text(self) -> str:
        lines = [f"operator properties up to n+k <= {self.bound}:"]
        for check in self.checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(f"  {check.name}: {check.cases} cases, {status}")
            for detail in check.failures[:5]:
                lines.append(f"    {detail}")
        return "\n".join(lines)


# One case of a lemma: whether it holds, and a function giving its text,
# called only for a failing case and before its generator moves on.
Case = tuple[bool, Callable[[], str]]


def _biconn_corpus(bound: int) -> list[Multigraph]:
    corpus = []
    for n in range(2, bound):
        for k in range(1, bound - n + 1):
            corpus.extend(enumerate_classes("biconn", n, k).values())
        if n + 1 <= bound - 1:
            for k in range(1, bound - n):
                corpus.extend(enumerate_classes("biconn", n, k, 1).values())
    return corpus


def _check_q_preserves_biconnected(bound: int) -> Iterator[Case]:
    for g in _biconn_corpus(bound):
        for i in range(1, g.n + 1):
            for rho in (1, 2):
                combo = ops.q_map(g, i, rho)
                ok = all(is_biconnected(rep) for _, _, rep in combo.terms())
                yield ok, lambda: f"q_map({g.to_json_dict()}, {i}, {rho})"


def _one_cut_corpus(bound: int) -> list[Multigraph]:
    corpus = []
    for n in range(3, bound):
        for k in range(2, bound - n + 1):
            for count in (2, 3):
                corpus.extend(enumerate_classes("aux", n, k, j=count).values())
    return corpus


def _check_q_hat_from_single_cut(bound: int) -> Iterator[Case]:
    # fixed seeds keep the check non-vacuous below the first enumerated size
    seeds = [
        Multigraph(3, ((1, 2), (1, 2), (2, 3), (2, 3))),
        Multigraph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))),
    ]
    for g in seeds + _one_cut_corpus(bound):
        cut = next(iter(block_decomposition(g).cut_vertices))
        for rho in (1, 2):
            combo = ops.q_hat_map(g, cut, rho)
            ok = bool(combo) and all(is_biconnected(rep) for _, _, rep in combo.terms())
            yield ok, lambda: f"q_hat_map({g.to_json_dict()}, {cut}, {rho})"


def _pair_chain(length: int) -> Multigraph:
    """A chain of parallel pairs on length+1 vertices (length-1 cut vertices)."""
    edges = []
    for v in range(1, length + 1):
        edges += [(v, v + 1), (v, v + 1)]
    return Multigraph(length + 1, tuple(edges))


def _check_q_difference_avoids_biconnected() -> Iterator[Case]:
    # On graphs with two or more cut vertices the unbundled-only terms keep
    # a cut vertex, so none of them may land in a biconnected class.
    mixed = Multigraph(5, ((1, 2), (1, 2), (2, 3), (2, 3), (3, 4), (3, 5), (4, 5)))
    for g in (_pair_chain(3), _pair_chain(4), mixed):
        assert len(block_decomposition(g).cut_vertices) >= 2
        for i in range(1, g.n + 1):
            for rho in (1, 2):
                difference = ops.q_map(g, i, rho) - ops.q_hat_map(g, i, rho)
                ok = not any(is_biconnected(rep) for _, _, rep in difference.terms())
                yield ok, lambda: f"q - q_hat on {g.to_json_dict()} at {i}, rho={rho}"


def _check_insert_preserves_two_edge(bound: int) -> Iterator[Case]:
    blocks = []
    for block_n in range(2, bound):
        for block_k in range(1, bound - block_n):
            blocks.extend(enumerate_classes("biconn", block_n, block_k).values())
    for n in range(2, bound):
        for k in range(1, bound - n + 1):
            for g in enumerate_classes("two_edge", n, k).values():
                for block in blocks:
                    for i in range(1, g.n + 1):
                        combo = ops.insert_block(g, i, block)
                        ok = all(is_two_edge_connected(rep) for _, _, rep in combo.terms())
                        yield ok, lambda: f"insert {block.to_json_dict()} into {g.to_json_dict()} at {i}"


def _distribute_fresh_legs(combo: LinearCombination, s: int, extra: int) -> LinearCombination:
    labels = [f"x{index}" for index in range(s + 1, s + extra + 1)]
    out = LinearCombination()
    for _, coeff, rep in combo.terms():
        out._merge(ops.xi_distribute(rep, range(1, rep.n + 1), labels), coeff)
    return out


def _check_leg_distribution_factorizes(engine: BetaEngine) -> Iterator[Case]:
    for n, k in ((2, 1), (3, 0), (3, 1)):
        for s, extra in ((0, 1), (0, 2), (1, 1)):
            direct = engine.with_legs(BetaKey("conn", n, k), s + extra)
            lifted = _distribute_fresh_legs(engine.with_legs(BetaKey("conn", n, k), s), s, extra)
            yield direct == lifted, lambda: f"conn n={n} k={k} s={s} extra={extra}"


def _vertex_sum(op, g: Multigraph) -> LinearCombination:
    out = LinearCombination()
    for i in range(1, g.n + 1):
        out._merge(op(g, i))
    return out


def _check_equivariance(bound: int) -> Iterator[Case]:
    rng = random.Random(LEMMA_SEED)
    bridge = path_graph(2)
    pair = multi_edge_graph(2)

    def q_at(h: Multigraph, i: int) -> LinearCombination:
        return ops.q_map(h, i, 1)

    def insert_at(h: Multigraph, i: int) -> LinearCombination:
        return ops.insert_block(h, i, bridge)

    def shuffled(h: Multigraph) -> Multigraph:
        image = list(range(1, h.n + 1))
        rng.shuffle(image)
        return h.relabeled(image)

    corpus = []
    for n in range(3, bound + 1):
        for k in range(0, bound - n + 1):
            corpus.extend(enumerate_classes("conn", n, k).values())
    for g in corpus:
        q_g, insert_g = _vertex_sum(q_at, g), _vertex_sum(insert_at, g)
        for _ in range(2):
            relabeled = shuffled(g)
            same_q = q_g == _vertex_sum(q_at, relabeled)
            yield same_q, lambda: f"sum of q_map over {g.to_json_dict()}"
            same_insert = insert_g == _vertex_sum(insert_at, relabeled)
            yield same_insert, lambda: f"sum of insert_block over {g.to_json_dict()}"
    for g in _one_cut_corpus(bound + 1):
        cut_a = next(iter(block_decomposition(g).cut_vertices))
        hat_g = ops.q_hat_map(g, cut_a, 1)
        insert_hat_g = ops.insert_block_hat(g, cut_a, pair)
        for _ in range(2):
            relabeled = shuffled(g)
            cut_b = next(iter(block_decomposition(relabeled).cut_vertices))
            same_hat = hat_g == ops.q_hat_map(relabeled, cut_b, 1)
            yield same_hat, lambda: f"q_hat_map at the cut vertex of {g.to_json_dict()}"
            same_insert_hat = insert_hat_g == ops.insert_block_hat(relabeled, cut_b, pair)
            yield same_insert_hat, lambda: f"insert_block_hat at the cut vertex of {g.to_json_dict()}"


def _check_split_term_count(bound: int) -> Iterator[Case]:
    for n in range(2, bound):
        for k in range(0, bound - n + 1):
            for s in (0, 1):
                for g in enumerate_classes("conn", n, k, s).values():
                    for i in range(1, g.n + 1):
                        d = g.degree(i)
                        legs = len(g.legs_at(i))
                        expected = (2**d - 2) * 2**legs if d >= 2 else 0
                        mass = ops.split_vertex(g, i).total_mass()
                        yield mass == expected, lambda: f"split {g.to_json_dict()} at {i}"


def _check_insert_term_count(bound: int) -> Iterator[Case]:
    blocks = [path_graph(2), multi_edge_graph(2), cycle_graph(3)]
    for n in range(2, bound):
        for k in range(0, bound - n + 1):
            for s in (0, 1):
                for g in enumerate_classes("conn", n, k, s).values():
                    blocks_at = block_decomposition(g).blocks_at
                    for block in blocks:
                        for i in range(1, g.n + 1):
                            at_i = len(blocks_at[i])
                            legs = len(g.legs_at(i))
                            expected = block.n ** (at_i + legs)
                            mass = ops.insert_block(g, i, block).total_mass()
                            yield mass == expected, lambda: (
                                f"insert {block.to_json_dict()} into {g.to_json_dict()} at {i}"
                            )


def verify_lemmas(bound: int = 5, *, engine: BetaEngine | None = None) -> LemmaReport:
    """Run the operator property suite up to the given n+k bound.

    Each lemma is a generator of (ok, detail) pairs, one per case
    (``Case``); the generators run one after another, in the table's order,
    and a case's text is written only if it fails.
    """
    if _check_integer("bound", bound) < 3:
        raise GraphError("the property suite needs a bound of at least 3")
    if bound > DEFAULT_MAX_ORDER:
        raise GraphError(f"bound {bound} exceeds the enumeration bound {DEFAULT_MAX_ORDER}")
    engine = engine or BetaEngine()
    lemmas = [
        ("joining a split biconnected graph stays biconnected",
         _check_q_preserves_biconnected(bound)),
        ("bundled split at a unique cut vertex yields biconnected graphs",
         _check_q_hat_from_single_cut(bound)),
        ("unbundled minus bundled split avoids biconnected classes",
         _check_q_difference_avoids_biconnected()),
        ("inserting a cyclomatic block preserves 2-edge-connectivity",
         _check_insert_preserves_two_edge(bound)),
        ("post-hoc leg distribution reproduces the threaded legs",
         _check_leg_distribution_factorizes(engine)),
        ("vertex-summed operators are relabeling-invariant", _check_equivariance(bound)),
        ("split term count is (2^d - 2) * 2^legs", _check_split_term_count(bound)),
        ("insert term count is n'^(blocks at i) * n'^(legs at i)", _check_insert_term_count(bound)),
    ]
    checks = []
    for name, cases in lemmas:
        count = 0
        failures = []
        for ok, detail in cases:
            count += 1
            if not ok:
                failures.append(detail())
        checks.append(LemmaCheck(name, count, failures))
    return LemmaReport(bound=bound, checks=checks)
