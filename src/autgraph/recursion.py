"""Memoized drivers for the weighted family generators.

Each family value is a linear combination of isomorphism classes in
which every class of the family appears with total coefficient equal to
the inverse of its automorphism group order:

* ``biconn``: biconnected graphs, built by splitting a vertex of a
  smaller member and rejoining the halves with parallel edges;
* ``aux`` (one value per block count j >= 2): bridgeless graphs with
  exactly one cut vertex and j blocks, built by block insertion;
* ``conn``: all connected graphs;
* ``two_edge``: bridgeless connected graphs;
* ``two_edge_cycles``: the two_edge recursion with the block supply
  restricted to cycles; optional lower bounds further restrict the
  admissible blocks' vertex/cyclomatic numbers.

One driver splits vertices (``_biconn``); one inserts blocks
(``_block_insertions``) for aux, conn, two_edge and two_edge_cycles, and
conn admits every block, bridges included.  Both hand their operator
applications, each naming its operator in ``ops``, to one routine that
places them at their sites (``_applications``).

No family looks at external legs, so the recursion runs on leg-free
graphs only and the engine memoizes and caches leg-free values.  The
public entry points are ``BetaEngine.beta``, the leg-free value of a
``BetaKey``, and ``BetaEngine.with_legs``, which places the s labelled
legs once on the vertices of each class of that value: a leg-free class
G of weight 1/|Aut G| sends |Aut G|/|Aut H| of its n**s placements, one
orbit of Aut G on tuples of host vertices, to each legged class H, so H
gets weight exactly 1/|Aut H| (orbit-stabilizer).  The key of H is
written from G's key (``canon.legged_classes``), so no placement is built.

The same argument applies every operator once per orbit of a group
of symmetries, at the orbit's size:

* the engine applies insert_block and q_map at the least vertex of each
  vertex orbit of the target, and places the leg tuples at the least
  tuple of each orbit;
* within an application at vertex i, each operator builds one outcome
  per orbit of the symmetries at i, legs included, through the one
  orbit walk in ``ops`` (``ops._orbit_outcomes``, whose docstring
  gives the argument).

The engine never passes the operators legs.  An outcome skipped by
either reduction is isomorphic to the kept one of its orbit, so every
class and coefficient is that of the full labelled enumeration.

A value holds only class keys and coefficients, and the operators act
on the canonical form that each key spells (``canon``), so no output
depends on the order of the applications: with several jobs, an
evaluation of ``_FORK_MIN_APPLICATIONS`` or more applications is summed
in slices by helper processes forked for it, one per CPU at most.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import IO, NamedTuple

from . import ops
from .canon import CanonicalKey, LinearCombination, automorphism_group, key_graph, legged_classes, tuple_orbits
from .graph import GraphError, Multigraph, _check_integer, block_decomposition, multi_edge_graph

# Version 3 stores each class as its key and coefficient alone, and a load
# takes the keys as they are instead of canonizing each class again.  So any
# change to the bytes of a key (a new canonizer or key encoding) must bump
# this version, or files written before it would mix old keys with new.
CACHE_FORMAT_VERSION = 3

FAMILIES = ("biconn", "aux", "conn", "two_edge", "two_edge_cycles")
_OPTION_FAMILIES = ("two_edge", "two_edge_cycles")

# An evaluation with fewer operator applications than this runs in-process even
# with jobs > 1: forking helpers would cost it more than they save (CHANGES.md).
_FORK_MIN_APPLICATIONS = 64


class BlockLimits(NamedTuple):
    """Lower bounds on the vertex and cyclomatic numbers of admissible blocks."""

    min_n: int = 2
    min_k: int = 1


_DEFAULT_LIMITS = BlockLimits()
# conn is built as two_edge is, with every block admitted, bridges included;
# no caller can ask for it, since block limits apply only to the two_edge
# families
_CONN_LIMITS = BlockLimits(min_k=0)


class BetaKey(NamedTuple):
    """Memoization key of a leg-free value: family, vertex and cyclomatic number.

    ``j`` is the block count of the one-cut-vertex auxiliary family and 0
    otherwise; ``options`` restricts block sizes for the two_edge-shaped
    families.  Legs are not part of the key: values with legs are placed
    on the leg-free value by ``BetaEngine.with_legs`` and never memoized.
    """

    family: str
    n: int
    k: int
    j: int = 0
    options: BlockLimits | None = None


def _validate_key(key: BetaKey) -> None:
    _check_family(key.family, key.j, key.options)
    for name, value in (("n", key.n), ("k", key.k)):
        _check_integer(name, value)
    if key.n < 1:
        raise GraphError("the recursion needs at least one vertex")
    if key.k < 0:
        raise GraphError("cyclomatic number and leg count must be nonnegative")


def _check_family(family: str, j: int, options: BlockLimits | None) -> None:
    """Refuse an unknown family, or a block count j or block limits that
    ``family`` does not take: the one check of ``BetaKey`` and of the
    verifier's family predicates."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    _check_integer("j", j)
    if family == "aux":
        if j < 2:
            raise GraphError("the auxiliary family needs a block count j >= 2")
    elif j != 0:
        raise GraphError("j applies only to the auxiliary family")
    if options is not None:
        if not isinstance(options, BlockLimits):
            raise GraphError(f"block limits must be a BlockLimits, not {options!r}")
        if family not in _OPTION_FAMILIES:
            raise GraphError("block limits apply only to the two_edge families")
        for name, value in zip(BlockLimits._fields, options):
            _check_integer(f"block limit {name}", value)
        if options.min_n < 2 or options.min_k < 1:
            raise GraphError("block limits must satisfy min_n >= 2 and min_k >= 1")


def _leg_labels(s: int) -> list[str]:
    _check_integer("s", s)
    if s < 0:
        raise GraphError("cyclomatic number and leg count must be nonnegative")
    return [f"x{index}" for index in range(1, s + 1)]


def _unique_cut_vertex(g: Multigraph) -> int:
    cuts = block_decomposition(g).cut_vertices
    if len(cuts) != 1:
        raise GraphError("expected a graph with exactly one cut vertex")
    return next(iter(cuts))


def _applications(
    op: str, weight: Fraction, target: LinearCombination, args: list
) -> list[tuple[Fraction, tuple]]:
    """(scale, (op, rep, i, arg)) for each class of ``target``, rep its canonical
    form, each (coefficient, arg) of ``args`` and each site i: the unique cut
    vertex for q_hat_map and insert_block_hat, else one vertex per orbit at its size."""
    applications: list[tuple[Fraction, tuple]] = []
    for _, target_coeff, rep in target.terms():
        if op in ("q_hat_map", "insert_block_hat"):
            sites = [(_unique_cut_vertex(rep), 1)]
        else:
            sites = [(v, size) for (v,), size in tuple_orbits(automorphism_group(rep), rep.n, 1)]
        for arg_coeff, arg in args:
            scale = weight * target_coeff * arg_coeff
            for i, size in sites:
                applications.append((scale * size, (op, rep, i, arg)))
    return applications


def _apply_slice(applications: list[tuple[Fraction, tuple]]) -> LinearCombination:
    """The sum of the scaled applications in order, each operator looked up in ``ops``."""
    out = LinearCombination()
    for scale, (op, rep, i, arg) in applications:
        out._merge(getattr(ops, op)(rep, i, arg), scale)
    return out


def _fork_helper(part: list[tuple[Fraction, tuple]]) -> tuple[int, IO[bytes]]:
    """The pid and pipe of a forked helper that writes there the pickled sum of
    ``part``, or its exception (named in a ChildProcessError if it does not pickle)."""
    import pickle  # loaded only by evaluations that fork

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, open(read_end, "rb")
    try:  # os._exit: no inherited stdout buffer is flushed twice, no atexit handler runs
        try:
            payload = pickle.dumps(_apply_slice(part))
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)
            except Exception:
                error = f"helper process {os.getpid()} raised {type(exc).__name__}: {exc}"
                payload = pickle.dumps(ChildProcessError(error))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


def _cache_header(key: BetaKey) -> dict:
    """The fields naming the value a cache file holds; a load compares them all."""
    return {
        "format_version": CACHE_FORMAT_VERSION,
        "family": key.family,
        "n": key.n,
        "k": key.k,
        "j": key.j,
        "options": (
            None
            if key.options is None
            else {"min_block_n": key.options.min_n, "min_block_k": key.options.min_k}
        ),
    }


def _cached_term(key: BetaKey, term: dict) -> tuple[CanonicalKey, Fraction]:
    """One stored (class key, coefficient) of ``key``'s value.

    Raises ValueError unless the key is in canonical text (``canon.key_graph``, strict)
    and spells a leg-free graph on n vertices with n + k - 1 edges, as every
    class of the value does, and the coefficient is positive.
    """
    text, coefficient = term["key"], term["coefficient"]
    if not (isinstance(text, str) and isinstance(coefficient, str)):
        raise ValueError("class key and coefficient must be strings")
    class_key = text.encode("ascii")
    g = key_graph(class_key, strict=True)
    if g.n != key.n or len(g.edges) != key.n + key.k - 1 or g.legs:
        raise ValueError(f"not a leg-free class key of this size: {text!r}")
    coeff = Fraction(coefficient)
    if coeff <= 0:
        raise ValueError(f"coefficient {coefficient} is not positive")
    return class_key, coeff


class BetaEngine:
    """Evaluates the family recursions with memoization.

    ``cache_dir`` enables an on-disk cache with one JSON file per key, and
    ``jobs`` > 1 lets large evaluations fork helper processes (``_run``),
    at most one per CPU this process may use; the engine holds no process
    or file between calls.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None, jobs: int = 1):
        _check_integer("jobs", jobs)
        if jobs < 1:
            raise GraphError("jobs must be at least 1")
        self._memo: dict[BetaKey, LinearCombination] = {}
        self._cache_dir = Path(cache_dir) if cache_dir else None
        # helpers beyond the CPUs this process may use would only wait for one another
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        self._jobs = min(jobs, cpus or 1)

    # ------------------------------------------------------------------
    # public entry points

    def beta(self, key: BetaKey) -> LinearCombination:
        """The leg-free value of one key, from the memo, the disk cache or the recursion."""
        _validate_key(key)
        if key.options == _DEFAULT_LIMITS:
            key = key._replace(options=None)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        combo = self._load_cached(key)
        if combo is None:
            combo = self._compute(key)
            self._store_cached(key, combo)
        self._memo[key] = combo
        return combo

    def with_legs(self, key: BetaKey, s: int = 0) -> LinearCombination:
        """The value of ``key`` with legs x1..xs on its vertices.

        Each leg-free class enters scaled by its coefficient, one placement
        per automorphism orbit of host tuples at the orbit's size, each
        keyed from its host's key without a graph (``canon.legged_classes``):
        one ``canonical_key`` call per class, which raises GraphError on a
        key that is not canonical.  With s = 0 this is the memoized leg-free
        value itself; values with legs are neither memoized nor cached.
        """
        labels = _leg_labels(s)
        combo = self.beta(key)
        return legged_classes(combo, labels) if labels else combo

    # ------------------------------------------------------------------
    # evaluation of leg-free values

    def _compute(self, key: BetaKey) -> LinearCombination:
        if key.n == 1:  # one vertex has no edge: conn with k = 0 alone has a member
            return LinearCombination([(Multigraph(1), 1)] if key.family == "conn" and key.k == 0 else [])
        if key.family == "biconn":
            return self._biconn(key.n, key.k)
        return self._block_insertions(key)

    def _run(self, applications: list[tuple[Fraction, tuple]]) -> LinearCombination:
        """The sum of the scaled operator applications of one evaluation.

        With one job, fewer than ``_FORK_MIN_APPLICATIONS`` applications or
        no ``os.fork``, they run in this process.  Otherwise this process sums
        the first of at most ``jobs`` contiguous slices, a forked helper sums
        each other one, and their sums are added to it.  Every helper is reaped.
        """
        if self._jobs == 1 or len(applications) < _FORK_MIN_APPLICATIONS or not hasattr(os, "fork"):
            return _apply_slice(applications)
        import pickle

        size = -(-len(applications) // self._jobs)
        helpers = []  # (pid, pipe) of each helper not yet reaped
        try:
            for start in range(size, len(applications), size):
                helpers.append(_fork_helper(applications[start : start + size]))
            out = _apply_slice(applications[:size])
            while helpers:
                with helpers[0][1] as pipe:
                    data = pipe.read()
                pid = helpers.pop(0)[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if not data:
                    cause = f"signal {-code}" if code < 0 else f"exit status {code}"
                    raise ChildProcessError(f"helper process {pid} ended without a result ({cause})")
                part = pickle.loads(data)
                if isinstance(part, BaseException):
                    raise part
                out._merge(part)
            return out
        finally:
            for pid, pipe in helpers:
                pipe.close()
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)

    def _biconn(self, n: int, k: int) -> LinearCombination:
        if n == 2:
            weight = Fraction(1, 2 * factorial(k + 1))
            return LinearCombination([(multi_edge_graph(k + 1), weight)])
        if k == 0:
            return LinearCombination()
        weight = Fraction(1, k + n - 1)
        applications: list[tuple[Fraction, tuple]] = []
        for rho in range(1, k + 2):
            target = self.beta(BetaKey("biconn", n - 1, k + 1 - rho))
            applications += _applications("q_map", weight, target, [(1, rho)])
        for j in range(2, n - 1):
            for rho in range(1, k - j + 2):
                target = self.beta(BetaKey("aux", n - 1, k + 1 - rho, j))
                applications += _applications("q_hat_map", weight, target, [(1, rho)])
        return self._run(applications)

    def _block_insertions(self, key: BetaKey) -> LinearCombination:
        """The value of aux, conn, two_edge or two_edge_cycles: every admitted
        block inserted into a smaller value, plus the members that are one
        admitted block (none for aux).  aux 2 inserts into biconn, aux j > 2 into
        aux j - 1 at its cut vertex, the other families into their own members."""
        n, k = key.n, key.k
        smaller = key
        if key.family == "aux":
            if n < key.j + 1 or k < key.j:
                return LinearCombination()
            smaller = BetaKey("biconn", n, k) if key.j == 2 else key._replace(j=key.j - 1)
        op = "insert_block_hat" if key.j > 2 else "insert_block"
        limits = _CONN_LIMITS if key.family == "conn" else key.options or _DEFAULT_LIMITS

        def block_ok(block_n: int, block_k: int) -> bool:
            if key.family == "two_edge_cycles" and block_k != 1:
                return False
            return block_n >= limits.min_n and block_k >= limits.min_k

        applications: list[tuple[Fraction, tuple]] = []
        for block_k in range(limits.min_k, k - limits.min_k + 1):
            for block_n in range(limits.min_n, n - limits.min_n + 2):
                if not block_ok(block_n, block_k):
                    continue
                blocks = self.beta(BetaKey("biconn", block_n, block_k))
                if not blocks:
                    continue
                target = self.beta(smaller._replace(n=n - block_n + 1, k=k - block_k))
                args = [(coeff, block) for _, coeff, block in blocks.terms()]
                weight = Fraction(block_k + block_n - 1, k + n - 1)
                applications += _applications(op, weight, target, args)
        out = self._run(applications)
        if key.family != "aux" and block_ok(n, k):
            out._merge(self.beta(BetaKey("biconn", n, k)))
        return out

    # ------------------------------------------------------------------
    # on-disk cache

    def _cache_path(self, key: BetaKey) -> Path:
        assert self._cache_dir is not None
        name = key.family + (str(key.j) if key.family == "aux" else "")
        parts = [name, f"n{key.n}", f"k{key.k}"]
        if key.options is not None:
            parts.append(f"bn{key.options.min_n}")
            parts.append(f"bk{key.options.min_k}")
        return self._cache_dir / ("-".join(parts) + ".json")

    def _load_cached(self, key: BetaKey) -> LinearCombination | None:
        """The value stored for ``key``, or None if there is none or the file
        is not a version-``CACHE_FORMAT_VERSION`` value of this very key.

        Stored class keys are trusted, not recomputed: a load checks the
        header against ``key`` and that each term is a class key of this
        size in canonical text with a positive coefficient (``_cached_term``).
        """
        if self._cache_dir is None:
            return None
        path = self._cache_path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError):  # not UTF-8 JSON, or nested too deeply
            return None
        if not isinstance(data, dict):
            return None
        if any(data.get(name) != value for name, value in _cache_header(key).items()):
            return None
        try:
            terms = [_cached_term(key, term) for term in data["terms"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError, GraphError):
            return None
        combo = LinearCombination()
        combo._classes = dict(terms)
        return combo if len(combo._classes) == len(terms) else None  # no key twice

    def _store_cached(self, key: BetaKey, combo: LinearCombination) -> None:
        if self._cache_dir is None:
            return
        self._cache_dir.mkdir(parents=True, exist_ok=True)
        payload = _cache_header(key)
        payload["terms"] = [
            {"coefficient": f"{coeff.numerator}/{coeff.denominator}", "key": class_key.decode("ascii")}
            for class_key, coeff in sorted(combo.class_coefficients().items())
        ]
        # write a temporary file beside the target and rename it into place, so
        # runs sharing the directory never read a half-written file
        path = self._cache_path(key)
        temp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(8).hex()}.tmp")
        try:
            with open(temp, "x", encoding="utf-8") as handle:
                # compact, so that json takes its C encoder
                handle.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise

