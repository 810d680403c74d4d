"""Ground truth for autgraph outputs, computed apart from the package.

Uses the standard library only and imports nothing from ``autgraph``.

* ``mass`` gives the exact total of 1/|Aut| over the classes of a family
  from exponential generating functions with ``Fraction`` coefficients
  (Harary & Palmer, *Graphical Enumeration*, 1973).  The series are in x
  (labelled vertices) and y (labelled edges), so the coefficient of
  x^n y^m is the number of labelled structures over n! m!, which by
  orbit counting is the sum of 1/|Aut| over their isomorphism classes,
  where Aut permutes vertices and parallel edges.
  - ``conn``: C = log(sum_n exp(binom(n, 2) y) x^n / n!).
  - ``biconn``: the blocks B, from the block--cut-vertex relation
    C'(x) = exp(B'(x C'(x))), solved degree by degree.
  - ``two_edge``: the same relation with the single-edge block dropped.
  - ``two_edge_cycles``: the same relation with cycle blocks only, whose
    series is sum_{n>=2} x^n y^n / (2n).
  Legs x1..xs carry distinct labels and each sits on one of n vertices,
  so s legs multiply the mass by n^s.
* ``aut_order`` counts automorphisms by backtracking over vertex images,
  times the product of multiplicity factorials.
* ``is_member`` decides family membership; ``isomorphic`` tests two
  graphs for isomorphism.

A graph is ``(n, edges, legs)``: vertices 1..n, edges a list of vertex
pairs (one per parallel edge), legs a list of (label, vertex) pairs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

FAMILIES = ("conn", "biconn", "two_edge", "two_edge_cycles")


# ----------------------------------------------------------------------
# bivariate power series: s[i][m] is the coefficient of x^i y^m


def _zero(nx: int, ny: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * (ny + 1) for _ in range(nx + 1)]


def _mul(a, b, nx: int, ny: int):
    out = _zero(nx, ny)
    for i, row_a in enumerate(a):
        for j in range(nx + 1 - i):
            row_b = b[j]
            target = out[i + j]
            for m, ca in enumerate(row_a):
                if ca:
                    for p in range(ny + 1 - m):
                        if row_b[p]:
                            target[m + p] += ca * row_b[p]
    return out


def _add_scaled(acc, term, scale) -> None:
    for i, row in enumerate(term):
        for m, c in enumerate(row):
            if c:
                acc[i][m] += scale * c


def _exp(f, nx: int, ny: int):
    """exp(f) for a series without x^0 terms: sum of f^j / j!, j <= nx."""
    assert not any(f[0]), "exp needs a series with no x^0 terms"
    out = _zero(nx, ny)
    out[0][0] = Fraction(1)
    power = out
    for j in range(1, nx + 1):
        power = _mul(power, f, nx, ny)
        _add_scaled(out, power, Fraction(1, factorial(j)))
    return out


def _log_one_plus(f, nx: int, ny: int):
    """log(1 + f) for a series without x^0 terms."""
    assert not any(f[0]), "log needs a series with no x^0 terms"
    out = _zero(nx, ny)
    power = _zero(nx, ny)
    power[0][0] = Fraction(1)
    for j in range(1, nx + 1):
        power = _mul(power, f, nx, ny)
        _add_scaled(out, power, Fraction((-1) ** (j + 1), j))
    return out


def _derivative(f, nx: int, ny: int):
    out = _zero(nx, ny)
    for i in range(nx):
        for m in range(ny + 1):
            out[i][m] = (i + 1) * f[i + 1][m]
    return out


def _integral(f, nx: int, ny: int):
    out = _zero(nx, ny)
    for i in range(nx):
        for m in range(ny + 1):
            out[i + 1][m] = f[i][m] / (i + 1)
    return out


def _compose(coeffs, u_powers, nx: int, ny: int):
    """sum_i coeffs[i](y) u^i, with u_powers[i] = u^i precomputed."""
    out = _zero(nx, ny)
    for i in range(1, nx + 1):
        for p, c in enumerate(coeffs[i]):
            if c:
                for row_out, row_u in zip(out, u_powers[i]):
                    for m in range(ny + 1 - p):
                        row_out[m + p] += c * row_u[m]
    return out


def _powers(u, nx: int, ny: int):
    out = [_zero(nx, ny)]
    out[0][0][0] = Fraction(1)
    for _ in range(nx):
        out.append(_mul(out[-1], u, nx, ny))
    return out


def _times_x(f, nx: int, ny: int):
    out = _zero(nx, ny)
    for i in range(nx):
        out[i + 1] = list(f[i])
    return out


def _connected(nx: int, ny: int):
    """C(x, y): connected loopless multigraphs, labelled vertices and edges."""
    all_graphs = _zero(nx, ny)
    for n in range(1, nx + 1):
        pairs = comb(n, 2)
        for m in range(ny + 1):
            all_graphs[n][m] = Fraction(pairs**m, factorial(m) * factorial(n))
    return _log_one_plus(all_graphs, nx, ny)


def _blocks_derivative(nx: int, ny: int):
    """B'(t, y) as coefficients of t^i, from C'(x) = exp(B'(x C'(x)))."""
    c_prime = _derivative(_connected(nx + 1, ny), nx + 1, ny)
    c_prime = [row[:] for row in c_prime[: nx + 1]]
    u_powers = _powers(_times_x(c_prime, nx, ny), nx, ny)
    b_prime = _zero(nx, ny)
    for i in range(1, nx + 1):
        # b'_i enters [x^i] exp(B'(u)) only through b'_i u^i, whose x^i
        # coefficient is b'_i itself, because u = x + O(x^2).
        current = _exp(_compose(b_prime, u_powers, nx, ny), nx, ny)
        for m in range(ny + 1):
            b_prime[i][m] = c_prime[i][m] - current[i][m]
    return b_prime


def _connected_from_blocks(b_prime, nx: int, ny: int):
    """The connected graphs whose blocks B' generates: T' = exp(B'(x T'))."""
    t_prime = _zero(nx, ny)
    t_prime[0][0] = Fraction(1)
    for _ in range(nx + 1):
        u_powers = _powers(_times_x(t_prime, nx, ny), nx, ny)
        t_prime = _exp(_compose(b_prime, u_powers, nx, ny), nx, ny)
    return _integral(t_prime, nx, ny)


@lru_cache(maxsize=None)
def _series(family: str, nx: int, ny: int):
    if family == "conn":
        return _connected(nx, ny)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "two_edge_cycles":
        b_prime = _zero(nx, ny)
        for size in range(2, nx + 2):
            if size <= ny:
                b_prime[size - 1][size] = Fraction(1, 2)
    else:
        b_prime = _blocks_derivative(nx, ny)
    if family == "biconn":
        return _integral(b_prime, nx, ny)
    if family == "two_edge":
        b_prime = [row[:] for row in b_prime]
        b_prime[1][1] -= 1  # the single edge, x^2 y / 2 in B
    return _connected_from_blocks(b_prime, nx, ny)


def mass(family: str, n: int, k: int, s: int = 0) -> Fraction:
    """Sum of 1/|Aut| over the classes of the family with n vertices,
    cyclomatic number k and s labelled legs."""
    m = n + k - 1
    if n < 1 or k < 0 or s < 0 or m < 0:
        raise ValueError("need n >= 1, k >= 0, s >= 0")
    # one cached series size covers every cell up to n = 8, n + k - 1 = 12
    return _series(family, max(n, 8), max(m, 12))[n][m] * n**s


# ----------------------------------------------------------------------
# automorphisms, isomorphism and membership by direct search


def _multiplicities(edges) -> Counter:
    return Counter((u, v) if u < v else (v, u) for u, v in edges)


def _structure(graph):
    n, edges, legs = graph
    mult = _multiplicities(edges)
    adj = [[0] * (n + 1) for _ in range(n + 1)]
    for (u, v), count in mult.items():
        adj[u][v] = adj[v][u] = count
    legs_at = [() for _ in range(n + 1)]
    for label, v in legs:
        legs_at[v] = tuple(sorted(legs_at[v] + (label,)))
    signature = [None] + [
        (sum(adj[v]), legs_at[v], tuple(sorted(c for c in adj[v] if c))) for v in range(1, n + 1)
    ]
    return n, adj, signature, mult


def _vertex_maps(a, b, stop_at_first: bool) -> int:
    """Number of vertex bijections a -> b preserving multiplicities and legs."""
    n, adj_a, sig_a, _ = a
    n_b, adj_b, sig_b, _ = b
    if n != n_b or sorted(sig_a[1:]) != sorted(sig_b[1:]):
        return 0
    order = sorted(range(1, n + 1), key=lambda v: (-sig_a[v][0], v))
    image = [0] * (n + 1)
    used = [False] * (n + 1)

    def extend(depth: int) -> int:
        if depth == n:
            return 1
        v = order[depth]
        found = 0
        for w in range(1, n + 1):
            if used[w] or sig_b[w] != sig_a[v]:
                continue
            if any(adj_a[v][order[d]] != adj_b[w][image[order[d]]] for d in range(depth)):
                continue
            image[v] = w
            used[w] = True
            found += extend(depth + 1)
            used[w] = False
            if found and stop_at_first:
                return found
        return found

    return extend(0)


def aut_order(graph) -> int:
    """|Aut| of a multigraph with labelled legs: vertex maps times prod mult!."""
    structure = _structure(graph)
    edge_factor = 1
    for count in structure[3].values():
        edge_factor *= factorial(count)
    return _vertex_maps(structure, structure, stop_at_first=False) * edge_factor


def invariant(graph) -> tuple:
    """An isomorphism invariant: vertex signatures with their neighbours'."""
    n, adj, signature, _ = _structure(graph)
    return tuple(
        sorted(
            (signature[v], tuple(sorted((adj[v][w], signature[w]) for w in range(1, n + 1) if adj[v][w])))
            for v in range(1, n + 1)
        )
    )


def isomorphic(a, b) -> bool:
    return _vertex_maps(_structure(a), _structure(b), stop_at_first=True) > 0


def _connected_without(n: int, edges, removed_vertex: int = 0) -> bool:
    neighbours = {v: set() for v in range(1, n + 1) if v != removed_vertex}
    for u, v in edges:
        if removed_vertex not in (u, v):
            neighbours[u].add(v)
            neighbours[v].add(u)
    if not neighbours:
        return True
    start = next(iter(neighbours))
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(neighbours)


def is_member(family: str, graph) -> bool:
    """Whether the graph belongs to the family (legs play no part)."""
    n, edges, _ = graph
    if any(u == v or not (1 <= u <= n and 1 <= v <= n) for u, v in edges):
        return False
    if not _connected_without(n, edges):
        return False
    if family == "conn":
        return True
    if family == "biconn":
        if n == 2:
            return len(edges) >= 1
        return n >= 3 and all(_connected_without(n, edges, v) for v in range(1, n + 1))
    if family == "two_edge":
        if n > 1 and len(edges) < n:
            return False
        mult = _multiplicities(edges)
        for pair, count in mult.items():
            if count == 1:
                rest = [e for e in mult if e != pair]
                if not _connected_without(n, rest):
                    return False
        return True
    raise ValueError(f"no membership test for family {family!r}")
