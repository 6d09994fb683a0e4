"""Critical groups of connected multigraphs.

The group of a graph on n vertices is Z^{n-1} modulo the column span of the
reduced Laplacian L, and its order |K| = det L is the spanning-tree count.
K is the direct sum of the Z/d_i over its invariant factors d_i > 1. A
`CriticalGroup` keeps, for each d_i, a row: a coordinate map K -> Z/d_i,
taken together an isomorphism onto the direct sum. Row i of the U of a
Smith form U L V = D, taken mod d_i, is one such map, but any row that
gives an isomorphism serves, so element orders, equivalence and pair
reports all come from one lcm over the coordinates (Cohen, GTM 138,
section 2.4).

`critical_group` runs one symmetric Bareiss elimination of L with a few
seeded right-hand sides, which gives |K| and, in the common cyclic case, a
row that certifies K = Z/|K|. Only when the certificate fails does it
eliminate L modulo |K| (`smith_rows_mod`), with no V and no full U; the
integer `smith_normal_form` stays the reference the tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from random import Random
from typing import Iterable, Sequence

from .graphs import Multigraph, is_connected
from .linalg import IntMatrix, _bareiss, smith_rows_mod

# Columns of the cyclic certificate in `critical_group`. For a prime p of
# |K| whose p-part is cyclic, adj(L) b vanishes mod p for about one seeded
# column b in p, so four columns all miss 2 with probability about 1/16
# and an odd prime with at most 1/81.
_CERTIFICATE_COLUMNS = 4


def reduced_laplacian(g: Multigraph, q: int) -> IntMatrix:
    """Graph Laplacian with row and column q deleted.

    Row/column i corresponds to vertex i, skipping q; diagonal entries are
    degrees with multiplicity, off-diagonal entries minus the multiplicity.
    """
    if g.n < 2:
        raise ValueError("reduced Laplacian needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    return _laplacian(g, q)


def _laplacian(g: Multigraph, q: int) -> IntMatrix | None:
    """Reduced Laplacian filled from the degrees and the edge list, with no
    connectivity check: its determinant is the spanning-tree count, 0
    exactly when g is disconnected (0x0, determinant 1, for one vertex).
    None when g has fewer distinct edges than a spanning tree, so that a
    disconnected graph on many vertices never gets its dense matrix."""
    if not (0 <= q < g.n):
        raise ValueError(f"vertex {q} out of range for n={g.n}")
    edges = g.edge_items()
    if len(edges) < g.n - 1:
        return None
    m = g.n - 1
    entries = [0] * (m * m)
    for v in range(g.n):
        if v != q:
            i = v - (v > q)
            entries[i * m + i] = g.degree(v)
    for (u, v), mult in edges:
        if q not in (u, v):
            i, j = u - (u > q), v - (v > q)
            entries[i * m + j] = entries[j * m + i] = -mult
    return IntMatrix(m, m, entries)


@dataclass
class CriticalGroup:
    """Invariant factors d_i > 1 and, for each, a row that maps K to Z/d_i.

    The rows together give an isomorphism of K onto the direct sum of the
    Z/d_i. They are coordinate maps, not literally rows of a Smith form's U:
    a group certified cyclic has a row that is a unit multiple, mod |K|, of
    such a row. Each row has length n with a 0 at the deleted vertex, so a
    full-length configuration c has coordinate sum(row[v] * c[v]) in Z/d_i.
    """

    invariant_factors: list[int]
    order: int
    deleted_vertex: int
    n: int
    rows: list[list[int]]


def critical_group(g: Multigraph, q: int | None = None) -> CriticalGroup:
    """Critical group of a connected multigraph (trivial for one vertex).

    One elimination of [L | B] gives D = det L and the columns u = adj(L) b
    of a few seeded columns b. As L is symmetric, u L = D b, so c -> u.c
    mod D is a homomorphism from K onto the subgroup of Z/D that gcd(D, u)
    generates: an isomorphism K -> Z/D once gcd(D, u) = 1. Columns are
    merged until that holds; if it never does, `smith_rows_mod` eliminates
    L modulo the same D.
    """
    if q is None:
        q = g.n - 1
    a = _laplacian(g, q)
    order, adj_b = (0, None) if a is None else _bareiss(a, _certificate_columns(a.rows))
    if adj_b is None:
        raise ValueError("graph must be connected")
    if order == 1:
        factors, rows = [], []
    elif (row := _cyclic_row(order, adj_b)) is not None:
        factors, rows = [order], [row]
    else:
        factors, rows = smith_rows_mod(a, order)
    for row in rows:
        row.insert(q, 0)
    return CriticalGroup(factors, order, q, g.n, rows)


def _certificate_columns(n: int) -> list[bytes]:
    """The n x _CERTIFICATE_COLUMNS right-hand side B, by rows: entries
    0..255 from a generator seeded by n alone."""
    k = _CERTIFICATE_COLUMNS
    data = Random(n).randbytes(n * k)
    return [data[i:i + k] for i in range(0, n * k, k)]


def _cyclic_row(d: int, adj_b: list[list[int]]) -> list[int] | None:
    """A row u with u L = 0 mod d and gcd(d, u) = 1, merged from the columns
    of adj(L) B; None if the merge leaves a common prime of d and u.

    u + t v, with t the part of d prime to gcd(d, u), keeps u mod every
    prime that divides t and is t v mod the primes of gcd(d, u): only
    primes that divide both u and v stay common, and d is never factored.
    """
    u, common = [0] * len(adj_b), d
    for v in zip(*adj_b):
        t = d
        while (h := gcd(t, common)) > 1:
            t //= h
        u = [(x + t * y) % d for x, y in zip(u, v)]
        common = gcd(d, *u)
        if common == 1:
            return u
    return None


def is_cyclic(kg: CriticalGroup) -> bool:
    return len(kg.invariant_factors) <= 1


def delta_config(g: Multigraph, x: int, y: int) -> list[int]:
    """One chip at x, minus one at y, zero elsewhere."""
    if x == y:
        raise ValueError("delta configuration needs two distinct vertices")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"pair ({x},{y}) out of range for n={g.n}")
    c = [0] * g.n
    c[x] = 1
    c[y] = -1
    return c


def _order(kg: CriticalGroup, w: Iterable[int]) -> int:
    """Order of the element with coordinates w in the sum of the Z/d_i."""
    return lcm(*(d // gcd(d, wi) for d, wi in zip(kg.invariant_factors, w)))


def configuration_order(kg: CriticalGroup, c: Sequence[int]) -> int:
    """Order of a degree-zero configuration's class in the critical group."""
    if sum(c) != 0:
        raise ValueError(f"configuration must have degree 0, got {sum(c)}")
    if len(c) != kg.n:
        raise ValueError(f"configuration length {len(c)} != n={kg.n}")
    return _order(kg, (sum(r * x for r, x in zip(row, c)) for row in kg.rows))


def are_equivalent(kg: CriticalGroup, c1: Sequence[int], c2: Sequence[int]) -> bool:
    """True iff the two configurations differ by a sequence of firing moves."""
    if len(c1) != kg.n or len(c2) != kg.n:
        raise ValueError(f"configurations must have length {kg.n}")
    if sum(c1) != sum(c2):
        return False
    return configuration_order(kg, [a - b for a, b in zip(c1, c2)]) == 1


@dataclass
class PairReport:
    x: int
    y: int
    element_order: int
    generates: bool


def pair_report(kg: CriticalGroup, x: int, y: int) -> PairReport:
    if x == y or not (0 <= x < kg.n and 0 <= y < kg.n):
        raise ValueError(f"invalid vertex pair ({x},{y}) for n={kg.n}")
    order = _order(kg, (row[x] - row[y] for row in kg.rows))
    return PairReport(x, y, order, order == kg.order)


def find_generating_pairs(g: Multigraph) -> list[PairReport]:
    """Reports for every unordered vertex pair, in lexicographic order."""
    return _pair_reports(critical_group(g))


def _pair_reports(kg: CriticalGroup) -> list[PairReport]:
    return [pair_report(kg, x, y) for x in range(kg.n) for y in range(x + 1, kg.n)]


# ----------------------------------------------------------------------------
# Direct sums (wedge-sum comparisons)


def direct_sum_factors(fs1: Sequence[int], fs2: Sequence[int]) -> list[int]:
    """Invariant factors of the direct sum of two invariant-factor lists.

    Replacing a pair (a, b) by (gcd, lcm) keeps every prime's multiset of
    exponents; doing it for every i < j leaves each prime's exponents in
    ascending order, which is the divisibility chain.
    """
    fs = sorted(f for f in (*fs1, *fs2) if f > 1)
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = gcd(fs[i], fs[j]), lcm(fs[i], fs[j])
    return [f for f in fs if f > 1]
