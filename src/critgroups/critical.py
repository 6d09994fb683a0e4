"""Critical groups of connected multigraphs.

The group of a graph on n vertices is Z^{n-1} modulo the column span of the
reduced Laplacian L, and its order |K| = det L is the spanning-tree count.
K is the direct sum of the Z/d_i over its invariant factors d_i > 1. A
`CriticalGroup` keeps, for each d_i, a row: a coordinate map K -> Z/d_i,
taken together an isomorphism onto the direct sum. Row i of the U of a
Smith form U L V = D, taken mod d_i, is one such map, but any row that
gives an isomorphism serves (Cohen, GTM 138, section 2.4). So the order
of a class with coordinates w_i is the lcm of the d_i / gcd(d_i, w_i);
two configurations of one degree are equivalent when each d_i divides the
coordinate w_i of their difference, which is tested one coordinate at a
time; and the pair scan takes a gcd of the coordinates scaled into Z/e, e
the exponent, one coordinate at a time, in one loop for every rank, and
appends each pair's report, a slotted dataclass. Chip counts that are not
integers are refused by name.

`critical_group` factors L once, by `linalg._factor_laplacian`, which
gives |K| and a solve for adj(L) b, and solves columns with it: first the
unit column of L's last row, then seeded ones. On a sparse graph, such as
a polygon stack, the factorization is a fraction-free elimination in a
minimum-degree order; on a dense one it is the dense symmetric Bareiss
elimination, four pivots a pass; either gives the same columns. They map
K into a sum of copies of Z/|K|. The first column alone maps K onto
Z/|K|, and so certifies K cyclic with no Smith step, exactly when the
class of delta(v, q), v the vertex of L's last row, generates K, as it
does on a polygon stack whose top polygon has four or more sides:
with q = n - 1, v = n - 2 and q are adjacent on the top path, and the
paper's theorem applies. Otherwise, once the image has order |K|, the
Smith form of the columns modulo |K|, by `linalg._smith_mod`, gives the
factors and rows of K itself. Random sandpile groups are cyclic or of
small rank (Wood, J. AMS 30, 2017), so a few columns almost always
certify K. Only when they do not does `smith_rows_mod` run the same
modular Smith elimination on L itself, built densely only then, with no V
and no full U. The integer `smith_normal_form` is never used here: it
stays the reference the tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul, sub
from random import Random
from typing import Iterable, Iterator, Sequence

from .graphs import Multigraph, _int, _ints, is_connected
from .linalg import IntMatrix, _factor_laplacian, _laplacian, _smith_mod, smith_rows_mod

# Most columns of the certificate in `critical_group`. The image of K under
# j seeded columns is all of K when, for each prime p of |K|, the columns
# reach every direction of the p-part, which needs j at least its rank:
# random sandpile groups almost never have a p-rank above 2 (Wood, J. AMS
# 30, 2017), and a p-part of rank r is missed by j >= r random columns
# with probability below p^(r-j) / (p - 1), so the columns past the rank
# are for unlucky draws at p = 2.
_CERTIFICATE_COLUMNS = 8


def reduced_laplacian(g: Multigraph, q: int) -> IntMatrix:
    """Graph Laplacian with row and column q deleted.

    Row/column i corresponds to vertex i, skipping q; diagonal entries are
    degrees with multiplicity, off-diagonal entries minus the multiplicity.
    """
    if g.n < 2:
        raise ValueError("reduced Laplacian needs at least 2 vertices")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    return IntMatrix.from_rows(_laplacian(g.n, g._edges, q))


@dataclass
class CriticalGroup:
    """Invariant factors d_i > 1 and, for each, a row that maps K to Z/d_i.

    The rows together give an isomorphism of K onto the direct sum of the
    Z/d_i. They are coordinate maps, not literally rows of a Smith form's U:
    a certified group has rows read off the image of K under seeded
    columns of adj(L), and any rows that give an isomorphism answer every
    query alike. Each row has length n with a 0 at the deleted vertex, so a
    full-length configuration c has coordinate sum(row[v] * c[v]) in Z/d_i.
    """

    invariant_factors: list[int]
    order: int
    deleted_vertex: int
    n: int
    rows: list[list[int]]


def critical_group(g: Multigraph, q: int | None = None) -> CriticalGroup:
    """Critical group of a connected multigraph (trivial for one vertex).

    One factorization of L gives D = det L and a solve, by which the
    columns b of `_certificate_columns` are solved one at a time: after j
    of them, W = adj(L) B_j. As L is symmetric, (L z)^T W = D z^T B_j, so
    c -> c^T W mod D is a homomorphism from K to (Z/D)^j, injective once
    its image has order D. The first column, e_{m-1} for the m = n - 1 rows
    of L, is the one the dense solve reads by back substitution alone, and
    it maps K onto Z/D, by the pairing of K with the class of delta(v, q),
    v the vertex of row m - 1, exactly when that class generates K; then
    h = gcd(D, column) = 1 and the column is K's one row. The image is
    spanned by the rows r of W, of orders D / gcd(D, r), so its exponent is
    D/h for h = gcd(D, W), prime by prime. `_certify` reads the factors and
    rows of the image at the column where h reaches 1, as the image then
    has exponent D and so is all of K, and at each column that leaves h
    unchanged below D. Once the image has order D its exponent is K's, so
    h falls no further and the next column is read, at the cost of one more
    solve; while h = D the image is 0. The last column is read whatever it
    does to h, and read once. The columns stop when the factors multiply to
    D, or when j >= 4 of them leave the image short of D with j factors (K
    then likely has rank above j), or after `_CERTIFICATE_COLUMNS`; then
    `smith_rows_mod` eliminates the dense L modulo the same D. Raises
    ValueError for a disconnected graph.
    """
    if q is None:
        q = g.n - 1
    order, solve = _factor_laplacian(g, q)
    if order == 0:
        raise ValueError("graph must be connected")
    if order == 1:
        factors, rows = [], []
    else:
        cols, h = [], order  # h = gcd(|K|, columns so far): the image has exponent |K| / h
        for b in _certificate_columns(g.n - 1):
            u = [x % order for x in solve(b)]
            cols.append(u)
            h0, h = h, gcd(h, *u)
            if h == 1 and len(cols) == 1:
                factors, rows = [order], cols
                break
            if h == 1 or h == h0 < order or len(cols) == _CERTIFICATE_COLUMNS:
                factors, rows = _certify(order, cols)
                if prod(factors) == order or len(cols) >= 4 and len(factors) == len(cols):
                    break
        if prod(factors) != order:
            factors, rows = smith_rows_mod(IntMatrix.from_rows(_laplacian(g.n, g._edges, q)), order)
    for row in rows:
        row.insert(q, 0)
    return CriticalGroup(factors, order, q, g.n, rows)


def _certificate_columns(n: int) -> Iterator[bytes]:
    """The _CERTIFICATE_COLUMNS columns of length n >= 1 of the
    certificate's right-hand side B: first e_{n-1}, which a solve reads by
    back substitution alone, then columns of entries 0..255 from a Random
    seeded by n alone. The Random is made only when a second column is
    asked for, as the first alone certifies most groups."""
    yield bytes(n - 1) + b"\1"
    data = Random(n).randbytes(n * (_CERTIFICATE_COLUMNS - 1))
    yield from (data[i:i + n] for i in range(0, len(data), n))


def _certify(d: int, cols: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Invariant factors and rows of the image of c -> c^T W mod d, for the
    columns W of adj(L) B taken mod d = det L.

    The image is the lattice spanned by the rows of W and d Z^j, modulo
    d Z^j. `_smith_mod` of the transpose of W, the j x n matrix whose rows
    are the columns, gives pivots s_i | d and rows u_i of its left
    transform U mod d. The image is then the sum of the Z/(d/s_i), with
    coordinate i of c^T W read as (c^T W u_i) / s_i mod d/s_i. The factors
    d/s_i > 1 come in the chain order, and their product divides d; it is d
    exactly when the map is injective, and then the rows describe K.
    """
    w = list(zip(*cols))
    pivots, u_row = _smith_mod(cols, d)
    factors, rows = [], []
    for label, s in reversed(pivots):
        if s == d:
            continue
        u = u_row(label)
        col = [sum(map(mul, x, u)) for x in w]
        if d % s or any(x % s for x in col):
            raise ArithmeticError(f"an image factor of {s.bit_length()} bits does not divide "
                                  f"|K|, of {d.bit_length()} bits, and the image rows")
        factors.append(d // s)
        rows.append([x // s % (d // s) for x in col])
    if d % prod(factors):
        raise ArithmeticError(f"an image whose order has {prod(factors).bit_length()} bits does not divide "
                              f"|K|, of {d.bit_length()} bits")
    return factors, rows


def is_cyclic(kg: CriticalGroup) -> bool:
    return len(kg.invariant_factors) <= 1


def delta_config(g: Multigraph, x: int, y: int) -> list[int]:
    """One chip at x, minus one at y, zero elsewhere."""
    x, y = _int(x, "x"), _int(y, "y")
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
    """Order of a degree-zero configuration's class in the critical group:
    the lcm over the coordinates w_i of d_i / gcd(d_i, w_i). A non-integer
    chip count makes the degree sum a non-int and is refused by name."""
    if type(s := sum(c)) is not int:
        s = sum(c := _ints(c, "c at vertex {}"))
    if s != 0:
        raise ValueError(f"configuration must have degree 0, got {s}")
    if len(c) != kg.n:
        raise ValueError(f"configuration length {len(c)} != n={kg.n}")
    return _order(kg, (sum(map(mul, row, c)) for row in kg.rows))


def are_equivalent(kg: CriticalGroup, c1: Sequence[int], c2: Sequence[int]) -> bool:
    """True iff the two configurations differ by a sequence of firing moves:
    they have the same degree and d_i divides each coordinate of c1 - c2.
    The coordinates are read in turn and the first one that d_i does not
    divide ends the test. A non-integer chip count is refused by name."""
    if len(c1) != kg.n or len(c2) != kg.n:
        raise ValueError(f"configurations must have length {kg.n}")
    if type(s1 := sum(c1)) is not int:
        s1 = sum(c1 := _ints(c1, "c1 at vertex {}"))
    if type(s2 := sum(c2)) is not int:
        s2 = sum(c2 := _ints(c2, "c2 at vertex {}"))
    if s1 != s2:
        return False
    diff = list(map(sub, c1, c2))
    for d, row in zip(kg.invariant_factors, kg.rows):
        if sum(map(mul, row, diff)) % d:
            return False
    return True


@dataclass(slots=True)
class PairReport:
    x: int
    y: int
    element_order: int
    generates: bool


def pair_report(kg: CriticalGroup, x: int, y: int) -> PairReport:
    x, y = _int(x, "x"), _int(y, "y")
    if x == y or not (0 <= x < kg.n and 0 <= y < kg.n):
        raise ValueError(f"invalid vertex pair ({x},{y}) for n={kg.n}")
    order = _order(kg, (row[x] - row[y] for row in kg.rows))
    return PairReport(x, y, order, order == kg.order)


def find_generating_pairs(g: Multigraph) -> list[PairReport]:
    """Reports for every unordered vertex pair, in lexicographic order."""
    return _pair_reports(critical_group(g))


def _pair_reports(kg: CriticalGroup) -> list[PairReport]:
    """`pair_report` for every pair. Coordinate i, scaled by e/d_i for the
    exponent e = d_r, maps K into Z/e, and the order of w is the lcm of the
    d_i / gcd(d_i, w_i) = e / gcd(e, w_i e/d_i), which is
    e / gcd(e, w_1 e/d_1, ..., w_r e/d_r). One loop serves every rank: for
    each x, the gcds of the pairs (x, y > x) start from the first scaled
    row, a row of zeros with e = 1 for the trivial group, and each later
    row is folded in, one two-argument gcd a pair, only while some gcd at
    x is above 1; so a cyclic group costs one gcd a pair. The reports,
    slotted dataclasses, are appended one at a time."""
    e, order = (kg.invariant_factors or [1])[-1], kg.order
    first, *rest = [[x * (e // d) for x in row] for d, row in zip(kg.invariant_factors, kg.rows)] or [[0] * kg.n]
    append = (reports := []).append
    for x, a in enumerate(first):
        hs = [gcd(e, a - b) for b in first[x + 1:]]  # gcd(e, w_1, ..., w_i) of the pairs (x, y > x)
        for row in rest:
            if hs.count(1) == len(hs):  # every pair at x already has order e
                break
            a = row[x]
            hs = [gcd(h, a - b) for h, b in zip(hs, row[x + 1:])]
        y = x
        for h in hs:
            y += 1
            append(PairReport(x, y, o := e // h, o == order))
    return reports


# ----------------------------------------------------------------------------
# Direct sums (wedge-sum comparisons)


def direct_sum_factors(fs1: Sequence[int], fs2: Sequence[int]) -> list[int]:
    """Invariant factors of the direct sum of two invariant-factor lists.

    Replacing a pair (a, b) by (gcd, lcm) keeps every prime's multiset of
    exponents; doing it for every i < j leaves each prime's exponents in
    ascending order, which is the divisibility chain. Entries go through
    `operator.index` and must be at least 1; those equal to 1 are dropped.
    """
    fs = sorted(_ints(fs1, "fs1[{}]") + _ints(fs2, "fs2[{}]"))
    if fs and fs[0] < 1:
        raise ValueError(f"invariant factor {fs[0]} is below 1")
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            fs[i], fs[j] = gcd(fs[i], fs[j]), lcm(fs[i], fs[j])
    return [f for f in fs if f > 1]
