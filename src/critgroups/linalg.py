"""Exact integer matrices: one fraction-free (Bareiss) elimination for the
determinant, whose symmetric triangle also gives the adjugate and adj(a) b
by back substitution, Smith normal form with materialized unimodular
transforms (the reference the tests and the search's re-verification
use), and one Smith elimination modulo D, `_smith_mod`: one loop with
one pivot rule, an entry whose gcd with D is g = gcd(D, block), and one
row step that clears its column, folding rows and columns into such an
entry where none is found. It gives the invariant factors of a
nonsingular matrix and their rows of U modulo its determinant
(`smith_rows_mod`), and the Smith form, modulo the group order, of the
columns that `critical_group` certifies groups with.

On a symmetric matrix, such as every reduced Laplacian, `_eliminate`
updates only the upper triangle, which about halves its work, and takes
four pivots a pass by Bareiss's multistep update, which makes five
products and one division per entry where four single steps make eight
and four; the pass reads its multipliers by back substitution off its own
finished rows, so it forms no adjugate of its pivot block. A zero pivot
mirrors the upper triangle into the lower one and the elimination goes
on with row swaps. A symmetric elimination with no swap keeps its
multipliers in its triangle, and one back-substitution loop, `_back`,
reads everything else off it: `_solve` gives adj(a) b for one column,
from b's first nonzero entry on, so a unit column e_c costs the forward
steps after c only, and the search in `verify` reads the
whole adjugate with `_adjugate`, and edge deletions, element orders and
cyclicity off det and adj by formula. Its graphs are connected:
`lorenzini_check` refuses a disconnected one before it eliminates. The
substitutions index y and the rows in place and slice neither: on
matrices of at most 8 rows, those of the search's samples on up to 9
vertices, copying two slices for each row's products made `_adjugate`
cost about half as much again, and on large matrices the big-integer
products dominate either way.

A graph's reduced Laplacian L has one entry, `_factor_laplacian`, which
gives det L and a solve b -> adj(L) b; `critical_group` and the tree count
in `verify` read it and never learn which kernel ran. A sparse L, such as
a polygon stack's, is eliminated by `sparse._sparse_factor` straight from the
edge list, fraction-free in a minimum-degree order and with lazy scaling
per entry, so that its work follows the fill, not n^3. The kernel is
chosen once, from the number of edges: when the sparse kernel's
estimated work, weighted by its higher cost per entry, exceeds the dense
kernel's m^3 / 6 for an m x m L, `_laplacian` builds L's dense rows from
the edge table alone, and they go through `_eliminate` and `_solve`.
Inside the package a matrix travels as its list of rows; `IntMatrix` is
only what the public functions take and return.

Everything runs on Python's arbitrary-precision ints; reduced-Laplacian
minors overflow 64 bits almost immediately, so there is deliberately no
floating-point or fixed-width path anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, zip_longest
from math import gcd, prod
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .graphs import _int, _ints
from .sparse import _sparse_factor


class IntMatrix:
    """Dense integer matrix stored row-major, as the public functions take
    and return it. Every entry must be an int: a float is refused."""

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        rows, cols = _int(rows, "rows"), _int(cols, "cols")
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        entries = _ints(entries, "entry {}")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> IntMatrix:
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), cols, [x for r in data for x in r])

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        n = _int(n, "n")
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> int:
        return self.entries[_int(i, "i") * self.cols + _int(j, "j")]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def diagonal(self) -> list[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.to_rows())) or [()] * other.cols
        return IntMatrix(self.rows, other.cols, [sum(map(mul, r, c)) for r in self.to_rows() for c in cols])

    def mult_vector(self, vec: Sequence[int]) -> list[int]:
        if len(vec := _ints(vec, "vec entry {}")) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        return [sum(map(mul, r, vec)) for r in self.to_rows()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


def _eliminate(m: list[list[int]]) -> tuple[int, list[list[int]], bool]:
    """Bareiss fraction-free elimination of a square a, given as its rows m,
    which it owns and overwrites: (det a, m eliminated, whether the
    elimination stayed symmetric). det is 0 when a is singular.

    Entry (i, j) of the block left after step k is a minor of a bordered
    by row i and column j, divided exactly by the previous pivot, and row k
    ends at step k, so the rows left are an upper triangular system whose
    last pivot is the determinant of the row-swapped matrix.

    For a symmetric a the block stays symmetric until rows are swapped. The
    elimination then updates only the upper triangle, from the diagonal
    on, and takes four pivots a pass by `_four_pivots` while a row is left
    below them: rows k + 1, k + 2 and k + 3 take one, two and three steps
    from step k's block, and every row below takes all four at once by
    Bareiss's multistep update (Math. Comp. 22, 1968), five products and
    one division per entry where four single steps take eight and four.
    Each division is exact, as its quotient is a bordered minor of a, and
    the update's multipliers, minors too, come by back substitution off
    the pass's finished rows, so no adjugate of its pivot block is formed.
    A zero second, third or fourth pivot of a pass leaves m as it was and
    the single step is taken, as are the last zero to three steps. A zero
    pivot mirrors the upper triangle of the block into the lower one, after
    which elimination goes on over full rows with swaps. Each entry is the
    same bordered minor whichever steps produced it. An elimination that ends
    symmetric never swapped and met no zero pivot before the last, and its
    row k holds the multipliers of step k: entry (k, i) is entry (i, k) of
    that step's block.
    """
    n = len(m)
    symmetric = m == list(map(list, zip(*m)))
    if n == 0:
        return 1, m, symmetric
    sign = prev = 1
    k = 0
    while k < n - 1:
        if m[k][k] == 0:
            if symmetric:
                for i in range(k + 1, n):
                    m[i][k:i] = [m[j][i] for j in range(k, i)]
                symmetric = False
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0, m, False
            m[k], m[i] = m[i], m[k]
            sign = -sign
        if symmetric and k + 4 < n and (q := _four_pivots(m, k, prev)):
            prev = q
            k += 4
            continue
        top, p = m[k], m[k][k]
        for i in range(k + 1, n):
            row = m[i]
            f = top[i] if symmetric else row[k]
            for j in range(i if symmetric else k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        k += 1
    return sign * m[n - 1][n - 1], m, symmetric


def _four_pivots(m: list[list[int]], k: int, prev: int) -> int:
    """Steps k, ..., k + 3 of a symmetric `_eliminate` in one pass, on the
    upper triangle of its rows m, given m[k][k] != 0, prev the pivot before
    it and a row left below the pass. Returns the pass's last pivot q, or
    0, with m untouched, when pivot k + 1, k + 2 or k + 3 is zero.

    Let u_s be row k + s at step k and B the 4 x 4 pivot block of the u_s
    in columns k..k+3, so that det B = prev^3 q by Sylvester's identity. A
    row i below the pass, whose entries in those columns are v, takes
        row_i <- (q row_i - w_0 u_0 - w_1 u_1 - w_2 u_2 - w_3 u_3) / prev
    with w = q B^-1 v = adj(B) v / prev^3: that is det(B) a_ij - v^T adj(B)
    u_j, the 5 x 5 bordered minor of the block, over prev^4, which is the
    entry after step k + 3. Each w_t is a 4 x 4 minor of the block over
    prev^3, an integer. Rows k + 1, k + 2 and k + 3 are finished first,
    each by the same update over the one, two or three pivots above it;
    call them r_s, with r_0 = u_0 and pivots p_s. They are B's rows after
    row operations that leave it upper triangular, and the same operations
    take its column i, which is v by symmetry, to the r_s[i]. So B w = q v
    becomes a triangular system, solved as `_back` solves one:
        w_3 = r_3[i],  w_s = (q r_s[i] - sum_{t>s} r_s[k+t] w_t) / p_s,
    each division exact as w is integral. The finished rows are copies of
    the u_s, put into m only once q is known to be nonzero, and the rows
    below read the u_s."""
    n = len(m)
    top, u1, u2, u3 = m[k], m[k + 1], m[k + 2], m[k + 3]
    p, b, c, d = top[k], top[k + 1], top[k + 2], top[k + 3]
    r1 = u1[:]
    for j in range(k + 1, n):
        r1[j] = (u1[j] * p - b * top[j]) // prev
    if not (p1 := r1[k + 1]):
        return 0
    e, f = r1[k + 2], r1[k + 3]
    x0 = (p1 * c - b * e) // p  # r2's multipliers are x0 and e, back-substituted as below
    r2 = u2[:]
    for j in range(k + 2, n):
        r2[j] = (u2[j] * p1 - x0 * top[j] - e * u1[j]) // prev
    if not (p2 := r2[k + 2]):
        return 0
    g = r2[k + 3]
    y1 = (p2 * f - e * g) // p1
    y0 = (p2 * d - b * y1 - c * g) // p
    r3 = u3[:]
    for j in range(k + 3, n):
        r3[j] = (u3[j] * p2 - y0 * top[j] - y1 * u1[j] - g * u2[j]) // prev
    if not (q := r3[k + 3]):
        return 0
    for i in range(k + 4, n):
        row, w3 = m[i], r3[i]
        w2 = (q * r2[i] - g * w3) // p2
        w1 = (q * r1[i] - e * w2 - f * w3) // p1
        w0 = (q * top[i] - b * w1 - c * w2 - d * w3) // p
        for j in range(i, n):
            row[j] = (row[j] * q - w0 * top[j] - w1 * u1[j] - w2 * u2[j] - w3 * u3[j]) // prev
    m[k + 1], m[k + 2], m[k + 3] = r1, r2, r3
    return q


def _back(m: list[list[int]], y: list[int], start: int) -> list[int]:
    """Back substitution of rows start, ..., 0 of the rows m of a
    symmetric `_eliminate`, in place, for y = adj(a) b: entries past start
    already hold theirs, and entries up to start hold b eliminated with the
    multipliers of m. Row i of m times y is d times that eliminated entry,
    d = m[-1][-1], and pivot i is nonzero for every i < n - 1, so
        y_i = (d b'_i - sum_{j>i} m_ij y_j) / m_ii,
    an integer, and the division is exact. Entry n - 1 is its eliminated
    entry already, so start stays below n - 1 and a singular a, whose last
    pivot d is 0, divides by no zero."""
    d = m[-1][-1] if m else 0
    n = len(y)
    for i in range(start, -1, -1):
        row = m[i]
        s = d * y[i]
        for j in range(i + 1, n):
            s -= row[j] * y[j]
        y[i] = s // row[i]
    return y


def _solve(m: list[list[int]], symmetric: bool, b: Sequence[int]) -> list[int]:
    """adj(a) b for a column b, read off the rows m of a symmetric
    `_eliminate` of a: b is eliminated with the multipliers m[k][i] that
    the triangle stores, then back-substituted by `_back`. The forward
    steps start at b's first nonzero entry s: each step before s leaves
    the zeros at 0 and scales the other entries by its pivot over the one
    before, so they start as b_i p_{s-1}, p_{s-1} the pivot of step s - 1,
    and e_{n-1} needs back substitution alone, as `_adjugate`'s last
    column does. Raises ValueError if the elimination swapped rows, since
    its rows then no longer hold its multipliers."""
    if not symmetric:
        raise ValueError("the triangle was eliminated with row swaps, so it holds no multipliers")
    n = len(m)
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries, expected {n}")
    y = list(b)
    s = next((i for i, x in enumerate(y) if x), 0)
    prev = m[s - 1][s - 1] if s else 1
    for i in range(s, n):
        y[i] *= prev
    for k in range(s, n - 1):
        top, p, yk = m[k], m[k][k], y[k]
        for i in range(k + 1, n):
            y[i] = (y[i] * p - top[i] * yk) // prev
        prev = p
    return _back(m, y, n - 2)


def _adjugate(m: list[list[int]], symmetric: bool) -> list[list[int]]:
    """adj(a), as its rows, read off the rows m of a symmetric `_eliminate`
    of a. Column c is adj(a) e_c. Eliminated, e_c is zero above c and the
    pivot before step c at c (1 for c = 0), as each earlier step scales
    entry c by its pivot over the one before; as adj(a) is symmetric, the
    column's entries below c are entry c of the columns solved before it,
    from the last one down, so rows c, ..., 0 are one back substitution.
    Raises ValueError if the elimination swapped rows, as `_solve` does."""
    if not symmetric:
        raise ValueError("the triangle was eliminated with row swaps, so it holds no multipliers")
    n = len(m)
    adj: list[list[int]] = [[]] * n
    for c in range(n - 1, -1, -1):
        y = [0] * n
        y[c] = m[c - 1][c - 1] if c else 1
        for j in range(c + 1, n):
            y[j] = adj[j][c]
        adj[c] = _back(m, y, min(c, n - 2))
    return adj


def determinant(a: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Every division is exact by the Bareiss identity, so no rounding can
    occur; the 0x0 determinant is 1.
    """
    if a.rows != a.cols:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    return _eliminate(a.to_rows())[0]


def _laplacian(n: int, edges: Mapping[tuple[int, int], int], q: int) -> list[list[int]]:
    """Rows of the reduced Laplacian at vertex q of the multigraph on n
    vertices whose edge table is `edges`, (u, v) -> multiplicity, filled
    from the table alone, the degrees included, with no connectivity
    check: its determinant is the spanning-tree count, 0 exactly when the
    graph is disconnected (no rows, determinant 1, for one vertex). The
    rows are dense, so a caller checks first that the graph is connected
    or, as `_factor_laplacian` does, that it has a spanning tree's worth of
    edges."""
    q = _int(q, "q")
    if not (0 <= q < n):
        raise ValueError(f"vertex {q} out of range for n={n}")
    m = n - 1
    rows = [[0] * m for _ in range(m)]
    for (u, v), mult in edges.items():  # in any order: the rows do not depend on it
        if u == q:
            j = v - (v > q)
            rows[j][j] += mult
        elif v == q:
            i = u - (u > q)
            rows[i][i] += mult
        else:
            i, j = u - (u > q), v - (v > q)
            rows[i][j] = rows[j][i] = -mult
            rows[i][i] += mult
            rows[j][j] += mult
    return rows


# Cost of one entry update of `_sparse_factor`, in entry updates of the
# dense `_eliminate`, which makes about m^3 / 6 of them on an m x m matrix
# taking pivots singly. The ratio was measured on graphs that fill
# completely against the dense kernel when it took two pivots a pass: the
# sparse kernel took 1.5 to 2.5 times as long for the same count. It was
# not measured again when the dense kernel went to three and then four
# pivots a pass, each cheaper per entry than the last, and the value is
# kept as it was. 4 also covers the sparse kernel's cost per step, which
# the count leaves out, so that a graph of fewer than about 10 vertices
# goes dense whatever its shape.
_SPARSE_COST = 4


def _factor_laplacian(g, q: int) -> tuple[int, Callable[[Sequence[int]], list[int]] | None]:
    """det L for the Laplacian L of the multigraph g reduced at q, and a
    solve b -> adj(L) b, b and the result indexed as L is (the vertices
    other than q, in order). (0, None) when g is disconnected, without
    building a row when g has fewer distinct edges than a spanning tree.
    A graph with no vertices is refused as such.

    The kernel is chosen here, once, before any row is built. A step of
    `_sparse_factor` costs about d(d + 1)/2 entry updates, d its vertex's
    degree, so with E distinct edges and every vertex eliminated at the
    mean degree 2E/m, it makes about 2E^2/m + E of them. Minimum degree
    goes below the mean, but fill raises it, and on a dense graph fill
    wins. When that estimate exceeds the dense kernel's m^3 / 6 over
    `_SPARSE_COST`, `_laplacian` builds L's rows, `_eliminate` eliminates
    them and `_solve` solves; otherwise `_sparse_factor` eliminates it in a
    minimum-degree order, to the end. Both give the same det and the same
    adj(L) b, which are unique."""
    q = _int(q, "q")
    if not (0 <= q < g.n):
        raise ValueError(f"vertex {q} out of range for n={g.n}" if g.n else "graph has no vertices")
    e = len(g._edges)
    if e < g.n - 1:
        return 0, None
    m = g.n - 1
    if m and 2 * e * e / m + e > m * m * m / 6 / _SPARSE_COST:
        det, tri, symmetric = _eliminate(_laplacian(g.n, g._edges, q))
        return (det, lambda b: _solve(tri, symmetric, b)) if det else (0, None)
    # sorted, so that the minimum-degree order breaks its ties the same way on equal graphs
    return _sparse_factor(g.n, g.edge_items(), q)


@dataclass
class SnfDecomposition:
    """u @ a @ v == d with u, v unimodular and d diagonal, d_i | d_{i+1}."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> list[int]:
        return self.d.diagonal()

    def image_contains(self, b: Sequence[int]) -> bool:
        """True iff b is in the integer column span of the original matrix."""
        c = self.u.mult_vector(_ints(b, "b entry {}"))  # which refuses a b of the wrong length
        return all(ci % di == 0 if di else ci == 0 for ci, di in zip_longest(c, self.diagonal(), fillvalue=0))


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Smith normal form with unimodular transforms.

    Pivots are chosen as the smallest nonzero absolute value of the
    remaining submatrix, which keeps coefficient growth tame. A cleared pivot
    that does not divide the rest of the submatrix takes in the offending row
    and is reduced again, to a smaller value. So each finished pivot divides
    every entry left, hence every later diagonal entry, and d_i | d_{i+1}
    holds on exit (Cohen, GTM 138, section 2.4, the Smith normal form
    algorithm).
    """
    m, n = a.rows, a.cols
    M = a.to_rows()
    U = IntMatrix.identity(m).to_rows()
    V = IntMatrix.identity(n).to_rows()

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    # Rows above t are zero from column t on, and rows from t on are zero
    # left of column t, so M is only touched in its lower-right block.
    def swap_cols(i, j):
        for row in M[t:]:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        # R_dst += factor * R_src
        Md, Ms = M[dst], M[src]
        for k in range(t, n):
            Md[k] += factor * Ms[k]
        Ud, Us = U[dst], U[src]
        for k in range(m):
            Ud[k] += factor * Us[k]

    def add_col(dst, src, factor):
        # C_dst += factor * C_src, called once column t is clear below the
        # pivot, so in M only row t changes.
        M[t][dst] += factor * M[t][src]
        for row in V:
            row[dst] += factor * row[src]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                val = abs(M[i][j])
                if val and (best is None or val < best[0]):
                    best = (val, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            if M[t][t] < 0:
                negate_row(t)
            pivot = M[t][t]
            for i in range(t + 1, m):
                if M[i][t]:
                    add_row(i, t, -(M[i][t] // pivot))
            dirty = [i for i in range(t + 1, m) if M[i][t]]
            if dirty:
                i = min(dirty, key=lambda r: abs(M[r][t]))
                swap_rows(t, i)
                continue
            for j in range(t + 1, n):
                if M[t][j]:
                    add_col(j, t, -(M[t][j] // pivot))
            dirty = [j for j in range(t + 1, n) if M[t][j]]
            if dirty:
                j = min(dirty, key=lambda c: abs(M[t][c]))
                swap_cols(t, j)
                continue
            if pivot > 1:
                i = next((i for i in range(t + 1, m)
                          if any(x % pivot for x in M[i][t + 1:])), None)
                if i is not None:
                    add_row(t, i, 1)
                    continue
            break
        t += 1

    d = IntMatrix(m, n, [M[i][j] if i == j else 0 for i in range(m) for j in range(n)])
    return SnfDecomposition(IntMatrix.from_rows(U), d, IntMatrix.from_rows(V))


def _least_t(D: int, a: Sequence[int], b: Sequence[int]) -> int:
    """The least t >= 0 with gcd(D, a + t b) = gcd(D, a, b), for vectors a
    and b. Such a t exists: with k = gcd(D, a, b), for each prime p of D/k
    the vectors a/p^e and b/p^e mod p, e the exponent of p in k, are not
    both 0, so p^(e+1) divides every entry of a + t b for at most one t mod
    p. So by Jacobsthal's function the least t is far below D.bit_length()^2,
    past which ArithmeticError is raised."""
    h = gcd(D, *a, *b)
    for t in range(D.bit_length() ** 2):
        if gcd(D, *[x + t * y for x, y in zip(a, b)]) == h:
            return t
    raise ArithmeticError("no t folds the gcd down to gcd(D, a, b)")


def _smith_mod(rows: Iterable[Sequence[int]], D: int) -> tuple[list[tuple[int, int]], Callable[[int], list[int]]]:
    """Smith form of Z^n modulo the lattice spanned by the columns of an
    n x m matrix, given as its rows, and D Z^n, for D > 0: every pivot as
    (row label, s), with s | D in the chain order, and a function that
    rebuilds, mod D, the row of the left transform U that starts as a
    given label. A pivot's label is the input row its row started as; a
    unit pivot has s = 1 and a row left zero s = D. So c -> ((U c)_i mod
    s_i) maps Z^n onto the sum of the Z/s_i with that lattice as its
    kernel, and the s_i are the gcds of D with the Smith form's diagonal
    of the matrix, padded with D.

    Every entry is kept mod D, U is needed only up to invertibility mod D,
    and no right transform is built (Hafner and McCurley, SIAM J. Comput.
    20(6), 1991). As every residue is a unit times its gcd with D
    (Storjohann, Algorithms for Matrix Canonical Forms, ETH Zurich 2000),
    one rule takes each pivot x: with g = gcd(D, block), gcd(x, D) = g. It
    is a unit in column 0 while g may be 1, else the smallest residue if
    its gcd is g, else the first entry whose gcd is. One row step, c =
    (y/g) (x/g)^-1 mod D/g, clears every y under x, and s = g; the pivot
    row is dropped, as g divides it and column steps would touch only it.
    If no entry has gcd g, column 0 += t column j, not recorded, and then
    row 0 += t row k fold the block into x, each with the t of `_least_t`,
    which takes the gcd down to gcd(D, both). Row
    operations are logged instead of applied to U, so a caller pays only
    for the rows it asks for: `u_row` replays the log backwards.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    labels = list(range(n))  # the input row that each active row started as
    log: list[tuple[int, list[int], list[int]]] = []  # by label, (src, dsts, cs): row dsts[k] += cs[k] * row src
    pivots: list[tuple[int, int]] = []
    g = 1  # gcd(D, block), which divides every later entry

    while rows:
        j, fold = 0, False  # while g may be 1, a unit in column 0 first
        i = next((i for i, r in enumerate(rows) if r and gcd(r[0], D) == 1), None) if g == 1 else None
        if i is None:
            if g == 1:  # the unit steps before left their rows unreduced
                rows = [[x % D for x in r] for r in rows]
            g = gcd(D, *chain.from_iterable(rows))
            if g == D:
                pivots += [(label, D) for label in labels]
                break
            x = min(filter(None, chain.from_iterable(rows)))
            if gcd(x, D) != g:
                x = next((y for y in chain.from_iterable(rows) if gcd(y, D) == g), x)
                fold = gcd(x, D) != g
            i = next(i for i, r in enumerate(rows) if x in r)
            j = rows[i].index(x)
        rows[0], rows[i], labels[0], labels[i] = rows[i], rows[0], labels[i], labels[0]
        if j:
            for r in rows:
                r[0], r[j] = r[j], r[0]
        top = rows[0]
        if fold:  # gcd(D, column 0) = g, and then gcd(D, top[0]) = g
            for j in range(1, len(top)):
                if t := _least_t(D, [r[0] for r in rows], [r[j] for r in rows]):
                    for r in rows:
                        r[0] = (r[0] + t * r[j]) % D
            for k in range(1, len(rows)):
                if t := _least_t(D, [top[0]], [rows[k][0]]):
                    top[:] = [(x + t * y) % D for x, y in zip(top, rows[k])]
                    log.append((labels[k], [labels[0]], [t]))
        x, Dg = top[0], D // g
        inv = 1 if x == g else pow(x // g, -1, Dg)
        if g == 1:
            top[:] = [y % D for y in top]
        top[0] = 0  # column 0 is sliced off, so the row step skips its products
        dsts, cs = [], []
        for k in range(1, len(rows)):
            if c := rows[k][0] // g * inv % Dg:
                rows[k] = ([y - c * z for y, z in zip(rows[k], top)] if g == 1 else
                           [(y - c * z) % D for y, z in zip(rows[k], top)])
                dsts.append(labels[k])
                cs.append(-c)
        if dsts:
            log.append((labels[0], dsts, cs))
        pivots.append((labels[0], g))
        rows = [r[1:] for r in rows[1:]]
        labels = labels[1:]

    def u_row(label: int) -> list[int]:
        x = [0] * n
        x[label] = 1
        for src, dsts, cs in reversed(log):
            if s := sum(c * x[t] for t, c in zip(dsts, cs)):
                x[src] = (x[src] + s) % D
        return x

    return pivots, u_row


def smith_rows_mod(a: IntMatrix, det: int) -> tuple[list[int], list[list[int]]]:
    """Invariant factors d_i > 1 of a nonsingular square matrix a with
    determinant +-det, and for each, row i of a left transform U taken
    mod d_i, so that b -> (U b mod d_i) maps Z^n onto Z^n / a Z^n, which is
    the direct sum of the Z/d_i. The factors come in the chain d_i | d_{i+1}.

    With D = |det|, D Z^n lies in a Z^n, so `_smith_mod` eliminates a
    modulo D; its pivots s > 1 are the factors, and only their rows of U
    are rebuilt. Raises ArithmeticError if the factors' product is not D.
    """
    if a.rows != a.cols:
        raise ValueError(f"smith_rows_mod needs a square matrix, got {a.rows}x{a.cols}")
    D = abs(_int(det, "det"))
    if D == 0:
        raise ValueError("smith_rows_mod needs a nonsingular matrix")
    pivots, u_row = _smith_mod(a.to_rows(), D)
    found = [(label, d) for label, d in pivots if d > 1]
    if prod(d for _, d in found) != D:
        raise ArithmeticError(f"invariant factors of {[d.bit_length() for _, d in found]} bits "
                              f"do not multiply to |det|, of {D.bit_length()} bits")
    return [d for _, d in found], [[v % d for v in u_row(label)] for label, d in found]


def solve_image_membership(a: IntMatrix, b: Sequence[int]) -> bool:
    """True iff b lies in the integer column span of a."""
    b = _ints(b, "b entry {}")
    if len(b) != a.rows:
        raise ValueError(f"vector length {len(b)} != rows {a.rows}")
    return smith_normal_form(a).image_contains(b)
