"""Exact integer matrices: one fraction-free (Bareiss) elimination for the
determinant, whose symmetric triangle also gives the adjugate and adj(a) b
by back substitution, Smith normal form with materialized unimodular
transforms (the reference the tests and the search's re-verification
use), and one Smith elimination modulo D, `_smith_mod`: one loop, whose
pivot is the first entry prime to D, else the smallest residue. It gives
the invariant factors of a nonsingular matrix and their rows of U modulo
its determinant (`smith_rows_mod`), and the Smith form, modulo the group
order, of the seeded columns that `critical_group` certifies groups with.

On a symmetric matrix, such as every reduced Laplacian, `_eliminate`
updates only the upper triangle, which about halves its work, and takes
two pivots per pass by Bareiss's two-step update, which saves a product
and a division per entry and pair; a zero pivot mirrors the upper
triangle into the lower one and the elimination goes on with row swaps.
A symmetric elimination with no swap keeps its multipliers in its
triangle, and one back-substitution loop, `_back`, reads everything else
off it: `critical_group` solves its certificate columns one at a time
with `_solve`, as it needs them, and the search in `verify` reads the
whole adjugate with `_adjugate`, and edge deletions, element orders and
cyclicity off det and adj by formula.

Everything runs on Python's arbitrary-precision ints; reduced-Laplacian
minors overflow 64 bits almost immediately, so there is deliberately no
floating-point or fixed-width path anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, prod
from operator import mul
from typing import Callable, Iterable, Sequence


class IntMatrix:
    """Dense integer matrix stored row-major."""

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be nonnegative")
        entries = [int(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]]) -> IntMatrix:
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat: list[int] = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def diagonal(self) -> list[int]:
        return [self.at(i, i) for i in range(min(self.rows, self.cols))]

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        a, b = self.to_rows(), other.to_rows()
        out: list[int] = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def mult_vector(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        rows = self.to_rows()
        return [sum(r[k] * vec[k] for k in range(self.cols)) for r in rows]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, {self.to_rows()})"


def _eliminate(a: IntMatrix) -> tuple[int, list[list[int]], bool]:
    """Bareiss fraction-free elimination of a square a: (det a, the
    eliminated rows, whether the elimination stayed symmetric). det is 0
    when a is singular.

    Entry (i, j) of the block left after step k is a minor of a bordered
    by row i and column j, divided exactly by the previous pivot, and row k
    ends at step k, so the rows left are an upper triangular system whose
    last pivot is the determinant of the row-swapped matrix.

    For a symmetric a the block stays symmetric until rows are swapped. The
    elimination then updates only the upper triangle, from the diagonal
    on, and takes two pivots per pass by Bareiss's two-step update
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968): with p the first
    pivot, q the second and prev the one before them,
        row_i <- (q row_i + c1 row_k + c2 row_{k+1}) / prev,
    where c1 and c2 are the 2 x 2 cofactors of row i's entries in columns k
    and k+1, also divided by prev; row k+1 takes its own single step. That
    saves a product and an exact division per entry and pair of pivots. A
    zero second pivot or an odd tail takes the single step, and a zero
    pivot mirrors the upper triangle of the block into the lower one, after
    which elimination goes on over full rows with swaps. An elimination
    that ends symmetric never swapped and met no zero pivot before the
    last, and its row k holds the multipliers of step k: entry (k, i) is
    entry (i, k) of that step's block.
    """
    if a.rows != a.cols:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    m = a.to_rows()
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
        top, p = m[k], m[k][k]
        nxt, f, r = m[k + 1], top[k + 1], m[k + 1][k + 1]
        if symmetric and k + 2 < n and (q := (p * r - f * f) // prev):
            for i in range(k + 2, n):
                row, e, g = m[i], top[i], nxt[i]
                c1 = (f * g - r * e) // prev
                c2 = (f * e - p * g) // prev
                for j in range(i, n):
                    row[j] = (row[j] * q + c1 * top[j] + c2 * nxt[j]) // prev
            for j in range(k + 1, n):
                nxt[j] = (nxt[j] * p - f * top[j]) // prev
            prev = q
            k += 2
            continue
        for i in range(k + 1, n):
            row = m[i]
            f = top[i] if symmetric else row[k]
            for j in range(i if symmetric else k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
        k += 1
    return sign * m[n - 1][n - 1], m, symmetric


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
    for i in range(start, -1, -1):
        row = m[i]
        y[i] = (d * y[i] - sum(map(mul, row[i + 1:], y[i + 1:]))) // row[i]
    return y


def _solve(m: list[list[int]], symmetric: bool, b: Sequence[int]) -> list[int]:
    """adj(a) b for a column b, read off the rows m of a symmetric
    `_eliminate` of a: b is eliminated with the multipliers m[k][i] that
    the triangle stores, then back-substituted by `_back`. Raises
    ValueError if the elimination swapped rows, since its rows then no
    longer hold its multipliers."""
    if not symmetric:
        raise ValueError("the triangle was eliminated with row swaps, so it holds no multipliers")
    n = len(m)
    if len(b) != n:
        raise ValueError(f"right-hand side has {len(b)} entries, expected {n}")
    y = list(b)
    prev = 1
    for k in range(n - 1):
        top, p, yk = m[k], m[k][k], y[k]
        y[k + 1:] = [(x * p - f * yk) // prev for x, f in zip(y[k + 1:], top[k + 1:])]
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
        y = [0] * c + [m[c - 1][c - 1] if c else 1] + [col[c] for col in adj[c + 1:]]
        adj[c] = _back(m, y, min(c, n - 2))
    return adj


def determinant(a: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Every division is exact by the Bareiss identity, so no rounding can
    occur; the 0x0 determinant is 1.
    """
    return _eliminate(a)[0]


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
        if len(b) != self.u.cols:
            raise ValueError(f"vector length {len(b)} != {self.u.cols}")
        c = self.u.mult_vector(b)
        diag = self.diagonal()
        for i, ci in enumerate(c):
            di = diag[i] if i < len(diag) else 0
            if di == 0:
                if ci != 0:
                    return False
            elif ci % di != 0:
                return False
        return True


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

    d = [[M[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return SnfDecomposition(
        u=IntMatrix.from_rows(U) if m else IntMatrix(0, 0, []),
        d=IntMatrix.from_rows(d) if m and n else IntMatrix(m, n, []),
        v=IntMatrix.from_rows(V) if n else IntMatrix(0, 0, []),
    )


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
    20(6), 1991; Cohen, GTM 138, section 2.4). One loop takes each pivot p
    by one rule: the first entry prime to D, column by column, else the
    smallest residue. A row step subtracts c times the pivot row from each
    row with x under p: for a unit p, c = x / p mod D clears the column at
    once (s = 1), and those rows stay unreduced until a search past column
    0; else c is the quotient, and then the 2 x 2 step [[u, v], [x/g,
    -p/g]], u p + v x = g = gcd(p, x), takes a row with a remainder x into
    the pivot row. Once the column is clear, p is replaced by gcd(p, D), as
    D e_t is in the lattice, and a column step, the same 2 x 2 step on an
    entry that p does not divide, may fill it again. A final pivot divides
    every later row, or a row it does not divide is added to the pivot row.
    Each 2 x 2 step shrinks the pivot, so this ends; an all-zero remainder
    has every s equal to D. Once D and the entries left share a factor, as
    after a final pivot above 1, so do all later ones: no unit is sought.

    Column operations are not recorded, and those that would only clear
    entries of the pivot row that p divides are skipped, as that row is
    dropped. Row operations are logged instead of applied to U, so a caller
    pays only for the rows it asks for: `u_row` replays the log backwards,
    a 2 x 2 step transposed.
    """
    rows = [list(r) for r in rows]
    n = len(rows)
    labels = list(range(n))  # the input row that each active row started as
    # by label, (src, dsts, cs): row dsts[k] += cs[k] * row src, or
    # (a, b, u, v, s, t): rows a, b <- u a + v b, s a + t b
    log: list[tuple] = []
    pivots: list[tuple[int, int]] = []
    units = True  # False once no entry can be prime to D

    def bezout(p, x):
        # u, v, x/g, -p/g with u p + v x = g = gcd(p, x)
        g = gcd(p, x)
        s, t = x // g, p // g
        u = pow(t, -1, s)
        return u, (g - u * p) // x, s, -t

    while rows:
        # the pivot: the first entry prime to D, column by column, else the smallest residue
        pick = None
        if units and rows[0]:
            pick = next(((i, 0) for i, r in enumerate(rows) if gcd(r[0], D) == 1), None)
            if pick is None:
                rows = [[x % D for x in r] for r in rows]
                units = gcd(D, *chain.from_iterable(rows)) == 1  # else gcd(D, block) divides all later entries
                pick = units and next(((i, j) for j in range(1, len(rows[0])) for i, r in enumerate(rows)
                                       if gcd(r[j], D) == 1), None)
        if not pick:
            nonzero = [(x, i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if x]
            if not nonzero:
                pivots += [(label, D) for label in labels]
                break
            pick = min(nonzero)[1:]
        i, j = pick
        rows[0], rows[i], labels[0], labels[i] = rows[i], rows[0], labels[i], labels[0]
        if j:
            for r in rows:
                r[0], r[j] = r[j], r[0]
        while True:
            top = rows[0]
            # row steps: c = x / p mod D for a unit p, else the quotients and a 2 x 2 step
            unit = units and gcd(top[0], D) == 1
            if unit:  # column 0 is sliced off, so the step skips its products
                inv, top[:] = pow(top[0], -1, D), [0] + [x % D for x in top[1:]]
            dsts, cs = [], []
            for k in range(1, len(rows)):
                c = rows[k][0] * inv % D if unit else rows[k][0] // top[0]
                if c:
                    rows[k] = ([x - c * y for x, y in zip(rows[k], top)] if unit else
                               [(x - c * y) % D for x, y in zip(rows[k], top)])
                    dsts.append(labels[k])
                    cs.append(-c)
            if dsts:
                log.append((labels[0], dsts, cs))
            if unit:
                p = 1
                break
            k = next((k for k in range(1, len(rows)) if rows[k][0]), None)
            if k is not None:
                u, v, s, t = bezout(top[0], rows[k][0])
                r = rows[k]
                top[:], r[:] = ([(u * x + v * y) % D for x, y in zip(top, r)],
                                [(s * x + t * y) % D for x, y in zip(top, r)])
                log.append((labels[0], labels[k], u, v, s, t))
                continue
            # column 0 is clear below the pivot, and D e_0 is in the lattice
            p = top[0] = gcd(top[0], D)
            j = next((j for j in range(1, len(top)) if top[j] % p), None)
            if j is not None:
                # a column step, not recorded; it may fill column 0 again
                u, v, s, t = bezout(p, top[j])
                for r in rows:
                    r[0], r[j] = (u * r[0] + v * r[j]) % D, (s * r[0] + t * r[j]) % D
                continue
            k = next((k for k in range(1, len(rows)) if any(x % p for x in rows[k][1:])), None)
            if k is None:
                break
            rows[0] = [x + y for x, y in zip(top, rows[k])]
            log.append((labels[k], [labels[0]], [1]))
        pivots.append((labels[0], p))
        rows = [r[1:] for r in rows[1:]]
        labels = labels[1:]

    def u_row(label: int) -> list[int]:
        x = [0] * n
        x[label] = 1
        for entry in reversed(log):
            if len(entry) == 3:
                src, dsts, cs = entry
                s = sum(c * x[t] for t, c in zip(dsts, cs))
                if s:
                    x[src] = (x[src] + s) % D
            else:
                a, b, u, v, s, t = entry
                x[a], x[b] = (u * x[a] + s * x[b]) % D, (v * x[a] + t * x[b]) % D
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
    D = abs(det)
    if D == 0:
        raise ValueError("smith_rows_mod needs a nonsingular matrix")
    pivots, u_row = _smith_mod(a.to_rows(), D)
    found = [(label, d) for label, d in pivots if d > 1]
    if prod(d for _, d in found) != D:
        raise ArithmeticError(f"invariant factors {[d for _, d in found]} do not multiply to {D}")
    return [d for _, d in found], [[v % d for v in u_row(label)] for label, d in found]


def solve_image_membership(a: IntMatrix, b: Sequence[int]) -> bool:
    """True iff b lies in the integer column span of a."""
    if len(b) != a.rows:
        raise ValueError(f"vector length {len(b)} != rows {a.rows}")
    return smith_normal_form(a).image_contains(b)
