"""Exact integer matrices: fraction-free determinants and Smith normal form
with materialized unimodular transforms.

Everything runs on Python's arbitrary-precision ints; reduced-Laplacian
minors overflow 64 bits almost immediately, so there is deliberately no
floating-point or fixed-width path anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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


def determinant(a: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Every division below is exact by the Bareiss identity, so no rounding
    can occur; the 0x0 determinant is 1.
    """
    if a.rows != a.cols:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        # R_dst += factor * R_src
        Md, Ms = M[dst], M[src]
        for k in range(n):
            Md[k] += factor * Ms[k]
        Ud, Us = U[dst], U[src]
        for k in range(m):
            Ud[k] += factor * Us[k]

    def add_col(dst, src, factor):
        # C_dst += factor * C_src
        for row in M:
            row[dst] += factor * row[src]
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


def solve_image_membership(a: IntMatrix, b: Sequence[int]) -> bool:
    """True iff b lies in the integer column span of a."""
    if len(b) != a.rows:
        raise ValueError(f"vector length {len(b)} != rows {a.rows}")
    return smith_normal_form(a).image_contains(b)
