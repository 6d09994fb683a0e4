"""Spanning-tree counts of polygon stacks: the two-term recurrence, rooted
forest counts, and the closed forms evaluated in exact quadratic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import _int, _ints, check_stack_spec


class QuadraticNumber:
    """Exact element a + b*sqrt(disc) of a real quadratic field.

    Arithmetic is closed for a fixed nonnegative discriminant; mixing
    different discriminants is an error unless one operand is rational.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b, disc: int):
        (self.disc,) = _ints([disc], "discriminant")
        if self.disc < 0:
            raise ValueError(f"discriminant must be nonnegative, got {disc}")
        self.a = Fraction(a)
        self.b = Fraction(b)

    def _align(self, other) -> tuple["QuadraticNumber", "QuadraticNumber", int]:
        """Bring both operands onto a common discriminant."""
        if isinstance(other, (int, Fraction)):
            other = QuadraticNumber(other, 0, self.disc)
        elif not isinstance(other, QuadraticNumber):
            raise TypeError(f"cannot mix QuadraticNumber with {type(other).__name__}")
        if self.disc == other.disc:
            return self, other, self.disc
        if other.b == 0:
            return self, QuadraticNumber(other.a, 0, self.disc), self.disc
        if self.b == 0:
            return QuadraticNumber(self.a, 0, other.disc), other, other.disc
        raise ValueError(f"mixed discriminants {self.disc} and {other.disc}")

    def __add__(self, other):
        x, y, disc = self._align(other)
        return QuadraticNumber(x.a + y.a, x.b + y.b, disc)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticNumber(-self.a, -self.b, self.disc)

    def __sub__(self, other):
        x, y, disc = self._align(other)
        return QuadraticNumber(x.a - y.a, x.b - y.b, disc)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        x, y, disc = self._align(other)
        return QuadraticNumber(
            x.a * y.a + x.b * y.b * disc,
            x.a * y.b + x.b * y.a,
            disc,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.a, -self.b, self.disc)

    def norm(self) -> Fraction:
        return self.a * self.a - self.b * self.b * self.disc

    def __truediv__(self, other):
        x, y, disc = self._align(other)
        n = y.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        num = x * y.conjugate()
        return QuadraticNumber(num.a / n, num.b / n, disc)

    def __rtruediv__(self, other):
        x, y, _ = self._align(other)
        return y / x

    def __pow__(self, exp: int):
        if exp < 0:
            return (QuadraticNumber(1, 0, self.disc) / self) ** (-exp)
        out = QuadraticNumber(1, 0, self.disc)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadraticNumber):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.disc == other.disc and self.a == other.a and self.b == other.b
        return NotImplemented

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return int(self.a)

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.a}, {self.b}, sqrt {self.disc})"


@dataclass
class SequenceTable:
    """Exact integer sequence values T_0..T_k with a human-readable label."""

    label: str
    values: list[int]


def _prefix_counts(spec: Sequence[int]) -> list[int]:
    """Tree counts of every prefix of the stack spec, the empty one first."""
    counts = [0, 1]  # a virtual T at length -1, then T of the empty stack
    for k in spec:
        counts.append(k * counts[-1] - counts[-2])
    return counts[1:]


def tree_count(ks: Sequence[int]) -> int:
    """Spanning trees of the polygon stack (k_1, ..., k_n).

    Uses the two-term recurrence T(k_1..k_n) = k_n*T(k_1..k_{n-1}) -
    T(k_1..k_{n-2}) seeded with T() = 1 and T(k_1) = k_1.
    """
    return _prefix_counts(check_stack_spec(ks))[-1]


def forest_count(ks: Sequence[int]) -> int:
    """Spanning forests of the stack rooted at the top attachment pair:
    F(spec) = T(spec) - T(spec minus last entry)."""
    spec = check_stack_spec(ks)
    if not spec:
        raise ValueError("forest count needs a nonempty stack spec")
    p = _prefix_counts(spec)
    return p[-1] - p[-2]


def constant_k_table(k: int, n_max: int) -> SequenceTable:
    """T_0..T_{n_max} for a stack of n k-gons: T_n = k*T_{n-1} - T_{n-2}."""
    if _int(k, "polygon size") < 2:
        raise ValueError(f"polygon size must be >= 2, got {k}")
    if _int(n_max, "n_max") < 0:
        raise ValueError("n_max must be nonnegative")
    return SequenceTable(f"T(k={k})", _prefix_counts((k,) * n_max))


def constant_k_closed_form(k: int, n: int) -> int:
    """Closed form for the constant-k tree counts: with d = k^2 - 4 and one
    exact power (k + sqrt(d))^n = a + b sqrt(d), the irrational parts of its
    two terms cancel and they sum to (a + k b) / 2^n, checked to be an integer."""
    k, n = _int(k, "polygon size"), _int(n, "n")
    if k < 3:
        raise ValueError("closed form needs k >= 3 (k = 2 degenerates the discriminant)")
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = k * k - 4
    p = QuadraticNumber(k, 1, d) ** n
    return QuadraticNumber((p.a + k * p.b) / 2 ** n, 0, d).as_integer()


def house_closed_form(n: int) -> int:
    """Tree counts of the n-story house (3,4,4,...): T_0 = 3, T_1 = 11. With
    one exact power (2 + sqrt(3))^n = a + b sqrt(3), the two terms of the
    closed form sum to 3a + 5b, checked to be an integer."""
    if (n := _int(n, "n")) < 0:
        raise ValueError("n must be nonnegative")
    p = QuadraticNumber(2, 1, 3) ** n
    return QuadraticNumber(3 * p.a + 5 * p.b, 0, 3).as_integer()


def alternating_tables(k1: int, k2: int, n_max: int) -> tuple[SequenceTable, SequenceTable]:
    """Tree counts of alternating stacks.

    A_n counts the stack with n k1-gons and n k2-gons alternating
    (starting with k1); B_n the stack with n k1-gons and n-1 k2-gons, with
    B_0 = 0. Both are prefix counts of the stack (k1, k2, k1, k2, ...),
    A_n of its even prefixes and B_n of its odd ones. Both sequences also
    satisfy the decoupled recurrence X_n = (k1*k2 - 2)*X_{n-1} - X_{n-2}.
    """
    if min(_ints([k1, k2], "polygon size")) < 2:
        raise ValueError(f"polygon sizes must be >= 2, got ({k1},{k2})")
    if _int(n_max, "n_max") < 0:
        raise ValueError("n_max must be nonnegative")
    c = _prefix_counts((k1, k2) * n_max)
    return (
        SequenceTable(f"A(k1={k1},k2={k2})", c[0::2]),
        SequenceTable(f"B(k1={k1},k2={k2})", [0] + c[1::2]),
    )
