"""Exact rational vectors and dense linear algebra.

Coordinates are plain tuples. Exact-mode code uses ``fractions.Fraction``
entries; float-mode theories reuse the same helpers with ``float`` entries
(Python's numeric protocols make the arithmetic generic).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Vector = tuple


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a "p/q" string; a bool
    is refused, so JSON true and false are not read as 1 and 0."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value):
    """Render a coordinate for JSON: a Fraction as a bare int when integral,
    else "p/q"; any other value unchanged."""
    if not isinstance(value, Fraction):
        return value
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(operator.mul, u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def rank(rows: Sequence[Sequence], tol: float = 0.0) -> int:
    """Row rank by Gaussian elimination.

    With tol=0 comparisons are exact (rational entries); a positive tol
    gives a partial-pivoting float rank for float-mode data.
    """
    m = [list(row) for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = max(range(r, nrows), key=lambda i: abs(m[i][col]))
        if abs(m[pivot][col]) <= tol:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][col]
        for i in range(r + 1, nrows):
            if m[i][col] != 0:
                factor = m[i][col] / inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def solve_square(a: Sequence[Sequence], b: Sequence):
    """Solve the square exact system a x = b; None when singular.

    Entries are ints or Fractions. Each row is cleared of denominators and
    eliminated fraction-free (Bareiss, 1968): every intermediate entry is
    an integer minor, and only the solution is built from Fractions.
    """
    n = len(a)
    m, _ = integer_rows([[*row, rhs] for row, rhs in zip(a, b)])
    prev = 1
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        prow = m[col]
        p = prow[col]
        for i in range(col + 1, n):
            f = m[i][col]
            m[i] = [(v * p - f * w) // prev for v, w in zip(m[i], prow)]
        prev = p
    # prev = +-det; prev * x is integral (Cramer), so back substitution
    # divides exactly.
    num = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = prev * row[n] - sum(row[j] * num[j] for j in range(i + 1, n))
        num[i] = acc // row[i]
    return tuple(Fraction(v, prev) for v in num)


def integer_rows(rows: Sequence[Sequence]):
    """(integer rows, d): every int or Fraction entry times d > 0, their least common
    denominator. The kernel of every exact check: signs and equalities stay."""
    # Unpack a list, not a generator: a tuple grown from a generator holds
    # on to more memory (measured as higher peak RSS in long runs).
    den = math.lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den
