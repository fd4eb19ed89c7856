"""Exact rational vectors and dense linear algebra.

Coordinates are plain tuples. Exact-mode code uses ``fractions.Fraction``
entries; float-mode theories reuse ``dot`` with ``float`` entries (Python's
numeric protocols make the arithmetic generic), while ``integer_rows``, and
with it every routine that eliminates, reads a float as the binary fraction
it stores.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Vector = tuple


def rat(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a "p/q" string; a bool
    is refused, so JSON true and false are not read as 1 and 0, and so is
    a zero denominator (ValueError, like any other malformed string)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
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


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def _eliminate(m) -> tuple:
    """(pivot columns, last pivot): m, a list of integer rows, brought to
    echelon form in place, fraction-free (Bareiss, 1968). A column's pivot
    is its first nonzero entry at or below the current row; a column with
    none is skipped. Every entry stays an integer minor of the input, so
    each division is exact."""
    pivots, prev = [], 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[col]
        for i in range(r + 1, len(m)):
            f = m[i][col]
            m[i] = [(v * p - f * w) // prev for v, w in zip(m[i], prow)]
        pivots.append(col)
        prev = p
    return pivots, prev


def pivot_columns(rows: Sequence[Sequence]) -> list:
    """Indices of the columns that are not combinations of the columns
    before them, read exactly (integer_rows)."""
    return _eliminate(integer_rows(rows)[0])[0]


def solve_columns(a: Sequence[Sequence], columns: Sequence[Sequence]):
    """The solutions x of a x = b, one for each b in columns, from one
    elimination; None when the square matrix a is singular.

    Entries are read as integer_rows reads them. The rows of [a | columns]
    are cleared of denominators and eliminated by _eliminate: only the
    solutions are built from Fractions.
    """
    n = len(a)
    m, _ = integer_rows([[*row, *rhs] for row, rhs in zip(a, zip(*columns))])
    pivots, prev = _eliminate(m)
    if pivots[:n] != list(range(n)):
        return None
    # prev = +-det; prev * x is integral (Cramer), so back substitution
    # divides exactly.
    solutions = []
    for c in range(n, n + len(columns)):
        num = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = prev * row[c] - sum(row[j] * num[j] for j in range(i + 1, n))
            num[i] = acc // row[i]
        solutions.append(tuple(Fraction(v, prev) for v in num))
    return solutions


def integer_rows(rows: Sequence[Sequence], den: int = 1):
    """(integer rows, d): every entry times d > 0, the least common multiple
    of den and the entries' denominators, each entry read exactly: an int or
    a Fraction as it is, a float as the binary fraction it stores. The
    kernel of every exact check: signs and equalities stay."""
    ratios = [[v.as_integer_ratio() for v in row] for row in rows]
    # Unpack a list, not a generator: a tuple grown from a generator holds
    # on to more memory (measured as higher peak RSS in long runs).
    den = math.lcm(den, *[q for row in ratios for _, q in row])
    return [[p * (den // q) for p, q in row] for row in ratios], den
