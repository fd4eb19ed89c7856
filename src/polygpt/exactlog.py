"""Directed-rounding base-2 logarithms for certain floors.

Floors of expressions in log2 of rational arguments are decided in two
steps: arguments that are exact integer powers of two get integer logs
(the only case an expression can sit exactly on a floor boundary), and
every other rational has an irrational log2, so a finite-precision
enclosure eventually separates the expression from the nearest integer.

The enclosure uses the classic digit-by-digit method on fixed-point
integer bounds (floor on the lower bound, ceiling on the upper), so the
returned interval provably brackets the true logarithm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

MAX_BITS = 512  # precision cap of the certified floors


class PrecisionError(ArithmeticError):
    """A floor stayed ambiguous at the precision cap."""


def power_of_two_exponent(x: Fraction) -> Optional[int]:
    """s with x = 2**s, or None when x is not an integer power of two."""
    p, q = x.numerator, x.denominator
    if p <= 0:
        return None
    if p & (p - 1) or q & (q - 1):
        return None
    return p.bit_length() - q.bit_length()


def log2_bounds(x: Fraction, bits: int = 64) -> Tuple[Fraction, Fraction]:
    """An interval [lo, hi] containing log2(x), with hi - lo <= 2**-bits
    (wider only if the digit loop hits a rounding tie early, which still
    yields valid bounds)."""
    if x <= 0:
        raise ValueError("log2 needs a positive argument")
    exp = power_of_two_exponent(x)
    if exp is not None:
        return Fraction(exp), Fraction(exp)

    k = x.numerator.bit_length() - x.denominator.bit_length()
    if x < Fraction(2) ** k:  # bit lengths give 2**(k-1) < x < 2**(k+1)
        k -= 1

    guard = bits + 32
    scale = 1 << guard
    y = x / Fraction(2) ** k  # in [1, 2)
    lo = y.numerator * scale // y.denominator
    hi = -((-y.numerator * scale) // y.denominator)
    frac = Fraction(0)
    done = 0
    for i in range(1, bits + 1):
        lo = lo * lo // scale
        hi = -((-hi * hi) // scale)
        if lo >= 2 * scale:
            frac += Fraction(1, 2 ** i)
            lo //= 2
            hi = -((-hi) // 2)
        elif hi < 2 * scale:
            pass
        else:
            break  # bounds straddle 2: stop with what is certain
        done = i
    return Fraction(k) + frac, Fraction(k) + frac + Fraction(1, 2 ** done if done else 1)


def certain_floor(lo: Fraction, hi: Fraction) -> Optional[int]:
    import math
    flo = math.floor(lo)
    return flo if flo == math.floor(hi) else None


def _floor_at_rising_precision(x: Fraction, enclose, what: str) -> int:
    """floor of the value that enclose(*log2_bounds(x, bits)) brackets, at doubling bits."""
    bits = 64
    while bits <= MAX_BITS:
        f = certain_floor(*enclose(*log2_bounds(x, bits)))
        if f is not None:
            return f
        bits *= 2
    raise PrecisionError(f"{what} ambiguous at {MAX_BITS} bits")


def floor_of_log2_squared(x: Fraction) -> int:
    """floor((log2 x)**2) for x >= 2, exact at power-of-two arguments."""
    return _floor_at_rising_precision(x, lambda lo, hi: (lo * lo, hi * hi),
                                      f"floor((log2 {x})^2)")


def floor_of_ratio_to_log2(numerator: Fraction, x: Fraction) -> int:
    """floor(numerator / log2(x)) for x > 1, exact at power-of-two arguments."""
    if x <= 1:
        raise ValueError("denominator log needs an argument > 1")
    return _floor_at_rising_precision(x, lambda lo, hi: (numerator / hi, numerator / lo),
                                      f"floor({numerator} / log2 {x})")


def log2_value(x: Fraction) -> float:
    """Float log2 backed by a certified enclosure tight to ~10**-15."""
    lo, hi = log2_bounds(x, 57)
    return float((lo + hi) / 2)
