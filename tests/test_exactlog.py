"""The log2 enclosures are the load-bearing piece under every floor."""

from decimal import Decimal, localcontext
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polygpt import exactlog
from polygpt.exactlog import (PrecisionError, certain_floor, floor_of_log2_squared,
                              floor_of_ratio_to_log2, log2_bounds, log2_value,
                              power_of_two_exponent)


def test_power_of_two_detection():
    assert power_of_two_exponent(F(16)) == 4
    assert power_of_two_exponent(F(1, 8)) == -3
    assert power_of_two_exponent(F(1)) == 0
    assert power_of_two_exponent(F(3)) is None
    assert power_of_two_exponent(F(6, 3)) == 1  # reduces to 2
    assert power_of_two_exponent(F(-4)) is None


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 6))
def test_bounds_bracket_the_true_log(p, q):
    x = F(p, q)
    lo, hi = log2_bounds(x, bits=16)
    assert lo <= hi
    assert hi - lo <= F(1, 2 ** 15)
    _assert_brackets(x, lo, hi)


def _assert_brackets(x, lo, hi):
    # Exact verification: 2^(a/2^t) <= x  <=>  2^a <= x^(2^t).
    for bound, lower in ((lo, True), (hi, False)):
        e = bound.denominator  # a power of two by construction
        lhs = F(2) ** bound.numerator
        rhs = x ** e
        assert lhs <= rhs if lower else lhs >= rhs


# 2 sqrt(2) to about 200 bits, from below: log2 is 3/2 less about 2^-200, so
# 3 / log2 exceeds 2 by about 1.6e-61.
_NEAR_2_SQRT_2 = F(isqrt(8 << 400), 1 << 200)


def test_bounds_that_straddle_2_stop_early_and_still_bracket():
    # Rounding the first square up reaches 2, rounding it down does not:
    # the digit loop stops with a bracket wider than asked for.
    lo, hi = log2_bounds(_NEAR_2_SQRT_2, 64)
    assert hi - lo > F(1, 2 ** 64)
    _assert_brackets(_NEAR_2_SQRT_2, lo, hi)


def test_a_floor_near_its_boundary_doubles_the_precision(monkeypatch):
    bounds, widths = exactlog.log2_bounds, []

    def recorded(x, bits):
        widths.append(bits)
        return bounds(x, bits)

    monkeypatch.setattr(exactlog, "log2_bounds", recorded)
    floor = floor_of_ratio_to_log2(F(3), _NEAR_2_SQRT_2)
    with localcontext() as ctx:
        ctx.prec = 300
        x = Decimal(_NEAR_2_SQRT_2.numerator) / Decimal(_NEAR_2_SQRT_2.denominator)
        reference = Decimal(3) / (x.ln() / Decimal(2).ln())
    assert floor == int(reference) == 2
    assert len(widths) > 1 and widths == [64 * 2 ** k for k in range(len(widths))]


def test_bounds_exact_on_powers_of_two():
    lo, hi = log2_bounds(F(1, 4))
    assert lo == hi == -2


def test_log2_requires_positive():
    with pytest.raises(ValueError):
        log2_bounds(F(0))


def test_certain_floor():
    assert certain_floor(F(3, 2), F(8, 5)) == 1
    assert certain_floor(F(9, 10), F(11, 10)) is None


def test_floor_of_log2_squared_values():
    assert floor_of_log2_squared(F(16)) == 16          # exactly on the boundary
    assert floor_of_log2_squared(F(2)) == 1
    assert floor_of_log2_squared(F(10)) == 11          # (3.3219...)^2 = 11.03...
    assert floor_of_log2_squared(F(1024)) == 100


def test_floor_of_ratio_values():
    assert floor_of_ratio_to_log2(F(96), F(16, 3)) == 39   # 96 / 2.41503... = 39.75...
    assert floor_of_ratio_to_log2(F(16), F(4)) == 8        # exact boundary: 16/2
    assert floor_of_ratio_to_log2(F(7), F(2)) == 7
    with pytest.raises(ValueError):
        floor_of_ratio_to_log2(F(1), F(1))


def test_ambiguity_raises_instead_of_guessing(monkeypatch):
    monkeypatch.setattr(exactlog, "MAX_BITS", 1)
    with pytest.raises(PrecisionError):
        floor_of_log2_squared(F(10))
    with pytest.raises(PrecisionError):
        floor_of_ratio_to_log2(F(96), F(16, 3))


def test_log2_value_precision():
    import math
    for x in (F(3), F(7, 5), F(586)):
        assert abs(log2_value(x) - math.log2(x)) < 1e-12
    assert log2_value(F(8)) == 3.0
