import math
import random
from fractions import Fraction

import pytest

from conftest import (float_ngon, invert, mat_vec, random_rational, reference_integer_rows,
                      reference_rank)
from polygpt.linalg import dot, integer_rows, pivot_columns, rat, rat_str, solve_columns
from polygpt.theory import EXACT, Theory


def test_rat_parsing_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(5) == Fraction(5)
    assert rat_str(Fraction(-7, 2)) == "-7/2"
    assert rat_str(Fraction(6, 3)) == 2


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))


def test_exact_rank():
    rows = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    assert pivot_columns(rows) == [0]
    rows = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert pivot_columns(rows) == [0, 1]
    assert pivot_columns([]) == []


def test_float_rank_with_tolerance():
    # No tolerance: the rows are read as the binary fractions they store,
    # and 4.0 + 1e-13 is not 4.
    rows = [(1.0, 2.0), (2.0, 4.0 + 1e-13)]
    assert pivot_columns(rows) == [0, 1]


def test_solve_columns_and_invert():
    a = [(Fraction(2), Fraction(1)), (Fraction(1), Fraction(3))]
    (x,) = solve_columns(a, [(Fraction(5), Fraction(10))])
    assert mat_vec(a, x) == (Fraction(5), Fraction(10))
    inv = invert(a)
    assert mat_vec(inv, mat_vec(a, (Fraction(7), Fraction(-2)))) == (Fraction(7), Fraction(-2))
    singular = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    assert solve_columns(singular, [(Fraction(1), Fraction(1))]) is None
    assert invert(singular) is None


def test_solve_columns_on_random_rational_systems():
    rng = random.Random(3)
    for size in range(1, 6):
        for _ in range(20):
            a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                 for _ in range(size)]
            if rng.random() < 0.2 and size > 1:
                a[-1] = [2 * v for v in a[0]]  # singular
            columns = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
                       for _ in range(rng.randint(1, 3))]
            solutions = solve_columns(a, columns)
            if len(pivot_columns(a)) < size:
                assert solutions is None
            else:
                assert len(solutions) == len(columns)
                for x, b in zip(solutions, columns):
                    assert mat_vec(a, x) == tuple(b)
                    assert all(isinstance(v, Fraction) for v in x)


def _check_against_reference(rows):
    columns = [list(c) for c in zip(*rows)]
    raising = [k for k in range(len(columns))
               if reference_rank(columns[:k + 1]) > reference_rank(columns[:k])]
    assert pivot_columns(rows) == raising
    assert reference_rank(rows) == len(raising)


def test_rank_and_pivot_columns_match_the_reference():
    rng = random.Random(14)
    deficient = 0
    for _ in range(400):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [[random_rational(rng, span=4, den=3) for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.2:
            # Column j and row i become combinations of the ones before them
            # (zero when there are none), so the rank drops below both sizes.
            j, i = rng.randrange(ncols), rng.randrange(nrows)
            weights = [random_rational(rng, span=3, den=2) for _ in range(max(i, j))]
            for row in rows:
                row[j] = sum((w * row[k] for w, k in zip(weights, range(j))), Fraction(0))
            rows[i] = [sum((w * rows[k][c] for w, k in zip(weights, range(i))), Fraction(0))
                       for c in range(ncols)]
            assert reference_rank(rows) < min(nrows, ncols)
            deficient += 1
        _check_against_reference(rows)
    assert deficient > 50


def test_float_rows_are_read_exactly():
    rng = random.Random(15)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0.0, 0.1, 1.0, -2.5, 1e-12, rng.uniform(-1, 1)))
                 for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            # Twice a row is stored exactly (dependent); a tenth of it is not.
            factor = rng.choice((2.0, 0.1))
            rows[-1] = [factor * v for v in rows[0]]
        _check_against_reference(rows)


def _reference_integer_rows(rows, den=1):
    """integer_rows read through a Fraction copy of every entry."""
    rows = [[Fraction(v) for v in row] for row in rows]
    den = math.lcm(den, *[v.denominator for row in rows for v in row])
    return [[int(v * den) for v in row] for row in rows], den


@pytest.mark.parametrize("den", [1, 7, 5**30])
def test_integer_rows_read_ints_fractions_and_floats_exactly(den):
    rows = [[0.1, -2.5, 1e-300, 2.0**60],
            [3, Fraction(-7, 12), 0, Fraction(5)],
            [Fraction(1, 3), 0.0, -4, 0.75]]
    got = integer_rows(rows, den)
    assert got == _reference_integer_rows(rows, den)
    assert all(type(v) is int for row in got[0] for v in row)
    assert got[1] % den == 0 and got[1] % 2**1000 == 0  # 1e-300's denominator


@pytest.mark.parametrize("den", [1, 6, 5**30])
def test_int_rows_pass_through_as_the_ratio_path_reads_them(den):
    rng = random.Random(den)
    for nrows in range(5):
        width = rng.randint(0, 6)
        rows = [[rng.randint(-10**20, 10**20) for _ in range(width)] for _ in range(nrows)]
        got = integer_rows(rows, den)
        assert got == reference_integer_rows(rows, den) and got[1] == den
        assert all(type(v) is int for row in got[0] for v in row)


@pytest.mark.parametrize("den", [1, 3])
@pytest.mark.parametrize("kind", [list, tuple])
def test_passed_through_rows_are_fresh_lists(kind, den):
    rows = [kind((1, -2)), kind((3, 4))]
    out, _ = integer_rows(rows, den)
    assert all(type(row) is list for row in out)
    out[0][0] = 99
    out[1].append(5)
    out.append([7])
    assert rows == [kind((1, -2)), kind((3, 4))]


@pytest.mark.parametrize("den", [1, 4])
@pytest.mark.parametrize("entry", [True, False, Fraction(3), Fraction(-1, 2), 0.5, 2.0])
def test_a_bool_fraction_or_float_entry_is_read_as_before(entry, den):
    rows = [[1, -2, 3], [4, entry, 6]]
    got = integer_rows(rows, den)
    assert got == reference_integer_rows(rows, den)
    assert all(type(v) is int for row in got[0] for v in row)  # a bool comes back as an int


@pytest.mark.parametrize("n", range(5, 10))
def test_a_float_theory_reads_as_its_fraction_copy(n):
    theory = float_ngon(n)
    copy = Theory(theory.name, theory.dim, tuple(map(Fraction, theory.unit)),
                  tuple(tuple(map(Fraction, g)) for g in theory.generators), EXACT)
    assert theory.generator_rows == _reference_integer_rows(copy.generators)
    _check_against_reference(theory.generators)
    assert pivot_columns(theory.generators) == pivot_columns(copy.generators)
    independent = [k for k in range(n)
                   if reference_rank(copy.generators[:k + 1]) > reference_rank(copy.generators[:k])]
    basis, rows, q = theory.basis_inverse
    assert list(basis) == independent
    inverse = invert([list(r) for r in zip(*(copy.generators[k] for k in basis))])
    assert (rows, q) == _reference_integer_rows(inverse)
