import random
from fractions import Fraction

import pytest

from conftest import invert, mat_vec
from polygpt.linalg import dot, rank, rat, rat_str, solve_square, vec_sub


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
    assert rank(rows) == 1
    rows = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert rank(rows) == 2
    assert rank([]) == 0


def test_float_rank_with_tolerance():
    rows = [(1.0, 2.0), (2.0, 4.0 + 1e-13)]
    assert rank(rows, tol=1e-9) == 1


def test_solve_square_and_invert():
    a = [(Fraction(2), Fraction(1)), (Fraction(1), Fraction(3))]
    x = solve_square(a, (Fraction(5), Fraction(10)))
    assert mat_vec(a, x) == (Fraction(5), Fraction(10))
    inv = invert(a)
    assert mat_vec(inv, mat_vec(a, (Fraction(7), Fraction(-2)))) == (Fraction(7), Fraction(-2))
    singular = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    assert solve_square(singular, (Fraction(1), Fraction(1))) is None
    assert invert(singular) is None


def test_solve_square_on_random_rational_systems():
    rng = random.Random(3)
    for size in range(1, 6):
        for _ in range(20):
            a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                 for _ in range(size)]
            if rng.random() < 0.2 and size > 1:
                a[-1] = [2 * v for v in a[0]]  # singular
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
            x = solve_square(a, b)
            if rank(a) < size:
                assert x is None
            else:
                assert mat_vec(a, x) == tuple(b)
                assert all(isinstance(v, Fraction) for v in x)


def test_vec_sub():
    assert vec_sub((Fraction(3), Fraction(1)), (Fraction(1), Fraction(1))) == (2, 0)
