"""The float path after the simplex reads only the nonzero multipliers.

lp._certificate_from, discrimination._success_bound and lp.verify_farkas
skip the zero entries of their multiplier vectors, and Dantzig's rule
prices with min and index. Each is compared with the dense loop it
replaces, kept in conftest: float multipliers by repr, so the sign of a
zero counts, exact values by equality.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (float_ngon, reference_certificate_from, reference_dantzig_entering,
                      reference_verify_farkas)
from polygpt import discrimination, lp, simplex
from polygpt.discrimination import is_perfectly_distinguishable
from polygpt.families import classical_simplex, hypercube_theory, ngon_theory
from polygpt.hypergraph import build_hypergraph
from test_float_refusals import _float, exact_success_bound


@pytest.fixture
def checked_certificates(monkeypatch):
    """Compares every lp._certificate_from call with the dense loop: float
    entries by repr, exact entries by value and type. Yields the number
    of float and of exact calls checked."""
    seen = {"float": 0, "exact": 0}
    original = lp._certificate_from

    def checking(weights, backmap, num_rows, zero):
        cert = original(weights, backmap, num_rows, zero)
        dense = reference_certificate_from(weights, backmap, num_rows)
        if isinstance(zero, float):
            assert list(map(repr, cert)) == list(map(repr, dense))
            seen["float"] += 1
        else:
            assert cert == dense and list(map(type, cert)) == list(map(type, dense))
            seen["exact"] += 1
        return cert

    monkeypatch.setattr(lp, "_certificate_from", checking)
    return seen


FLOAT_THEORIES = ([(f"ngon:n={n}", ngon_theory(n)) for n in range(5, 17) if n != 6]
                  + [("float ngon:n=6", float_ngon(6)),
                     ("float hypercube:m=5", _float(hypercube_theory(5)))])


@pytest.mark.parametrize("theory", [t for _, t in FLOAT_THEORIES],
                         ids=[name for name, _ in FLOAT_THEORIES])
def test_float_multipliers_match_the_dense_loop(checked_certificates, theory):
    build_hypergraph(theory, 2)
    pairs = theory.num_generators * (theory.num_generators - 1) // 2
    assert checked_certificates["float"] >= pairs  # every pair's success LP at least


@pytest.mark.parametrize("theory,n_arity", [(ngon_theory(6), 2), (hypercube_theory(3), 3)],
                         ids=["ngon:n=6", "hypercube:m=3 N=3"])
def test_exact_ray_certificates_match_the_dense_loop(checked_certificates, theory, n_arity):
    build_hypergraph(theory, n_arity)
    assert checked_certificates["exact"] > 0 and checked_certificates["float"] == 0


# One row of each relation and two = rows, whose two dual columns may cancel.
SYNTHETIC_ROWS = [((1, 0), lp.EQ, 1), ((0, 1), lp.LE, 0), ((1, 1), lp.GE, 0),
                  ((1, -1), lp.EQ, 0)]


def test_synthetic_float_weights_match_the_dense_loop():
    _, _, backmap = lp._dual(SYNTHETIC_ROWS, 2)
    values = (0.0, -0.0, 1.5, -1.5, 5e-324)
    for weights in itertools.product(values, repeat=len(backmap)):
        cert = lp._certificate_from(weights, backmap, len(SYNTHETIC_ROWS), 0.0)
        dense = reference_certificate_from(weights, backmap, len(SYNTHETIC_ROWS))
        assert list(map(repr, cert)) == list(map(repr, dense)), weights
    # Equal weights on both columns of a = row cancel to 0.0, as the dense loop's do.
    cancel = lp._certificate_from((1.5, 1.5, 0.0, -0.0, -0.0, -0.0), backmap, 4, 0.0)
    assert repr(cancel) == "(0.0, 0.0, 0.0, 0.0)"


def test_synthetic_exact_weights_match_the_dense_loop():
    _, _, backmap = lp._dual(SYNTHETIC_ROWS, 2)
    values = (F(0), F(3, 2), F(-3, 2))
    for weights in itertools.product(values, repeat=len(backmap)):
        cert = lp._certificate_from(weights, backmap, len(SYNTHETIC_ROWS), F(0))
        dense = reference_certificate_from(weights, backmap, len(SYNTHETIC_ROWS))
        assert cert == dense and all(type(v) is F for v in cert), weights


# --- the exact success bound ---------------------------------------------------

BOUND_CASES = [
    ("pentagon N=2", ngon_theory(5), 2),
    ("float simplex:d=3 N=3", _float(classical_simplex(3)), 3),
    ("float hexagon N=3", float_ngon(6), 3),
]


def _sparse_y(rng, theory, n, rows):
    """Sign-correct multipliers of the success LP of n states, nonzero
    only on the given kind of rows ("ge", "le", "both" or "none"): <= 0
    on the >= rows, >= 0 on the shared <= rows, with zeros of both signs."""
    split = (n - 1) * theory.num_generators
    y = []
    for k in range(n * theory.num_generators):
        ge = k < split
        if rows in ("both", "ge" if ge else "le") and rng.random() < 0.4:
            v = rng.uniform(0, 1) * 10 ** -rng.randrange(0, 6)
        else:
            v = 0.0 if rng.random() < 0.5 else -0.0
        y.append(-v if ge else v)
    return y


@pytest.mark.parametrize("theory,n", [c[1:] for c in BOUND_CASES],
                         ids=[c[0] for c in BOUND_CASES])
@pytest.mark.parametrize("rows", ["none", "le", "ge", "both"])
def test_success_bound_matches_the_plain_fraction_bound(theory, n, rows):
    rng = random.Random(f"{theory.name} {n} {rows}")
    for _ in range(25):
        states = [theory.generators[k] for k in rng.sample(range(theory.num_generators), n)]
        y = _sparse_y(rng, theory, n, rows)
        bound = discrimination._success_bound(theory, states, y)
        assert bound == exact_success_bound(theory, states, y)
        assert type(bound) is F


def test_success_bound_merges_the_shared_rows_into_each_block():
    # Only shared <= rows nonzero: every block of y A is theirs alone, and
    # the bound differs from the one that drops them.
    theory = float_ngon(6)
    states = theory.generators[:3]
    y = [0.0] * (2 * theory.num_generators) + [0.25] * theory.num_generators
    without = [0.0] * len(y)
    assert discrimination._success_bound(theory, states, y) == \
        exact_success_bound(theory, states, y) != exact_success_bound(theory, states, without)


# --- the Farkas check -----------------------------------------------------------

def _refusal(theory, i, j):
    states = (theory.generators[i], theory.generators[j])
    answer = is_perfectly_distinguishable(theory, states, validate=False)
    assert not answer.distinguishable
    return answer.problem, list(answer.certificate)


def _zeros(prob, cert, rel):
    return [k for k, (y, (_, r, _)) in enumerate(zip(cert, prob.constraints))
            if r == rel and not y]


def _forgeries(prob, cert, small):
    """(name, certificate, expected verdict) around a genuine certificate."""
    le, ge = _zeros(prob, cert, lp.LE), _zeros(prob, cert, lp.GE)
    wrong_le, wrong_ge, signed_zeros = list(cert), list(cert), list(cert)
    wrong_le[le[0]] = -small  # a wrong sign beside the zeros of a <= row
    wrong_ge[ge[-1]] = small
    for k in le + ge:
        signed_zeros[k] = -0.0
    return [("genuine", cert, True), ("wrong sign on <=", wrong_le, False),
            ("wrong sign on >=", wrong_ge, False), ("-0.0 on <= and >=", signed_zeros, True),
            ("all zero", [0 * v for v in cert], False),
            ("all -0.0", [-0.0] * len(cert), False)]


def test_verify_farkas_matches_the_dense_check_in_float_mode():
    theory = ngon_theory(5)
    prob, cert = _refusal(theory, 0, 1)
    tol = theory.arith().tol
    forged = _forgeries(prob, cert, 1e-3)
    # Right-signed multipliers within the tolerance still enter the sums:
    # on every zero <= row they add up past it in the unit's coordinate.
    tiny = list(cert)
    for k in _zeros(prob, cert, lp.LE):
        tiny[k] = 0.9 * tol
    forged.append(("within tol on <=", tiny, False))
    for name, y, expected in forged:
        assert lp.verify_farkas(prob, y, tol) is reference_verify_farkas(prob, y, tol) \
            is expected, name


def test_verify_farkas_matches_the_dense_check_in_exact_mode():
    theory = ngon_theory(6)  # exact: adjacent vertices are refused
    prob, cert = _refusal(theory, 0, 1)
    assert all(type(v) is F for v in cert)
    for name, y, expected in _forgeries(prob, cert, F(1, 1000)):
        assert lp.verify_farkas(prob, y) is reference_verify_farkas(prob, y) is expected, name


# x >= -5, x >= 0, x <= 7, x <= 2 and x = 1: feasible. Each vector below
# combines the rows to 0 . x and the right-hand sides to -1, so only its
# one wrong sign, among zeros of both signs, refuses it.
SIGN_ROWS = [((1,), lp.GE, -5), ((1,), lp.GE, 0), ((1,), lp.LE, 7), ((1,), lp.LE, 2),
             ((1,), lp.EQ, 1)]


@pytest.mark.parametrize("cert", [(0.0, 1.0, -0.0, 0.0, -1.0), (-0.0, 0.0, 0.0, -1.0, 1.0),
                                  (0, F(1), 0, 0, F(-1)), (0, 0, 0, F(-1), F(1))],
                         ids=["float >=", "float <=", "exact >=", "exact <="])
def test_verify_farkas_tests_every_sign_beside_zeros(cert):
    prob = lp.problem((0,), SIGN_ROWS, 1)
    tol = 1e-9 if isinstance(cert[-1], float) else 0
    assert lp.verify_farkas(prob, cert, tol) is reference_verify_farkas(prob, cert, tol) is False
    # The sums alone would refute: only the sign test refuses.
    assert sum(v * row[0] for v, (row, _, _) in zip(cert, SIGN_ROWS)) == 0
    assert sum(v * rhs for v, (_, _, rhs) in zip(cert, SIGN_ROWS)) == -1


# --- Dantzig pricing --------------------------------------------------------------

TOL = 1e-9


@pytest.mark.parametrize("obj,n,below,expected", [
    ([-0.5, -1.0, -1.0, 0.0], 4, -TOL, 1),  # tied minima: the lowest index
    ([-1.0, -0.5, -1.0, -2.0], 3, -TOL, 0),  # a lower entry past n is not priced
    ([0.0, -0.0, 1.0], 3, 0.5, 0),  # a 0.0 / -0.0 tie, under a positive threshold
    ([-0.0, 0.0, 1.0], 3, 0.5, 0),
    ([1.0, -0.0, 0.0], 3, 0.5, 1),
    ([0.0, -0.0, 1.0], 3, -TOL, None),
    ([-TOL, 1.0], 2, -TOL, None),  # exactly -tol does not price below it
    ([1.0, -TOL, -2 * TOL], 3, -TOL, 2),
    ([-5.0, -6.0], 0, -TOL, None),  # no column to price
    ([], 0, -TOL, None),
])
def test_dantzig_pricing_picks_the_key_function_column(obj, n, below, expected):
    assert simplex._dantzig_entering(obj, n, below) == \
        reference_dantzig_entering(obj, n, below) == expected


def test_dantzig_pricing_matches_on_random_reduced_costs():
    rng = random.Random(7)
    values = (-1.0, -0.5, -TOL, -0.0, 0.0, 0.5)
    for _ in range(2000):
        obj = [rng.choice(values) for _ in range(rng.randrange(0, 8))]
        n = rng.randrange(0, len(obj) + 1)
        assert simplex._dantzig_entering(obj, n, -TOL) == \
            reference_dantzig_entering(obj, n, -TOL)


def _pair_outcomes(theory):
    """repr of every pair's float decision on a fresh copy of the theory,
    so that no run recorded on another copy is walked."""
    theory = _float(theory)
    outcomes = []
    for i, j in itertools.combinations(range(theory.num_generators), 2):
        answer = is_perfectly_distinguishable(
            theory, (theory.generators[i], theory.generators[j]), validate=False)
        success = answer.success
        outcomes.append(repr((answer.distinguishable, answer.witness, answer.certificate,
                              success.p_success, success.measurement, success.perfect)))
    return outcomes


@pytest.mark.parametrize("theory", [ngon_theory(16), hypercube_theory(5)],
                         ids=["ngon:n=16", "float hypercube:m=5"])
def test_key_function_pricing_gives_the_same_float_outcomes(monkeypatch, theory):
    priced = _pair_outcomes(theory)
    calls = []
    monkeypatch.setattr(simplex, "_dantzig_entering",
                        lambda *args: calls.append(args[1]) or reference_dantzig_entering(*args))
    assert _pair_outcomes(theory) == priced
    assert calls  # the pairs' cold runs priced by the key function
