"""The exact substitution gates run on integer rows (linalg.integer_rows).
Each is compared here with the plain Fraction formula it replaces, on
accepted answers and on forged ones, and the rows are shown to follow the
theory they belong to."""

import itertools
import pickle
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (boxed_random_lp, plain_dot, plain_is_effect, plain_is_measurement,
                      plain_verify_witness, random_lifted_theory)
from polygpt import lp, simplex
from polygpt.capacity import verify_hypercube_memory
from polygpt.discrimination import is_perfectly_distinguishable, verify_witness
from polygpt.families import hypercube_effect, hypercube_theory
from polygpt.linalg import integer_rows
from polygpt.theory import (Measurement, conic_weights, convex_weights, is_effect,
                            is_measurement, reduce_to_pure_states)

# Perturbations: one step of a small denominator, and one far below any
# coordinate's own denominator.
STEPS = (F(1, 7), F(-1, 7), F(1, 10 ** 12), F(-1, 10 ** 12))


# --- the plain Fraction formulas ----------------------------------------------

def plain_check_solution(prob, x):
    for row, rel, rhs in prob.constraints:
        lhs = plain_dot(row, x)
        if (rel == lp.LE and lhs > rhs) or (rel == lp.GE and lhs < rhs) \
                or (rel == lp.EQ and lhs != rhs):
            return False
    return True


def plain_verify_farkas(prob, y):
    if len(y) != len(prob.constraints):
        return False
    for v, (_, rel, _) in zip(y, prob.constraints):
        if (rel == lp.LE and v < 0) or (rel == lp.GE and v > 0):
            return False
    rows = [row for row, _, _ in prob.constraints]
    if any(plain_dot(y, col) != 0 for col in zip(*rows)):
        return False
    return plain_dot(y, [rhs for _, _, rhs in prob.constraints]) < 0


def plain_membership(vectors, target, affine, res):
    rows = [[v[j] for v in vectors] for j in range(len(target))]
    rhs = list(target)
    if affine:
        rows.append([1] * len(vectors))
        rhs.append(1)
    if res.status == simplex.OPTIMAL:
        return min(res.x) >= 0 and all(plain_dot(r, res.x) == b for r, b in zip(rows, rhs))
    return plain_dot(res.farkas, rhs) > 0 and \
        all(plain_dot(res.farkas, col) <= 0 for col in zip(*rows))


# --- forgeries ------------------------------------------------------------------

def nudged(v):
    """Every copy of v with one entry moved by one of STEPS."""
    for k, step in itertools.product(range(len(v)), STEPS):
        yield tuple(a + step if i == k else a for i, a in enumerate(v))


def farkas_forgeries(prob, y):
    """y with one multiplier's sign flipped, and y with one multiplier moved
    so that the combination of the rows is not quite zero."""
    for k, (_, rel, _) in enumerate(prob.constraints):
        if y[k] != 0:
            yield tuple(-a if i == k else a for i, a in enumerate(y))
    yield from nudged(y)


def theory_answers(seeds):
    """(theory, states, answer) for pairs and triples of random lifted
    theories, whose coordinates have denominators up to 3."""
    for seed in seeds:
        t = random_lifted_theory(seed)
        for n in (2, 3):
            for idx in itertools.islice(itertools.combinations(range(t.num_generators), n), 4):
                states = [t.generators[i] for i in idx]
                yield t, states, is_perfectly_distinguishable(t, states, validate=False)


# --- lp.check_solution and lp.verify_farkas -------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_lp_gates_match_the_fraction_formula(seed):
    prob = boxed_random_lp(seed)
    out = lp.solve_exact(prob)
    if out.status == lp.LPStatus.OPTIMAL:
        x = out.solution
        assert lp.check_solution(prob, x) and plain_check_solution(prob, x)
        for forged in nudged(x):
            assert lp.check_solution(prob, forged) == plain_check_solution(prob, forged)
    else:
        y = out.infeasibility_certificate
        assert lp.verify_farkas(prob, y) and plain_verify_farkas(prob, y)
        for forged in farkas_forgeries(prob, y):
            assert lp.verify_farkas(prob, forged) == plain_verify_farkas(prob, forged)


def test_nudged_solutions_are_both_accepted_and_refused():
    # Otherwise the comparison above could not tell a loose gate from a strict one.
    verdicts = set()
    for seed in range(30):
        prob = boxed_random_lp(seed)
        out = lp.solve_exact(prob)
        if out.status == lp.LPStatus.OPTIMAL:
            verdicts |= {lp.check_solution(prob, x) for x in nudged(out.solution)}
    assert verdicts == {True, False}


def test_farkas_gate_matches_on_discrimination_certificates():
    refusals = 0
    for t, states, answer in theory_answers(range(12)):
        if answer.distinguishable:
            continue
        refusals += 1
        prob, y = answer.problem, answer.certificate
        assert lp.verify_farkas(prob, y) and plain_verify_farkas(prob, y)
        for forged in farkas_forgeries(prob, y):
            assert lp.verify_farkas(prob, forged) == plain_verify_farkas(prob, forged)
    assert refusals > 0


# --- is_effect, is_measurement, verify_witness ---------------------------------

def test_witness_gates_match_the_fraction_formula():
    witnesses = 0
    for t, states, answer in theory_answers(range(12)):
        if not answer.distinguishable:
            continue
        witnesses += 1
        meas = answer.witness
        assert verify_witness(t, states, meas) and plain_verify_witness(t, states, meas)
        for i, e in enumerate(meas.effects):
            for forged in nudged(e):
                assert is_effect(t, forged) == plain_is_effect(t, forged)
                m = Measurement(meas.effects[:i] + (forged,) + meas.effects[i + 1:])
                assert is_measurement(t, m) == plain_is_measurement(t, m)
                assert verify_witness(t, states, m) == plain_verify_witness(t, states, m)
    assert witnesses > 0


# --- the membership re-check in theory._combination_weights ---------------------

def forged_results(res):
    if res.status == simplex.OPTIMAL:
        for x in nudged(res.x):
            yield simplex.StandardResult(simplex.OPTIMAL, x=x)
    else:
        yield simplex.StandardResult(simplex.INFEASIBLE, farkas=tuple(-v for v in res.farkas))
        for y in nudged(res.farkas):
            yield simplex.StandardResult(simplex.INFEASIBLE, farkas=y)


@pytest.mark.parametrize("seed", range(8))
def test_membership_recheck_matches_the_fraction_formula(monkeypatch, seed):
    t = random_lifted_theory(seed)
    rng = random.Random(seed)
    weights = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in t.generators]
    inside = tuple(sum(w * g[j] for w, g in zip(weights, t.generators)) for j in range(t.dim))
    outside = (F(1),) + (F(100),) * (t.dim - 1)  # coordinates lie in [-6, 6]
    solve = simplex.solve_standard_min
    for target, query, affine in ((inside, conic_weights, False), (outside, conic_weights, False),
                                  (t.generators[0], convex_weights, True)):
        res = solve([0] * t.num_generators,
                    [[g[j] for g in t.generators] for j in range(t.dim)]
                    + ([[1] * t.num_generators] if affine else []),
                    list(target) + ([1] if affine else []))
        for forged in [res, *forged_results(res)]:
            monkeypatch.setattr(simplex, "solve_standard_min",
                                lambda costs, rows, rhs, arith, forged=forged: forged)
            expected = plain_membership(t.generators, target, affine, forged)
            try:
                query(t, target)
                accepted = True
            except RuntimeError:
                accepted = False
            assert accepted == expected
        monkeypatch.setattr(simplex, "solve_standard_min", solve)


# --- the rows follow their theory ------------------------------------------------

def test_generator_rows_are_rebuilt_with_the_generators():
    square = hypercube_theory(2)
    e = hypercube_effect(2, 1)  # (x0 + x1) / 2
    assert is_effect(square, e)  # fills the square's rows
    wider = replace(square, generators=square.generators + ((F(1), F(2), F(0)),))
    assert not is_effect(wider, e)  # e reads 3/2 on the new generator
    fat = replace(square, generators=square.generators + ((F(1), F(1, 3), F(0)),))
    assert is_effect(fat, e) and fat.generator_rows[1] == 3
    reduced = reduce_to_pure_states(fat)
    assert reduced == square
    assert reduced.generator_rows == integer_rows(square.generators)
    assert pickle.loads(pickle.dumps(fat)).generator_rows == fat.generator_rows


def test_pickled_theories_give_the_same_sweep():
    # workers=2 sends the theory to worker processes by pickle.
    assert verify_hypercube_memory(3, workers=1) == verify_hypercube_memory(3, workers=2)
