"""The exact substitution gates run on integer rows (linalg.integer_rows).
Each is compared here with the plain Fraction formula it replaces, on
accepted answers and on forged ones, and the rows are shown to follow the
theory they belong to. On float theories the same gates are compared with
the comparisons made one generator at a time."""

import itertools
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (boxed_random_lp, float_ngon, plain_dot, plain_is_effect,
                      plain_is_measurement, plain_verify_witness, random_lifted_theory)
from polygpt import lp, simplex
from polygpt.capacity import verify_hypercube_memory
from polygpt.discrimination import is_perfectly_distinguishable, verify_witness
from polygpt.families import hypercube_effect, hypercube_theory, ngon_theory
from polygpt.linalg import integer_rows
from polygpt.theory import (FLOAT, Measurement, conic_weights, convex_weights, is_effect,
                            is_measurement, reduce_to_pure_states)
from test_float_refusals import _float

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


# --- lp.check_integers, the kernel of lp.check_solution ------------------------

def integer_gates_agree(prob, x):
    """The verdict on x of lp.check_solution, of lp.check_integers on x's
    numerators over their least common denominator and over three times
    it (unreduced), and of the plain formula, once all agree."""
    (xs,), dx = integer_rows([x])
    verdict = plain_check_solution(prob, x)
    assert lp.check_solution(prob, x) == verdict
    assert lp.check_integers(prob, xs, dx) == verdict
    assert lp.check_integers(prob, [3 * v for v in xs], 3 * dx) == verdict
    return verdict


@pytest.mark.parametrize("seed", range(30))
def test_the_integer_kernel_matches_check_solution_and_the_fraction_formula(seed):
    # The same rows again as a shared block, with an equality that the
    # optimum meets, which the kernel reads by groups of equal bounds
    # (lp.LPBlock.ranges): each box row is both a <= and a >= row there.
    prob = boxed_random_lp(seed)
    out = lp.solve_exact(prob)
    if out.status == lp.LPStatus.OPTIMAL:
        rows = prob.constraints + ((prob.constraints[0][0], lp.EQ, out.solution[0]),)
        block = lp.LPBlock(rows, prob.num_vars, simplex.Arith())
        blocked = lp.problem(prob.objective, (), prob.num_vars, block)
        for p in (prob, blocked):
            assert integer_gates_agree(p, out.solution)
            for forged in nudged(out.solution):
                integer_gates_agree(p, forged)


def test_the_integer_kernel_on_block_problems_accepts_and_refuses():
    # Discrimination problems lead with a shared block whose pair rows
    # repeat (e . g >= 0 and e . g <= 1): the kernel reads each once
    # (lp.LPBlock.ranges). Witnesses pass; nudged ones break an equality
    # row and fail.
    verdicts = []
    for t, states, answer in theory_answers(range(12)):
        if answer.distinguishable:
            x = [v for e in answer.witness.effects[:-1] for v in e]
            verdicts.append(integer_gates_agree(answer.problem, x))
            verdicts += [not integer_gates_agree(answer.problem, forged) for forged in nudged(x)]
    assert len(verdicts) > 100 and all(verdicts)


def test_the_integer_kernel_refuses_a_point_that_leaves_the_cone_alone():
    # e + c (x_a - x_b) keeps both equality rows of a 5-cube pair when the
    # two states agree on coordinates a and b, so only the block's cone rows
    # (read once each through lp.LPBlock.ranges) can refuse it; a witness
    # with slack keeps some of these points.
    theory = hypercube_theory(5)
    verdicts = set()
    for j in range(1, theory.num_generators):
        s, t = theory.generators[0], theory.generators[j]
        answer = is_perfectly_distinguishable(theory, [s, t], validate=False)
        x = list(answer.witness.effects[0])
        a, b = next((a, b) for a, b in itertools.combinations(range(1, 6), 2)
                    if (s[a], t[a]) == (s[b], t[b]))
        for c in (F(1, 4), F(-1, 4), F(3)):
            forged = list(x)
            forged[a] += c
            forged[b] -= c
            assert plain_dot(forged, s) == 1 and plain_dot(forged, t) == 0
            verdicts.add(integer_gates_agree(answer.problem, forged))
    assert verdicts == {True, False}


def test_the_integer_kernel_reads_the_block_over_its_own_denominator():
    # A mixture state over 3 gives the problem a new denominator, so its
    # integer_form scales the block's rows by a further factor; the kernel
    # still reads them through lp.LPBlock.ranges, over the block's own d.
    # As above, e + c (x_a - x_b) keeps the equality rows, so only the
    # block can refuse it.
    theory = hypercube_theory(4)
    s = theory.generators[0]
    t = tuple(sum(col) / 3 for col in zip(*theory.generators[8:11]))
    answer = is_perfectly_distinguishable(theory, [s, t])
    prob = answer.problem
    assert prob.integer_form[1] % prob.block.integer_form[1] == 0
    assert prob.integer_form[1] != prob.block.integer_form[1]
    x = list(answer.witness.effects[0])
    verdicts = {integer_gates_agree(prob, x)}
    verdicts |= {not integer_gates_agree(prob, forged) for forged in nudged(x)}
    assert verdicts == {True}
    a, b = next((a, b) for a, b in itertools.combinations(range(1, theory.dim), 2)
                if (s[a], t[a]) == (s[b], t[b]))
    for c in (F(1, 4), F(-1, 4), F(3), F(-3)):
        forged = list(x)
        forged[a] += c
        forged[b] -= c
        verdicts.add(integer_gates_agree(prob, forged))
    assert verdicts == {True, False}


def test_the_integer_kernel_refuses_a_wrong_length_and_a_denominator_below_one():
    prob = boxed_random_lp(0)
    with pytest.raises(ValueError):
        lp.check_integers(prob, [0] * (prob.num_vars + 1), 1)
    with pytest.raises(ValueError):
        lp.check_solution(prob, [0] * (prob.num_vars - 1))
    for dx in (0, -1):
        with pytest.raises(ValueError):
            lp.check_integers(prob, [0] * prob.num_vars, dx)


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


# --- the same gates on float theories, against per-generator comparisons -------

def per_generator_is_effect(t, e):
    values = (plain_dot(e, g) for g in t.generators)
    return all(not v < -t.tol and not v - 1 > t.tol for v in values)


def per_generator_is_measurement(t, m):
    return (all(per_generator_is_effect(t, e) for e in m.effects)
            and all(abs(sum(col) - x) <= t.tol for col, x in zip(zip(*m.effects), t.unit)))


def per_generator_verify_witness(t, states, m):
    return (len(m.effects) == len(states) and per_generator_is_measurement(t, m)
            and all(abs(plain_dot(e, s) - (i == j)) <= t.tol
                    for i, e in enumerate(m.effects) for j, s in enumerate(states)))


def near_the_bounds(t, e):
    """Copies of e moved along the unit (1, 0, ..., 0), which adds the same
    amount to its value on every generator, so that its least value lies
    within three ulps of -tol or 1e-12 to either side of it, and then its
    largest value likewise about 1 + tol."""
    values = [plain_dot(e, g) for g in t.generators]
    for target, extreme in ((-t.tol, min(values)), (1 + t.tol, max(values))):
        x = e[0] + (target - extreme)
        walk = [x]
        for _ in range(3):
            walk = [math.nextafter(walk[0], -math.inf), *walk, math.nextafter(walk[-1], math.inf)]
        for x0 in (*walk, x - 1e-12, x + 1e-12):
            yield (x0, *e[1:])


FLOAT_THEORIES = ([ngon_theory(n) if n != 6 else float_ngon(6) for n in range(5, 13)]
                  + [_float(hypercube_theory(5))])


@pytest.mark.parametrize("t", FLOAT_THEORIES, ids=[t.name for t in FLOAT_THEORIES])
def test_float_witness_gates_match_the_per_generator_comparisons(t):
    assert t.numeric_mode == FLOAT and t.unit == (1.0,) + (0.0,) * (t.dim - 1)
    seen = {True: 0, False: 0}
    for states in itertools.islice(itertools.combinations(t.generators, 2), 40):
        answer = is_perfectly_distinguishable(t, states, validate=False)
        if not answer.distinguishable:
            continue
        meas = answer.witness
        assert verify_witness(t, states, meas) and per_generator_verify_witness(t, states, meas)
        for i, e in enumerate(meas.effects):
            for forged in near_the_bounds(t, e):
                accepted = is_effect(t, forged)
                seen[accepted] += 1
                assert accepted == per_generator_is_effect(t, forged)
                m = Measurement(meas.effects[:i] + (forged,) + meas.effects[i + 1:])
                assert is_measurement(t, m) == per_generator_is_measurement(t, m)
                assert verify_witness(t, states, m) == per_generator_verify_witness(t, states, m)
    assert seen[True] > 0 and seen[False] > 0


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
