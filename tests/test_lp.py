"""Solver contract tests: spec'd instances, certificates, oracles."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ROUNDED_11GON, boxed_random_lp, brute_force_optimum, exact_bland_runs,
                      plain_bland, random_lifted_theory, random_rational,
                      reference_certify_basis)
from polygpt import discrimination, lp, simplex
from polygpt.families import hypercube_theory, ngon_theory
from polygpt.linalg import pivot_columns
from polygpt.simplex import IndeterminateError
from polygpt.theory import FLOAT, is_state, make_theory, reduce_to_pure_states, theory_from_json


def test_single_bound():
    prob = lp.problem([F(1)], [([F(1)], lp.LE, F(3))], 1)
    out = lp.solve_exact(prob)
    assert out.status == lp.LPStatus.OPTIMAL
    assert out.value == 3
    assert out.solution == (3,)


def test_contradictory_bounds_infeasible_with_certificate():
    prob = lp.problem([F(1)], [([F(1)], lp.GE, F(1)), ([F(1)], lp.LE, F(0))], 1)
    out = lp.solve_exact(prob)
    assert out.status == lp.LPStatus.INFEASIBLE
    assert out.value is None and out.solution is None
    assert lp.verify_farkas(prob, out.infeasibility_certificate)


def test_two_variable_polygon_vertex():
    # Oracle: enumerate the polygon's vertices by pairwise row intersection.
    prob = lp.problem([F(1), F(1)],
                      [([F(1), F(2)], lp.LE, F(4)),
                       ([F(3), F(1)], lp.LE, F(6)),
                       ([F(1), F(0)], lp.GE, F(0)),
                       ([F(0), F(1)], lp.GE, F(0))], 2)
    out = lp.solve_exact(prob)
    assert out.status == lp.LPStatus.OPTIMAL
    assert brute_force_optimum(prob) == out.value == F(14, 5)
    assert out.solution == (F(8, 5), F(6, 5))


def test_free_variable_unbounded():
    prob = lp.problem([F(1)], [([F(1)], lp.GE, F(0))], 1)
    assert lp.solve_exact(prob).status == lp.LPStatus.UNBOUNDED


def test_equality_rows():
    prob = lp.problem([F(0), F(1)],
                      [([F(1), F(1)], lp.EQ, F(2)), ([F(0), F(1)], lp.LE, F(5))], 2)
    out = lp.solve_exact(prob)
    assert out.status == lp.LPStatus.OPTIMAL
    assert out.value == 5
    assert sum(out.solution) == 2


def test_structural_errors():
    with pytest.raises(ValueError):
        lp.problem([F(1)], [([F(1), F(2)], lp.LE, F(1))], 1)
    with pytest.raises(ValueError):
        lp.problem([F(1)], [([F(1)], "<", F(1))], 1)
    with pytest.raises(ValueError):
        lp.problem([F(1), F(1)], [], 1)


def test_determinism():
    prob = boxed_random_lp(7)
    first = lp.solve_exact(prob)
    for _ in range(3):
        again = lp.solve_exact(prob)
        assert again.status == first.status
        assert again.value == first.value
        assert again.solution == first.solution


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_exact_optimum_matches_vertex_enumeration(seed):
    prob = boxed_random_lp(seed)
    out = lp.solve_exact(prob)
    oracle = brute_force_optimum(prob)
    if out.status == lp.LPStatus.OPTIMAL:
        assert oracle == out.value
        residual_free = lp.check_solution(prob, out.solution)
        assert residual_free
    else:
        # The box forces boundedness, so the only alternative is infeasible.
        assert out.status == lp.LPStatus.INFEASIBLE
        assert oracle is None
        assert lp.verify_farkas(prob, out.infeasibility_certificate)


def test_float_agrees_with_exact_on_100_seeded_instances():
    mismatches = 0
    for seed in range(100):
        prob = boxed_random_lp(seed)
        exact = lp.solve_exact(prob)
        approx = lp.solve_float(prob, tol=1e-9)
        assert approx.status.value != "stalled"
        if approx.status != exact.status:
            mismatches += 1
        elif exact.status == lp.LPStatus.OPTIMAL:
            assert abs(float(exact.value) - approx.value) <= 1e-6
    assert mismatches == 0


def _degenerate_lp(seed):
    """Standard form with most right-hand sides zero, so many pivots are degenerate."""
    rng = random.Random(seed)
    m, n = rng.randint(2, 5), rng.randint(4, 9)
    rows = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(m)]
    rhs = [F(rng.randint(-4, 4)) if rng.random() < 0.2 else F(0) for _ in range(m)]
    costs = [F(rng.randint(-4, 4)) for _ in range(n)]
    return costs, rows, rhs


def test_float_pricing_agrees_with_exact_on_degenerate_lps():
    statuses = set()
    for seed in range(300):
        costs, rows, rhs = _degenerate_lp(seed)
        exact = simplex.solve_standard_min(costs, rows, rhs)
        approx = simplex.solve_standard_min(costs, rows, rhs, simplex.Arith(1e-9))
        assert approx.status == exact.status
        if exact.status == simplex.OPTIMAL:
            assert abs(approx.value - exact.value) <= 1e-9
        statuses.add(exact.status)
    assert statuses == {simplex.OPTIMAL, simplex.INFEASIBLE, simplex.UNBOUNDED}
    # Without constraint rows the dual has no column to price.
    for objective, status in (([1], lp.LPStatus.UNBOUNDED), ([0], lp.LPStatus.OPTIMAL)):
        prob = lp.problem(objective, [], 1)
        assert lp.solve_float(prob).status == lp.solve_exact(prob).status == status


def test_float_pricing_terminates_on_chvatals_cycling_example():
    # Chvatal, Linear Programming (1983), section 3: min -10x1 + 57x2 + 9x3
    # + 24x4 with slacks x5..x7. Dantzig's rule alone cycles here from the
    # tableau's artificial start (it stalls at any pivot budget); the switch
    # to Bland's rule after ncols pivots reaches the optimum.
    costs = [-10, 57, 9, 24, 0, 0, 0]
    rows = [[F(1, 2), F(-11, 2), F(-5, 2), 9, 1, 0, 0],
            [F(1, 2), F(-3, 2), F(-1, 2), 1, 0, 1, 0],
            [1, 0, 0, 0, 0, 0, 1]]
    rhs = [0, 0, 1]
    exact = simplex.solve_standard_min(costs, rows, rhs)
    approx = simplex.solve_standard_min(costs, rows, rhs, simplex.Arith(1e-9))
    assert exact.status == approx.status == simplex.OPTIMAL
    assert exact.value == -1 and abs(approx.value + 1) <= 1e-9


def _float_success_problems():
    float_cube = hypercube_theory(3)
    float_cube = make_theory(float_cube.name, float_cube.unit, float_cube.generators,
                             numeric_mode=FLOAT)
    for theory, indices in ((ngon_theory(5), (0, 1)), (ngon_theory(5), (0, 2)),
                            (ngon_theory(7), (0, 3)), (ngon_theory(12), (0, 1, 5)),
                            (ngon_theory(24), (3, 15)), (float_cube, (0, 3, 5))):
        inst = discrimination.instance_from_indices(theory, indices)
        yield discrimination.success_probability_problem(inst)[0]


def test_float_row_multipliers_solve_the_dual():
    # y.A = objective and y.b = value within tol; y >= 0 on <= rows, <= 0 on >= rows.
    tol = 1e-9
    for prob in _float_success_problems():
        out = lp.solve_float(prob, tol=tol)
        y = out.multipliers
        assert out.status == lp.LPStatus.OPTIMAL and len(y) == len(prob.constraints)
        for j, c in enumerate(prob.objective):
            assert abs(sum(v * row[j] for v, (row, _, _) in zip(y, prob.constraints)) - c) <= tol
        assert abs(sum(v * b for v, (_, _, b) in zip(y, prob.constraints)) - out.value) <= tol
        for v, (_, rel, _) in zip(y, prob.constraints):
            assert (v >= -tol) if rel == lp.LE else (v <= tol)
    assert lp.solve_exact(boxed_random_lp(3)).multipliers is None  # built for float solves only


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
def test_float_requires_positive_tolerance(tol):
    prob = boxed_random_lp(3)
    with pytest.raises(ValueError):
        lp.solve_float(prob, tol=tol)


def test_primal_and_dual_both_infeasible_in_either_mode():
    # x1 - x2 <= -1 and x2 - x1 <= -1 add up to 0 <= -2, and the dual's
    # rows y1 - y2 = 1 and y2 - y1 = 1 add up to 0 = 2.
    prob = lp.problem([F(1), F(1)], [([F(1), F(-1)], lp.LE, F(-1)),
                                     ([F(-1), F(1)], lp.LE, F(-1))], 2)
    exact = lp.solve_exact(prob)
    assert exact.status == lp.LPStatus.INFEASIBLE
    assert lp.verify_farkas(prob, exact.infeasibility_certificate)
    approx = lp.solve_float(prob, tol=1e-9)
    assert approx.status == lp.LPStatus.INFEASIBLE
    assert lp.verify_farkas(prob, approx.infeasibility_certificate, tol=1e-9)


def test_farkas_rejects_bogus_certificates():
    prob = lp.problem([F(1)], [([F(1)], lp.GE, F(1)), ([F(1)], lp.LE, F(0))], 1)
    assert not lp.verify_farkas(prob, (F(1), F(1)))   # wrong sign on >= row
    assert not lp.verify_farkas(prob, (F(0), F(0)))   # no contradiction
    assert not lp.verify_farkas(prob, (F(1),))        # wrong length


# --- float-guided exact solves against the plain Bland loop ------------------

def _seeded_lps(count=80):
    """Boxed random LPs, and the same rows without the box (often unbounded)."""
    problems = []
    for seed in range(count):
        boxed = boxed_random_lp(seed, extra_rows=seed % 4 + 1)
        n = boxed.num_vars
        problems += [boxed, lp.LPProblem(boxed.objective, boxed.constraints[2 * n:], n)]
    return problems


def test_guided_exact_matches_plain_bland_on_boxed_random_lps():
    problems = _seeded_lps()
    with exact_bland_runs() as fallbacks:
        guided = [lp.solve_exact(p) for p in problems]
    with plain_bland():
        plain = [lp.solve_exact(p) for p in problems]
    assert guided == plain
    assert {out.status for out in guided} == {lp.LPStatus.OPTIMAL, lp.LPStatus.INFEASIBLE,
                                              lp.LPStatus.UNBOUNDED}
    assert fallbacks == []  # the guide's basis was certified every time


def _discrimination_answers(theories):
    answers = []
    for t in theories:
        for k in (2, 3):
            for subset in itertools.combinations(range(t.num_generators), k):
                states = [t.generators[i] for i in subset]
                answers.append(discrimination.is_perfectly_distinguishable(t, states,
                                                                           validate=False))
                answers.append(discrimination.max_success_probability(
                    discrimination.instance_from_indices(t, subset)))
    return answers


def test_guided_exact_matches_plain_bland_on_discrimination_lps():
    theories = [random_lifted_theory(seed) for seed in range(8)]
    with exact_bland_runs() as fallbacks:
        guided = _discrimination_answers(theories)
    with plain_bland():
        plain = _discrimination_answers(theories)
    assert guided == plain
    perfect = [a.distinguishable for a in guided
               if isinstance(a, discrimination.DistinguishabilityAnswer)]
    assert any(perfect) and not all(perfect)
    assert fallbacks == []


_WRONG_STATUS = {simplex.OPTIMAL: simplex.UNBOUNDED, simplex.UNBOUNDED: simplex.INFEASIBLE,
                 simplex.INFEASIBLE: simplex.OPTIMAL}


def test_wrong_guide_report_falls_back_to_bland(monkeypatch):
    # The guide reports its basis under a status the LP cannot have. An
    # exact check of any status excludes the other two, so every solve
    # must fall back, and the fallback is the plain Bland loop.
    problems = _seeded_lps(30)
    with plain_bland():
        plain = [lp.solve_exact(p) for p in problems]
    guide = simplex._float_guide
    reports = []

    def wrong(*args):
        status, basis, _ = guide(*args)
        reports.append(status)
        return _WRONG_STATUS[status], basis, 0

    monkeypatch.setattr(simplex, "_float_guide", wrong)
    with exact_bland_runs() as fallbacks:
        forced = [lp.solve_exact(p) for p in problems]  # the gates re-check each answer
    assert forced == plain
    assert len(fallbacks) == len(reports) >= len(problems)
    for prob, out in zip(problems, forced):
        if out.status == lp.LPStatus.OPTIMAL:
            assert lp.check_solution(prob, out.solution)
        elif out.status == lp.LPStatus.INFEASIBLE:
            assert lp.verify_farkas(prob, out.infeasibility_certificate)


def _standard_form(seed, m=2, n=4):
    rng = random.Random(seed)
    rows = [[random_rational(rng, span=3, den=2) for _ in range(n)] for _ in range(m)]
    rhs = [random_rational(rng, span=4, den=2) if rng.random() < 0.7 else F(0) for _ in range(m)]
    costs = [random_rational(rng, span=3, den=2) for _ in range(n)]
    return costs, rows, rhs


@pytest.mark.parametrize("enters", [False, True])
def test_the_bland_scan_enters_below_minus_tol_only(enters):
    # Phase 1 leaves columns 0 and 1 basic at zero cost, so phase 2 prices
    # column 2 at its cost c and column 3 at -1. Bland's scan enters
    # column 2 only when Arith.is_neg(c): not at c = -tol, but at the
    # next float below it.
    arith = simplex._GuideArith(1e-9)  # prices by Bland's rule alone
    c = math.nextafter(-arith.tol, -math.inf) if enters else -arith.tol
    assert arith.is_neg(c) is enters
    rows = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
    res, basis, _ = simplex._bland([0.0, 0.0, c, -1.0], rows, [1.0, 1.0], arith)
    assert res.status == simplex.OPTIMAL
    assert basis == ([2, 3] if enters else [0, 3])


def test_basis_certification_accepts_only_true_reports():
    # Offer every basis of small standard-form problems under every status:
    # whatever the exact check accepts must be a correct, checkable answer.
    accepted = set()
    for seed in range(40):
        costs, rows, rhs = _standard_form(seed)
        m, n = len(rows), len(costs)
        truth = simplex._bland(costs, rows, rhs, simplex.Arith())[0]

        def col(j):
            return [row[j] for row in rows]

        for basis in itertools.combinations(range(n + m), m):
            reports = [(simplex.OPTIMAL, None), (simplex.INFEASIBLE, None)]
            reports += [(simplex.UNBOUNDED, k) for k in range(n) if k not in basis]
            for status, entering in reports:
                res = simplex._certify_basis(costs, rows, rhs, status, list(basis), entering)
                if res is None:
                    continue
                accepted.add(status)
                assert res.status == status == truth.status
                if status == simplex.OPTIMAL:
                    assert all(v >= 0 for v in res.x)
                    assert [sum(a * v for a, v in zip(row, res.x)) for row in rows] == rhs
                    assert res.value == truth.value == sum(c * v for c, v in zip(costs, res.x))
                    assert all(sum(y * a for y, a in zip(res.duals, col(j))) <= costs[j]
                               for j in range(n))
                    assert sum(y * b for y, b in zip(res.duals, rhs)) == res.value
                elif status == simplex.UNBOUNDED:
                    assert all(v >= 0 for v in res.ray)
                    assert all(sum(a * v for a, v in zip(row, res.ray)) == 0 for row in rows)
                    assert sum(c * v for c, v in zip(costs, res.ray)) < 0
                else:
                    assert all(sum(y * a for y, a in zip(res.farkas, col(j))) <= 0
                               for j in range(n))
                    assert sum(y * b for y, b in zip(res.farkas, rhs)) > 0
    assert accepted == {simplex.OPTIMAL, simplex.UNBOUNDED, simplex.INFEASIBLE}


def test_nonzero_rhs_certification_matches_the_reference():
    # At b != 0 the prices are the elimination's integer numerators over
    # |det B|, and y . [A | b] is one combination of the scaled rows: every
    # report on every basis, singular ones included, must give what the
    # reference (Fraction prices, one dot product per column) gave, value
    # for value and type for type.
    compared = singular = 0
    accepted = set()
    for seed in range(80):
        costs, rows, rhs = _standard_form(seed, m=2 + seed % 2)
        if not any(rhs):
            continue
        m, n = len(rows), len(costs)

        def col(j):
            return [row[j] for row in rows] if j < n else [int(i == j - n) for i in range(m)]

        compared += 1
        for basis in itertools.combinations(range(n + m), m):
            singular += len(pivot_columns([[col(j)[i] for j in basis] for i in range(m)])) < m
            reports = [(simplex.OPTIMAL, None), (simplex.INFEASIBLE, None)]
            reports += [(simplex.UNBOUNDED, k) for k in range(n) if k not in basis]
            for status, entering in reports:
                res = simplex._certify_basis(costs, rows, rhs, status, list(basis), entering)
                ref = reference_certify_basis(costs, rows, rhs, status, list(basis), entering)
                assert res == ref and repr(res) == repr(ref)
                if res is not None:
                    accepted.add(status)
    assert compared >= 60 and singular >= 100
    assert accepted == {simplex.OPTIMAL, simplex.UNBOUNDED, simplex.INFEASIBLE}


def _zero_rhs_form(seed):
    """A small standard-form problem with an all-zero rhs (0 or F(0)); in
    odd seeds one column is twice another, in seeds 4k + 2 one row is zero,
    so that some bases are singular."""
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(2, 5)
    rows = [[random_rational(rng, span=3, den=2) for _ in range(n)] for _ in range(m)]
    if seed % 2:
        k = rng.randrange(n - 1)
        for row in rows:
            row[n - 1] = 2 * row[k]
    elif seed % 4 == 2:
        rows[-1] = [0] * n
    costs = [rng.choice((random_rational(rng, span=3, den=2), rng.randint(-2, 2)))
             for _ in range(n)]
    return costs, rows, [rng.choice((0, F(0))) for _ in range(m)]


def test_zero_rhs_certification_matches_the_level_solve():
    # At b = 0 the levels are taken as zero, with no elimination: every
    # report on every basis, singular ones included, must give what the
    # level solve gave, value for value and type for type.
    accepted = singular = 0
    for seed in range(60):
        costs, rows, rhs = _zero_rhs_form(seed)
        m, n = len(rows), len(costs)

        def col(j):
            return [row[j] for row in rows] if j < n else [int(i == j - n) for i in range(m)]

        for basis in itertools.combinations(range(n + m), m):
            bmat = [[col(j)[i] for j in basis] for i in range(m)]
            singular += len(pivot_columns(bmat)) < m
            reports = [(simplex.OPTIMAL, None), (simplex.INFEASIBLE, None)]
            reports += [(simplex.UNBOUNDED, k) for k in range(n) if k not in basis]
            for status, entering in reports:
                res = simplex._certify_basis(costs, rows, rhs, status, list(basis), entering)
                ref = reference_certify_basis(costs, rows, rhs, status, list(basis), entering)
                assert res == ref and repr(res) == repr(ref)
                accepted += res is not None and status == simplex.OPTIMAL
    assert accepted >= 100 and singular >= 50


def test_a_stalled_guide_falls_back_to_exact_bland(monkeypatch):
    # ROADMAP item 8: every pair decision on the rounded 11-gon stalls its
    # float guide, and exact Bland, run cold, gives the answers.
    theory = theory_from_json(ROUNDED_11GON)
    pairs = [[theory.generators[i], theory.generators[j]]
             for i, j in itertools.combinations(range(theory.num_generators), 2)]
    guide = simplex._float_guide
    guides = []

    def recorded(*args):
        guides.append(guide(*args))
        return guides[-1]

    monkeypatch.setattr(simplex, "_float_guide", recorded)
    with exact_bland_runs() as fallbacks:
        guided = [discrimination.is_perfectly_distinguishable(theory, states, validate=False)
                  for states in pairs]
    assert len(guides) >= len(pairs) == 55
    assert guides == [None] * len(guides) and len(fallbacks) == len(guides)
    with plain_bland():
        plain = [discrimination.is_perfectly_distinguishable(theory, states, validate=False)
                 for states in pairs]
    assert guided == plain
    assert sum(answer.distinguishable for answer in guided) == 11


def test_a_coefficient_beyond_the_float_range_skips_the_guide(monkeypatch):
    # float(10**400) overflows, so the guide returns None before any float
    # pivot, and exact Bland decides every LP of the pair.
    theory = make_theory("huge", (1, 0), [(1, 0), (1, 10 ** 400)])
    guide = simplex._float_guide
    guides = []

    def recorded(*args):
        guides.append(guide(*args))
        return guides[-1]

    monkeypatch.setattr(simplex, "_float_guide", recorded)
    with exact_bland_runs() as fallbacks:
        answer = discrimination.is_perfectly_distinguishable(theory, theory.generators)
    assert answer.distinguishable
    assert discrimination.verify_witness(theory, theory.generators, answer.witness)
    assert guides and guides == [None] * len(guides) and len(fallbacks) == len(guides)


# min -2 x3 - 3 x4 - 3 x5 over 3 x1 + x2 + 2 x3 + 2 x4 = 3, x1 + x3 + 3 x4 + x5 = 2,
# x >= 0: phase 1 takes two pivots, and phase 2, from the basis phase 1 ends on,
# three more.
_BUDGET_LP = ([0, 0, -2, -3, -3], [[3, 1, 2, 2, 0], [1, 0, 1, 3, 1]], [3, 2])


def _budget_run(costs, budget, arith, monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", budget)
    return simplex.solve_standard_min(costs, _BUDGET_LP[1], _BUDGET_LP[2], arith)


def test_float_runs_stall_past_the_budget_in_either_phase(monkeypatch):
    costs, zero = _BUDGET_LP[0], [0] * len(_BUDGET_LP[0])
    arith = simplex.Arith(1e-9)
    assert _budget_run(costs, 10, arith, monkeypatch).status == simplex.OPTIMAL
    # Phase 1 reads no costs: a stall with zero costs is a phase-1 stall.
    assert _budget_run(zero, 1, arith, monkeypatch).status == simplex.STALLED
    # Phase 1 fits this budget, so the stall with the true costs is in phase 2.
    assert _budget_run(zero, 2, arith, monkeypatch).status == simplex.OPTIMAL
    assert _budget_run(costs, 2, arith, monkeypatch).status == simplex.STALLED


def test_an_exact_run_past_the_budget_is_a_bug(monkeypatch):
    # The guide stalls too, so exact Bland runs, and it must never stall.
    with pytest.raises(RuntimeError, match="exceeded its budget on exact data"):
        _budget_run(_BUDGET_LP[0], 1, None, monkeypatch)


def test_float_callers_of_a_stalled_run(monkeypatch):
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
    prob = lp.problem([F(1), F(1)], [([F(1), F(2)], lp.LE, F(4)), ([F(3), F(1)], lp.LE, F(6))], 2)
    assert lp.solve_float(prob).status == lp.LPStatus.STALLED
    pentagon = ngon_theory(5)
    with pytest.raises(IndeterminateError, match="membership LP stalled"):
        is_state(pentagon, pentagon.generators[0])
    with pytest.raises(IndeterminateError, match="membership LP stalled"):
        reduce_to_pure_states(pentagon)
