"""Discrimination LP against hand-worked instances and geometric oracles,
plus the solver-independent certificates."""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (float_ngon, interior_angle_sum_exceeds_pi, linearly_independent, mat_vec,
                      ngon_pair_separable_by_direction, random_invertible_matrix,
                      random_lifted_theory)
from polygpt import discrimination, lp
from polygpt.discrimination import (IndeterminateError, instance, instance_from_indices,
                                    is_perfectly_distinguishable, max_success_probability,
                                    pairwise_distinguishable, success_probability_problem,
                                    verify_witness)
from polygpt.families import (classical_simplex, codeword_state_index, hypercube_effect,
                              hypercube_theory, ngon_theory, simplex_power)
from polygpt.linalg import dot
from polygpt.theory import FLOAT, Measurement, Theory, conic_weights, make_theory


def cube_vertex(theory, coords):
    return theory.generators.index(tuple(F(c) for c in coords))


def test_identical_states_best_prior_wins():
    cube = hypercube_theory(3)
    s = cube.generators[0]
    res = max_success_probability(instance(cube, [s, s], [F(3, 10), F(7, 10)],
                                           validate=False))
    assert res.p_success == F(7, 10)
    assert not res.perfect


def test_distinct_cube_vertices_perfect():
    cube = hypercube_theory(3)
    res = max_success_probability(instance_from_indices(cube, [0, 5], [F(1, 2), F(1, 2)]))
    assert res.p_success == 1
    assert res.perfect


class TestAppendixCTriple:
    """The cube counterexample: delta-conditions satisfiable by effects
    that fail measurement normalization; exact optimum is 2/3."""

    def setup_method(self):
        self.cube = hypercube_theory(3)
        self.indices = [cube_vertex(self.cube, c) for c in
                        [(1, 1, 1, 1), (1, -1, 1, -1), (1, -1, -1, 1)]]
        self.states = [self.cube.generators[i] for i in self.indices]

    def test_not_perfectly_distinguishable_with_verified_certificate(self):
        ans = is_perfectly_distinguishable(self.cube, self.states, validate=False)
        assert not ans.distinguishable
        assert lp.verify_farkas(ans.problem, ans.certificate)

    def test_exact_optimum_value(self):
        inst = instance(self.cube, self.states, validate=False)
        res = max_success_probability(inst)
        assert res.p_success == F(2, 3)
        # Lower bound: the returned measurement really achieves it.
        achieved = sum(p * dot(e, s) for p, e, s in
                       zip(inst.priors, res.measurement.effects, inst.states))
        assert achieved == F(2, 3)
        from polygpt.theory import is_measurement
        assert is_measurement(self.cube, res.measurement)

    def test_dual_certificate_bounds_the_optimum(self):
        # Upper bound, solver-independent once verified: a feasible dual
        # vector with objective 2/3 caps every measurement by weak duality.
        inst = instance(self.cube, self.states, validate=False)
        prob, offset = success_probability_problem(inst)
        dual = _dual_problem(prob)
        out = lp.solve_exact(dual)
        assert out.status == lp.LPStatus.OPTIMAL
        y = out.solution
        _assert_dual_feasible(prob, y)
        dual_value = -out.value  # dual minimizes; the LPProblem maximizes -b.y
        assert offset + dual_value == F(2, 3)

    def test_discretized_measurement_search_never_beats_the_lp(self):
        best = _quarter_grid_search_cube_triple(self.states)
        assert best == F(2, 3)

    def test_fixture_effects_satisfy_delta_but_not_normalization(self):
        effects = ((F(1, 2), F(1, 2), F(0), F(0)),
                   (F(1, 2), F(0), F(0), F(-1, 2)),
                   (F(1, 2), F(0), F(-1, 2), F(0)))
        for i, e in enumerate(effects):
            for j, s in enumerate(self.states):
                assert dot(e, s) == (1 if i == j else 0)
        assert not verify_witness(self.cube, self.states, Measurement(effects))


def _dual_problem(prob):
    """Textbook dual of max c.x s.t. rows: min y.b, A^T y = c with sign
    constraints per row kind, phrased as another LPProblem."""
    m = len(prob.constraints)
    rows = []
    for j in range(prob.num_vars):
        col = [prob.constraints[i][0][j] for i in range(m)]
        rows.append((col, lp.EQ, prob.objective[j]))
    for i, (_, rel, _) in enumerate(prob.constraints):
        e = [F(1) if k == i else F(0) for k in range(m)]
        if rel == lp.LE:
            rows.append((e, lp.GE, F(0)))
        elif rel == lp.GE:
            rows.append((e, lp.LE, F(0)))
    objective = [-prob.constraints[i][2] for i in range(m)]
    return lp.problem(objective, rows, m)


def _assert_dual_feasible(prob, y):
    for j in range(prob.num_vars):
        total = sum(y[i] * prob.constraints[i][0][j] for i in range(len(y)))
        assert total == prob.objective[j]
    for yi, (_, rel, _) in zip(y, prob.constraints):
        if rel == lp.LE:
            assert yi >= 0
        elif rel == lp.GE:
            assert yi <= 0


def _quarter_grid_search_cube_triple(states):
    """Exhaustive quarter-grid enumeration of three-outcome measurements
    on the cube theory; pure arithmetic, no LP involved."""
    grid = [F(k, 4) for k in range(-4, 5)]
    weights = [F(k, 4) for k in range(5)]

    def in_dual_cone(e):
        return sum(abs(v) for v in e[1:]) <= e[0]

    def effect_ok(e):
        return in_dual_cone(e) and sum(abs(v) for v in e[1:]) <= 1 - e[0]

    vectors_by_budget = {}
    for budget in weights:
        vectors_by_budget[budget] = [y for y in itertools.product(grid, repeat=3)
                                     if sum(abs(v) for v in y) <= min(budget, 1 - budget)]
    best = F(0)
    third = F(1, 3)
    for c1 in weights:
        for c2 in weights:
            c3 = 1 - c1 - c2
            if c3 < 0:
                continue
            for y1 in vectors_by_budget[c1]:
                e1 = (c1,) + y1
                v11 = dot(e1, states[0])
                for y2 in vectors_by_budget[c2]:
                    e2 = (c2,) + y2
                    e3 = (c3,) + tuple(-a - b for a, b in zip(y1, y2))
                    if not effect_ok(e3):
                        continue
                    p = third * (v11 + dot(e2, states[1]) + dot(e3, states[2]))
                    if p > best:
                        best = p
    return best


def test_classical_readout_witness():
    t = classical_simplex(4)
    ans = is_perfectly_distinguishable(t, t.generators, validate=False)
    assert ans.distinguishable
    assert verify_witness(t, t.generators, ans.witness)


def test_example_10_triple_not_distinguishable():
    t = simplex_power(2, 2)
    idxs = [codeword_state_index(2, w) for w in [(1, 1), (1, 2), (2, 1)]]
    states = [t.generators[i] for i in idxs]
    ans = is_perfectly_distinguishable(t, states, validate=False)
    assert not ans.distinguishable
    # The ordering certificate: omega2 + omega3 - omega1 lies in the cone,
    # so any effect killing omega2 and omega3 kills omega1 too.
    target = tuple(b + c - a for a, b, c in zip(states[0], states[1], states[2]))
    assert conic_weights(t, target) is not None


def test_four_square_vertices_jointly_fail():
    sq = hypercube_theory(2)
    ans = is_perfectly_distinguishable(sq, sq.generators, validate=False)
    assert not ans.distinguishable
    assert not linearly_independent(sq.generators)


def test_duplicate_states_rejected():
    sq = hypercube_theory(2)
    with pytest.raises(ValueError):
        is_perfectly_distinguishable(sq, [sq.generators[0], sq.generators[0]],
                                     validate=False)


def test_verify_witness_cases():
    cube = hypercube_theory(3)
    a = tuple(F(v) for v in (1, 1, 1, 1))
    b = tuple(F(v) for v in (1, -1, 1, 1))
    e1 = hypercube_effect(3, 1)
    complement = tuple(u - v for u, v in zip(cube.unit, e1))
    assert verify_witness(cube, [a, b], Measurement((e1, complement)))
    assert not verify_witness(cube, [a, b], Measurement((complement, e1)))
    # (u, 0) on two identical states: measurement fine, delta broken.
    zero = (F(0),) * 4
    assert not verify_witness(cube, [a, a], Measurement((cube.unit, zero)))
    assert not verify_witness(cube, [a, b], Measurement((cube.unit,)))


@pytest.mark.parametrize("i,j,expected", [(0, 1, False), (1, 2, False),
                                          (0, 2, True), (1, 3, True), (2, 4, True)])
def test_pentagon_pairs_match_the_supporting_line_oracle(i, j, expected):
    pent = ngon_theory(5)
    assert pairwise_distinguishable(pent, i, j) is expected
    assert ngon_pair_separable_by_direction(5, i, j) is expected
    if abs(i - j) in (1, 4):  # neighbours: the angle criterion rules them out
        assert interior_angle_sum_exceeds_pi(5)


def test_pairwise_requires_distinct_indices():
    with pytest.raises(ValueError):
        pairwise_distinguishable(hypercube_theory(2), 1, 1)


RATIONAL_PENTAGON_LIFT = [
    (F(1), F(1), F(0)),
    (F(1), F(31, 100), F(95, 100)),
    (F(1), F(-81, 100), F(59, 100)),
    (F(1), F(-81, 100), F(-59, 100)),
    (F(1), F(31, 100), F(-95, 100)),
]


def test_float_pentagon_agrees_with_exact_rational_surrogate():
    # No affinely regular pentagon has rational vertices, so the exact
    # backend runs on a close rational pentagon; the distinguishability
    # pattern has wide margins and must coincide pair by pair.
    float_pent = ngon_theory(5)
    exact_pent = Theory("pentagon-rational", 3, (F(1), F(0), F(0)),
                        tuple(RATIONAL_PENTAGON_LIFT))
    for i in range(5):
        for j in range(i + 1, 5):
            assert pairwise_distinguishable(float_pent, i, j) == \
                pairwise_distinguishable(exact_pent, i, j)


def _float_simplex(d):
    t = classical_simplex(d)
    return make_theory(t.name, t.unit, t.generators, numeric_mode=FLOAT)


@pytest.mark.parametrize("theory,indices", [(ngon_theory(5), (0, 2)), (ngon_theory(5), (0, 1)),
                                            (float_ngon(6), (0, 1, 3)),
                                            (_float_simplex(3), (2, 0, 1))])
def test_reversed_resolve_alone_returns_checkable_evidence(monkeypatch, theory, indices):
    # Only the reversed-order re-solve gives a clear verdict; its evidence
    # must still re-check against the caller's states. The success-probability
    # optimum gives no verdict, so both feasibility verdicts run.
    states = [theory.generators[i] for i in indices]
    verdict = discrimination._verdict
    calls = []

    def first_unclear(theory, states, prob, *known):
        calls.append(states)
        return None if len(calls) == 1 else verdict(theory, states, prob, *known)

    monkeypatch.setattr(discrimination, "_success_verdict", lambda *args: None)
    monkeypatch.setattr(discrimination, "_verdict", first_unclear)
    answer = is_perfectly_distinguishable(theory, states, validate=False)
    assert len(calls) == 2
    if answer.distinguishable:
        assert verify_witness(theory, states, answer.witness)
    else:
        assert answer.witness is None
        assert answer.problem == discrimination._feasibility_problem(
            theory, tuple(reversed(states)))
        assert lp.verify_farkas(answer.problem, answer.certificate, tol=theory.arith().tol)


def test_exact_verdict_raises_on_an_unexpected_lp_status(monkeypatch):
    sq = hypercube_theory(2)
    monkeypatch.setattr(lp, "solve_exact", lambda prob: lp.LPOutcome(lp.LPStatus.UNBOUNDED))
    with pytest.raises(RuntimeError, match="UNBOUNDED"):
        is_perfectly_distinguishable(sq, sq.generators[:2], validate=False)


def test_instance_validation():
    sq = hypercube_theory(2)
    with pytest.raises(ValueError):
        instance(sq, [sq.generators[0]], [F(1, 2)])  # priors don't sum to 1
    with pytest.raises(ValueError):
        instance(sq, [(F(1), F(3), F(0))])  # not a state
    with pytest.raises(ValueError):
        instance(sq, [], [])


# --- randomized properties (the acceptance suite runs the full sweeps) -------

def test_success_probability_range_on_random_instances():
    for seed in range(40):
        rng = random.Random(seed)
        t = random_lifted_theory(seed)
        n = rng.randint(2, min(3, t.num_generators))
        idxs = rng.sample(range(t.num_generators), n)
        weights = [F(rng.randint(1, 5)) for _ in range(n)]
        total = sum(weights)
        priors = [w / total for w in weights]
        res = max_success_probability(instance_from_indices(t, idxs, priors))
        assert max(priors) <= res.p_success <= 1


def test_consistency_between_feasibility_and_optimum():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        t = random_lifted_theory(seed)
        n = rng.randint(2, min(3, t.num_generators))
        idxs = rng.sample(range(t.num_generators), n)
        states = [t.generators[i] for i in idxs]
        ans = is_perfectly_distinguishable(t, states, validate=False)
        res = max_success_probability(instance_from_indices(t, idxs))
        assert ans.distinguishable == (res.p_success == 1)
        if ans.distinguishable:
            assert verify_witness(t, states, ans.witness)
        else:
            assert lp.verify_farkas(ans.problem, ans.certificate)


def test_adding_a_state_never_helps():
    for seed in range(25):
        rng = random.Random(2000 + seed)
        t = random_lifted_theory(seed)
        if t.num_generators < 3:
            continue
        n = rng.randint(3, min(4, t.num_generators))
        idxs = rng.sample(range(t.num_generators), n)
        states = [t.generators[i] for i in idxs]
        if is_perfectly_distinguishable(t, states, validate=False).distinguishable:
            sub = states[:-1]
            assert is_perfectly_distinguishable(t, sub, validate=False).distinguishable


def test_affine_invariance_of_answers():
    for seed in range(20):
        rng = random.Random(3000 + seed)
        t = random_lifted_theory(seed)
        mat, inv = random_invertible_matrix(rng, t.dim)
        gens = tuple(mat_vec(mat, g) for g in t.generators)
        unit = mat_vec([tuple(row) for row in zip(*inv)], t.unit)  # u . M^{-1}
        mapped = Theory(t.name + "-mapped", t.dim, unit, gens)
        n = rng.randint(2, min(3, t.num_generators))
        idxs = rng.sample(range(t.num_generators), n)
        before = is_perfectly_distinguishable(
            t, [t.generators[i] for i in idxs], validate=False).distinguishable
        after = is_perfectly_distinguishable(
            mapped, [mapped.generators[i] for i in idxs], validate=False).distinguishable
        assert before == after
        pb = max_success_probability(instance_from_indices(t, idxs)).p_success
        pa = max_success_probability(instance_from_indices(mapped, idxs)).p_success
        assert pb == pa


def test_permutation_equivariance():
    cube = hypercube_theory(3)
    idxs = [0, 3, 5]
    priors = [F(1, 2), F(1, 3), F(1, 6)]
    res = max_success_probability(instance_from_indices(cube, idxs, priors))
    perm = [2, 0, 1]
    res_p = max_success_probability(instance_from_indices(
        cube, [idxs[k] for k in perm], [priors[k] for k in perm]))
    assert res.p_success == res_p.p_success
    for k, eff in enumerate(res_p.measurement.effects):
        target = res.measurement.effects[perm[k]]
        achieved = dot(eff, cube.generators[idxs[perm[k]]])
        expected = dot(target, cube.generators[idxs[perm[k]]])
        assert achieved == expected
