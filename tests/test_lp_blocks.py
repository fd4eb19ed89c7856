"""Shared generator blocks of the discrimination LPs, against problems
built row by row (conftest's reference_* builders)."""

import itertools
import pickle
import random
from fractions import Fraction as F

import pytest

from conftest import (SYMMETRIC_FAMILIES, planted, reference_feasibility_problem,
                      reference_hints, reference_success_problem)
from polygpt import discrimination, lp
from polygpt.families import build_family, hypercube_theory, parse_family_spec
from polygpt.hypergraph import build_hypergraph, hypergraph_to_json, theory_digest
from polygpt.theory import EXACT, FLOAT, make_theory, theory_to_json


def _float_copy(theory):
    return make_theory(theory.name, theory.unit, theory.generators, numeric_mode=FLOAT)


def _sampled_subsets(theory, n_arity, count=2):
    rng = random.Random(f"{theory.name}-{n_arity}")
    subsets = list(itertools.combinations(range(theory.num_generators), n_arity))
    return rng.sample(subsets, min(count, len(subsets)))


def _solve(theory, prob):
    if theory.numeric_mode == EXACT:
        return lp.solve_exact(prob)
    return lp.solve_float(prob, tol=theory.tol)


def _assert_same_problem(theory, prob, reference):
    assert prob == reference
    assert prob.block.constraints  # the problem does lead with a shared block
    if theory.numeric_mode == EXACT:
        assert prob.integer_form == reference.integer_form
    # Every field: status, value, solution, certificate and multipliers.
    assert vars(_solve(theory, prob)) == vars(_solve(theory, reference))


@pytest.mark.parametrize("spec", SYMMETRIC_FAMILIES)
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_block_problems_equal_row_by_row_problems(spec, mode):
    theory = parse_family_spec(spec).build()
    if mode == FLOAT:
        theory = _float_copy(theory)
    for n_arity in (2, 3):
        if n_arity > theory.num_generators:
            continue
        for subset in _sampled_subsets(theory, n_arity):
            states = tuple(theory.generators[i] for i in subset)
            _assert_same_problem(theory, discrimination._feasibility_problem(theory, states),
                                 reference_feasibility_problem(theory, states))
            inst = discrimination.instance(theory, states, validate=False)
            prob, _ = discrimination.success_probability_problem(inst)
            _assert_same_problem(theory, prob,
                                 reference_success_problem(theory, states, inst.priors))
    assert set(theory.lp_blocks) <= {2, 3}


def test_a_mixture_state_with_a_new_denominator_rescales_the_block():
    theory = hypercube_theory(4)
    mixture = tuple(sum(col) / 3 for col in zip(*theory.generators[:3]))
    states = (mixture, theory.generators[15])
    answer = discrimination.is_perfectly_distinguishable(theory, states)
    reference = reference_feasibility_problem(theory, states)
    assert answer.problem == reference
    # The block's rows are integers over d; the mixture brings the denominator 3.
    block_den = answer.problem.block.integer_form[1]
    assert answer.problem.integer_form[1] == 3 * block_den
    assert answer.problem.integer_form == reference.integer_form
    expected = lp.solve_exact(reference)
    assert vars(lp.solve_exact(answer.problem)) == vars(expected)
    assert answer.distinguishable == (expected.status == lp.LPStatus.OPTIMAL)
    if answer.distinguishable:
        assert answer.witness == discrimination._assemble_measurement(
            theory, expected.solution, 2)
    else:
        assert answer.certificate == expected.infeasibility_certificate


def test_psuccess_with_priors_one_third_and_two_thirds_matches_the_row_by_row_problem():
    theory = hypercube_theory(4)
    states = (theory.generators[0], theory.generators[5])
    priors = (F(1, 3), F(2, 3))
    inst = discrimination.instance(theory, states, priors)
    prob, offset = discrimination.success_probability_problem(inst)
    reference = reference_success_problem(theory, states, priors)
    _assert_same_problem(theory, prob, reference)
    result = discrimination.max_success_probability(inst)
    assert result.p_success == lp.solve_exact(reference).value + offset == 1


def test_the_block_cache_is_invisible():
    family = parse_family_spec("simplex-power:q=3,l=2")
    served, fresh = family.build(), family.build()
    before = (theory_digest(served), theory_to_json(served), hash(served))
    build_hypergraph(served, 3)
    discrimination.max_success_probability(
        discrimination.instance(served, served.generators[:2], (F(1, 3), F(2, 3))))
    assert set(served.lp_blocks) == {2, 3}
    assert served == fresh and hash(served) == hash(fresh)
    assert (theory_digest(served), theory_to_json(served), hash(served)) == before
    shipped = pickle.loads(pickle.dumps(served))
    assert shipped == served


def test_a_pooled_build_with_a_theory_that_served_decisions_equals_the_one_worker_build():
    spec = "simplex-power:q=3,l=3"
    served = planted(build_family(spec), reference_hints(spec))
    build_hypergraph(served, 2, workers=1)
    assert 2 in served.lp_blocks
    pooled = build_hypergraph(served, 3, workers=2)
    single = build_hypergraph(planted(build_family(spec), reference_hints(spec)), 3, workers=1)
    assert hypergraph_to_json(pooled) == hypergraph_to_json(single)
    assert len(pooled.edges) == 1737
