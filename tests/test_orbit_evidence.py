"""Evidence moved along registered orbits (discrimination.register_orbits,
which decides each orbit's representative by LP as it registers it):
every answer against a fresh theory's LP verdict, and every returned
witness, moved or from an LP, or Farkas vector, from the member's own LP,
re-checked on its own states by the reference (conftest.rechecks) and by
verify_witness / exact lp.verify_farkas."""

import contextlib
import functools
import itertools
import math
import pickle
import random
from array import array

import pytest

from conftest import SYMMETRIC_FAMILIES, ScaledEvidence, move, planted, rechecks, scale_evidence
from polygpt import capacity, discrimination, lp
from polygpt import theory as theory_module
from polygpt.discrimination import is_perfectly_distinguishable, register_orbits, verify_witness
from polygpt.families import build_family, hypercube_theory
from polygpt.theory import FLOAT, make_theory

# The specs whose N-subsets a fresh theory decides one LP each in a few
# seconds in all: the m-cubes up to m = 5 and the small symmetric families.
SPECS = sorted({(spec, n) for spec in SYMMETRIC_FAMILIES for n in (2, 3)
                if n <= build_family(spec).num_generators
                and math.comb(build_family(spec).num_generators, n) <= 500})


@contextlib.contextmanager
def counted_lps():
    """The problems of every lp.solve_exact call made in this process."""
    solved = []
    solve = lp.solve_exact

    def counted(prob):
        solved.append(prob)
        return solve(prob)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve_exact", counted)
        yield solved


def evidence_rechecks(theory, indices, answer):
    """The answer's witness or Farkas vector passes the reference re-check
    on the generators at indices, in that order, and verify_witness or
    exact verify_farkas on its own states and problem."""
    states = [theory.generators[k] for k in indices]
    if answer.distinguishable:
        evidence, own = answer.witness, verify_witness(theory, states, answer.witness)
    else:
        evidence = answer.certificate
        own = lp.verify_farkas(discrimination._feasibility_problem(theory, states), evidence)
        own = own and lp.verify_farkas(answer.problem, evidence)
    return own and rechecks(theory, indices, scale_evidence(evidence))


def registered(spec, n_arity):
    theory = build_family(spec)
    subsets = list(itertools.combinations(range(theory.num_generators), n_arity))
    register_orbits(theory, subsets)
    return theory, subsets


def test_the_specs_cover_the_cubes_and_both_arities():
    assert {f"hypercube:m={m}" for m in range(1, 6)} <= {spec for spec, _ in SPECS}
    assert {n for _, n in SPECS} == {2, 3}


@pytest.mark.parametrize("spec,n_arity", SPECS)
def test_moved_answers_equal_fresh_lp_verdicts_and_recheck(spec, n_arity):
    # Each subset in a seeded order of subsets and of its states, so that
    # members come before their representatives and witnesses are reordered.
    theory = build_family(spec)
    subsets = list(itertools.combinations(range(theory.num_generators), n_arity))
    fresh = build_family(spec)
    rng = random.Random(f"{spec} {n_arity}")
    calls = [tuple(rng.sample(s, len(s))) for s in subsets]
    rng.shuffle(calls)
    orbits = len(theory_module.orbits(subsets, theory.symmetries))
    with counted_lps() as solved:
        register_orbits(theory, subsets)
        answers = [is_perfectly_distinguishable(theory, [theory.generators[k] for k in c],
                                                validate=False) for c in calls]
    # One LP per representative, then one per member of a refused orbit:
    # every moved witness passes, as each word is a symmetry.
    assert len(solved) == orbits + sum(not answer.distinguishable for answer in answers)
    for c, answer in zip(calls, answers):
        states = [fresh.generators[k] for k in c]
        expected = is_perfectly_distinguishable(fresh, states, validate=False).distinguishable
        assert answer.distinguishable == expected
        assert evidence_rechecks(theory, c, answer)


@pytest.mark.parametrize("m", range(1, 7))
def test_the_sweep_solves_one_lp_per_orbit_and_rechecks_every_pair(m, monkeypatch):
    # The m-cube's pairs fall into m orbits, one per Hamming distance.
    decided = []
    decide = discrimination.is_perfectly_distinguishable

    def captured(theory, states, validate=True):
        answer = decide(theory, states, validate=validate)
        decided.append((theory, states, answer))
        return answer

    monkeypatch.setattr(discrimination, "is_perfectly_distinguishable", captured)
    with counted_lps() as solved:
        assert capacity.verify_hypercube_memory(m, workers=1).verified
    assert len(solved) == m and len(decided) == math.comb(2 ** m, 2)
    for theory, states, answer in decided:
        indices = [theory.generators.index(s) for s in states]
        assert answer.distinguishable and evidence_rechecks(theory, indices, answer)


def mutants(word):
    """Wrong words: word with two of its entries exchanged, each pair of
    positions once. Some still map the representative onto the member."""
    for a, b in itertools.combinations(range(len(word)), 2):
        mutant = array(word.typecode, word)
        mutant[a], mutant[b] = word[b], word[a]
        yield mutant


@pytest.mark.parametrize("spec,n_arity", [("hypercube:m=3", 2), ("hypercube:m=3", 3),
                                           ("simplex-power:q=3,l=2", 3), ("ngon:n=6", 2)])
def test_a_mutant_word_costs_an_lp_and_never_a_verdict(spec, n_arity):
    # Registered members get wrong words in turn. Where the reference says
    # the evidence moved by one fails its re-check, the answer costs one
    # LP, else none; the verdict is always the fresh one.
    theory, subsets = registered(spec, n_arity)
    fresh = build_family(spec)
    gens = theory.generators
    failed = 0
    for subset in [s for s in subsets if frozenset(s) in theory.orbit_members][:12]:
        key = frozenset(subset)
        orbit, word = theory.orbit_members[key]
        states = [gens[k] for k in subset]
        expected = is_perfectly_distinguishable(fresh, states, validate=False)
        evidence = ScaledEvidence(True, tuple(map(tuple, orbit.rows)), orbit.den)
        for mutant in itertools.islice(mutants(word), 40):
            theory.orbit_members[key] = (orbit, mutant)
            image = [mutant[k] for k in orbit.rep]
            passes = (sorted(image) == list(subset)
                      and rechecks(theory, image, move(theory, evidence, mutant)))
            with counted_lps() as solved:
                answer = is_perfectly_distinguishable(theory, states, validate=False)
            assert answer.distinguishable == expected.distinguishable
            assert evidence_rechecks(theory, subset, answer)
            assert len(solved) == (0 if passes else 1)
            failed += not passes
        theory.orbit_members[key] = (orbit, word)
    if (spec, n_arity) == ("hypercube:m=3", 3):
        # No triple of the 3-cube is distinguishable, so none is registered.
        assert not theory.orbit_members
    else:
        assert failed > 0


def test_the_moved_witness_does_not_rest_on_responds(monkeypatch):
    # The moved witness is re-checked on the member's own feasibility
    # problem (lp.check_solution), as an LP's optimum is, not by
    # theory.responds, verify_witness's check: with responds refusing
    # everything, the sweep's second route still answers every pair with
    # one LP per orbit, and only the closed-form route fails.
    monkeypatch.setattr(discrimination, "responds", lambda *args: False)
    with counted_lps() as solved:
        theory, subsets = registered("hypercube:m=4", 2)
        answers = [is_perfectly_distinguishable(theory, [theory.generators[k] for k in s],
                                                validate=False) for s in subsets]
    assert all(answer.distinguishable for answer in answers) and len(solved) == 4
    assert not capacity.verify_hypercube_memory(2, workers=1).verified


def refuse_moves(monkeypatch):
    def moved(*args):
        raise AssertionError("the moved path was taken")

    monkeypatch.setattr(discrimination, "_orbit_verdict", moved)


def test_a_float_theory_never_takes_the_moved_path(monkeypatch):
    exact = hypercube_theory(3)
    theory = make_theory("float-cube", exact.unit, exact.generators, numeric_mode=FLOAT)
    fresh = make_theory("float-cube", exact.unit, exact.generators, numeric_mode=FLOAT)
    subsets = list(itertools.combinations(range(theory.num_generators), 2))
    register_orbits(theory, subsets)
    assert not theory.orbit_members
    refuse_moves(monkeypatch)
    for s in subsets:
        states = [theory.generators[k] for k in s]
        answer = is_perfectly_distinguishable(theory, states, validate=False)
        assert answer == is_perfectly_distinguishable(fresh, states, validate=False)


def test_unregistered_subsets_and_non_generator_states_never_take_the_moved_path(monkeypatch):
    theory = hypercube_theory(3)
    fresh = hypercube_theory(3)
    gens = theory.generators
    pairs = list(itertools.combinations(range(theory.num_generators), 2))
    register_orbits(theory, pairs[:10])
    refuse_moves(monkeypatch)
    midpoint = tuple((a + b) / 2 for a, b in zip(gens[0], gens[7]))
    calls = [[gens[i], gens[j]] for i, j in pairs[10:]]
    calls += [[gens[0], gens[1], gens[2]], [midpoint, gens[1]], [gens[1], midpoint]]
    for states in calls:
        answer = is_perfectly_distinguishable(theory, states)
        expected = is_perfectly_distinguishable(fresh, states)
        assert answer.distinguishable == expected.distinguishable
        assert (verify_witness(theory, states, answer.witness) if answer.distinguishable
                else lp.verify_farkas(answer.problem, answer.certificate))


def test_a_theory_without_a_basis_decides_each_call_by_lp():
    # Generators that do not span: no group, no basis, so a subset asked
    # again is decided again by its own LP.
    theory = make_theory("flat", (1, 0, 0), [(1, 0, 0), (1, 1, 0), (1, 2, 0)])
    register_orbits(theory, [(0, 2), (0, 1)])
    assert theory.symmetries == () and theory.basis_inverse is None
    for _ in range(2):
        with counted_lps() as solved:
            answer = is_perfectly_distinguishable(theory, theory.generators[::2])
        assert answer.distinguishable and len(solved) == 1


@pytest.mark.parametrize("spec", ["hypercube:m=3", "simplex-power:q=3,l=2"])
def test_registration_keeps_exactly_the_distinguishable_subsets(spec):
    # A subset is registered when a fresh theory's own LP finds it distinguishable.
    theory, subsets = registered(spec, 3)
    fresh = build_family(spec)
    expected = [is_perfectly_distinguishable(fresh, [fresh.generators[k] for k in s],
                                             validate=False).distinguishable for s in subsets]
    assert [frozenset(s) in theory.orbit_members for s in subsets] == expected


def test_a_spanning_theory_with_a_trivial_group_registers_nothing():
    theory = planted(hypercube_theory(3), ())
    assert theory.symmetries == () and theory.basis_inverse is not None
    with counted_lps() as solved:
        register_orbits(theory, list(itertools.combinations(range(theory.num_generators), 2)))
    assert not theory.orbit_members and not solved


def test_no_pool_chunk_solves_an_lp():
    # The sweep's chunk function, pickled and unpickled as parallel_map
    # hands it to a worker, answers every pair of the 5-cube with no LP.
    theory = hypercube_theory(5)
    pairs = list(itertools.combinations(range(theory.num_generators), 2))
    register_orbits(theory, pairs)
    scaled = [theory.scaled_rows(face.effects) for face in capacity._face_measurements(theory)]
    chunk = pickle.loads(pickle.dumps(functools.partial(capacity._pair_checks, theory, scaled)))
    with counted_lps() as solved:
        results = [chunk(pair) for pair in pairs]
    assert not solved and results == [(True, True)] * len(pairs)
