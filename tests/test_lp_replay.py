"""Replayed block phase 1s (simplex.record_phase1, LPBlock.phase1) against
cold runs: every zero-objective problem a block leads must get, field for
field, the answer of the same problem solved from scratch."""

import contextlib
import itertools
import pickle
import random
from fractions import Fraction as F

import pytest

from conftest import ROUNDED_11GON, reference_feasibility_problem
from polygpt import capacity, discrimination, lp, simplex
from polygpt.families import parse_family_spec
from polygpt.fixtures import fixtures
from polygpt.theory import EXACT, FLOAT, make_theory, theory_from_json


@contextlib.contextmanager
def recorded(name):
    """Collects (args, kwargs, result) of every call of simplex.<name>."""
    calls = []
    original = getattr(simplex, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs, original(*args, **kwargs)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, name, record)
        yield calls


def _solve(theory, prob):
    if theory.numeric_mode == EXACT:
        return lp.solve_exact(prob)
    return lp.solve_float(prob, tol=theory.arith().tol)


def _same(out, cold):
    # repr tells -0.0 from 0.0, so float answers must agree bit for bit.
    assert repr(vars(out)) == repr(vars(cold))


def _assert_replays_like_a_cold_run(theory, subsets):
    """Each subset's feasibility LP, led by the theory's block, against
    the row-by-row problem (no block, so no prefix): the same guide
    reports when exact, and the same outcome in every field."""
    for subset in subsets:
        states = tuple(theory.generators[i] for i in subset)
        prob = discrimination._feasibility_problem(theory, states)
        with recorded("_float_guide") as guided:
            out = _solve(theory, prob)
        with recorded("_float_guide") as cold_guided:
            cold = _solve(theory, reference_feasibility_problem(theory, states))
        assert [r for *_, r in guided] == [r for *_, r in cold_guided]
        _same(out, cold)
    # The block recorded a prefix, so every solve above with the block replayed it.
    assert prob.block.phase1 is not None


@pytest.mark.parametrize("spec, n_arity", [
    ("hypercube:m=2", 2), ("hypercube:m=3", 2), ("hypercube:m=4", 2),
    ("simplex-power:q=3,l=2", 3)])
def test_exact_family_lps_replay_like_cold_runs(spec, n_arity):
    theory = parse_family_spec(spec).build()
    _assert_replays_like_a_cold_run(
        theory, itertools.combinations(range(theory.num_generators), n_arity))


@pytest.mark.parametrize("name", [name for name, fix in fixtures().items()
                                  if theory_from_json(fix["theory"]).numeric_mode == EXACT])
def test_exact_fixture_triples_replay_like_cold_runs(name):
    theory = theory_from_json(fixtures()[name]["theory"])
    _assert_replays_like_a_cold_run(
        theory, itertools.combinations(range(theory.num_generators), 3))


@pytest.mark.parametrize("spec", [f"ngon:n={n}" for n in range(5, 13)])
def test_ngon_pairs_replay_like_cold_runs_in_both_orders(spec):
    # Both orders: the float decision re-solves each pair reversed.
    theory = parse_family_spec(spec).build()
    _assert_replays_like_a_cold_run(
        theory, itertools.permutations(range(theory.num_generators), 2))


def test_float_five_cube_pairs_replay_like_cold_runs():
    cube = parse_family_spec("hypercube:m=5").build()
    theory = make_theory(cube.name, cube.unit, cube.generators, numeric_mode=FLOAT)
    _assert_replays_like_a_cold_run(
        theory, itertools.combinations(range(theory.num_generators), 2))


def _random_block_problem(seed, arith):
    """A zero-objective problem led by a random block of <= and >= rows
    in arith, with one to three own rows, all integral."""
    rng = random.Random(seed)
    nv = rng.randint(2, 4)

    def row():
        return tuple(rng.randint(-3, 3) for _ in range(nv))

    shared = tuple((row(), rng.choice((lp.LE, lp.GE)), rng.randint(0, 2))
                   for _ in range(rng.randint(3, 6)))
    own = [(row(), rng.choice((lp.EQ, lp.LE, lp.GE)), rng.randint(-2, 2))
           for _ in range(rng.randint(1, 3))]
    return lp.problem((0,) * nv, own, nv, lp.LPBlock(shared, nv, arith))


@pytest.mark.parametrize("arith", [simplex.Arith(), simplex.Arith(1e-9)], ids=["exact", "float"])
def test_random_block_problems_replay_like_cold_runs(arith):
    solve = lp.solve_exact if arith.exact else lp.solve_float
    own_entered = 0
    for seed in range(150):
        prob = _random_block_problem(seed, arith)
        cold = solve(lp.problem(prob.objective, prob.constraints, prob.num_vars))
        with recorded("_simplex") as runs:
            _same(solve(prob), cold)
        prefix = prob.block.phase1
        if prefix is None or not prefix.pivots:
            continue
        # The first run after the block's recording is the guide's or the
        # float run itself; a column after the block's in its final basis
        # entered after the block's phase 1 ended.
        (costs, *_), _, (_, basis, _) = next(run for run in runs if "record" not in run[1])
        nb = len(prefix.w_row) - prob.num_vars - 1
        own_entered += any(nb <= j < len(costs) for j in basis)
    assert own_entered >= 30


def test_replayed_pivots_count_toward_the_budget(monkeypatch):
    # With the budget at the prefix's length, a cold run that needs one
    # more pivot stalls, and so must the replayed one.
    arith = simplex.Arith(1e-9)
    stalled = 0
    for seed in range(150):
        prob = _random_block_problem(seed, arith)
        prefix = prob.block.phase1
        if prefix is None or not prefix.pivots:
            continue
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", len(prefix.pivots))
        cold = lp.solve_float(lp.problem(prob.objective, prob.constraints, prob.num_vars))
        _same(lp.solve_float(prob), cold)
        stalled += cold.status == lp.LPStatus.STALLED
        monkeypatch.undo()
    assert stalled >= 5


def test_a_problem_with_a_new_denominator_takes_no_prefix():
    block = lp.LPBlock((((1, 2), lp.GE, 0), ((2, -1), lp.LE, 3)), 2, simplex.Arith())
    prob = lp.problem((0, 0), [((F(1, 3), 1), lp.EQ, 1)], 2, block)
    with recorded("solve_standard_min") as runs:
        out = lp.solve_exact(prob)
    assert [kwargs["prefix"] for _, kwargs, _ in runs] == [None]
    _same(out, lp.solve_exact(lp.problem(prob.objective, prob.constraints, 2)))


# A float block of three columns whose Dantzig phase 1 takes two pivots
# (columns 1, then 2); with the own column 3 beside it, a cold run enters
# column 3 at its second pivot, and its row prices differ from the
# replayed block's.
_DANTZIG_ROWS = [[2, 3, -1, 0], [-2, 1, 1, 3]]
_DANTZIG_COSTS = [-1, -2, 1, -2]


def test_a_dantzig_run_that_would_enter_an_own_column_runs_cold():
    arith = simplex.Arith(1e-9)
    prefix = simplex.record_phase1(_DANTZIG_COSTS[:3], [r[:3] for r in _DANTZIG_ROWS], arith)
    assert [pivot[1] for pivot in prefix.pivots] == [1, 2]
    assert simplex._replay(prefix, _DANTZIG_COSTS, _DANTZIG_ROWS, arith) is None
    rhs = [0, 0]
    out = simplex.solve_standard_min(_DANTZIG_COSTS, _DANTZIG_ROWS, rhs, arith, prefix)
    cold = simplex.solve_standard_min(_DANTZIG_COSTS, _DANTZIG_ROWS, rhs, arith)
    _same(out, cold)
    assert cold.duals == pytest.approx((-7 / 6, -2 / 3))


def test_a_stalled_block_phase_1_records_no_prefix():
    # Every guide stalls on the rounded 11-gon, the block's alone too, and
    # exact Bland decides each pair.
    theory = theory_from_json(ROUNDED_11GON)
    states = theory.generators[:2]
    prob = discrimination._feasibility_problem(theory, states)
    assert prob.block.phase1 is None
    _same(lp.solve_exact(prob), lp.solve_exact(reference_feasibility_problem(theory, states)))


def test_a_block_phase_1_past_the_budget_records_no_prefix(monkeypatch):
    theory = parse_family_spec("ngon:n=7").build()
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    states = theory.generators[:3:2]
    prob = discrimination._feasibility_problem(theory, states)
    out = _solve(theory, prob)
    assert prob.block.phase1 is None
    _same(out, _solve(theory, reference_feasibility_problem(theory, states)))


def test_a_prefix_longer_than_the_budget_is_not_replayed(monkeypatch):
    theory = parse_family_spec("ngon:n=7").build()
    states = theory.generators[:3:2]
    prob = discrimination._feasibility_problem(theory, states)
    prefix = prob.block.phase1
    assert len(prefix.pivots) > 1
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    out = _solve(theory, prob)
    assert out.status == lp.LPStatus.STALLED
    _same(out, _solve(theory, reference_feasibility_problem(theory, states)))


def test_one_four_cube_sweep_records_one_guide_prefix():
    with recorded("record_phase1") as recordings:
        assert capacity.verify_hypercube_memory(4).verified
    assert len(recordings) == 1 and recordings[0][2] is not None


def test_a_block_pickles_with_its_prefix():
    theory = parse_family_spec("hypercube:m=3").build()
    states = theory.generators[:2]
    prob = discrimination._feasibility_problem(theory, states)
    out = lp.solve_exact(prob)
    shipped = pickle.loads(pickle.dumps(prob))
    assert shipped.block.phase1 == prob.block.phase1
    with recorded("record_phase1") as recordings:
        _same(lp.solve_exact(shipped), out)
    assert recordings == []


def _replayed_columns(monkeypatch):
    """Collects the key of every own column that simplex._replay_column
    pivots, that is, of every column not yet stored on its prefix."""
    keys = []
    replay_column = simplex._replay_column

    def counted(pivots, key, *args):
        keys.append(key)
        return replay_column(pivots, key, *args)

    monkeypatch.setattr(simplex, "_replay_column", counted)
    return keys


@pytest.mark.parametrize("spec, pairs", [("hypercube:m=4", itertools.combinations),
                                         ("ngon:n=9", itertools.permutations)])
def test_a_second_pass_over_one_block_reads_stored_columns(spec, pairs, monkeypatch):
    # The float 9-gon in both orders, as its decisions re-solve each pair
    # reversed. Both passes must give the cold answers; the second pivots
    # no column, and a block stores at most 2 N v columns.
    theory = parse_family_spec(spec).build()
    subsets = list(pairs(range(theory.num_generators), 2))
    keys = _replayed_columns(monkeypatch)
    _assert_replays_like_a_cold_run(theory, subsets)
    prefix = discrimination._generator_block(theory, 2).phase1
    stored = dict(prefix.columns)
    assert len(keys) == len(set(keys)) == len(stored) <= 2 * 2 * theory.num_generators
    keys.clear()
    _assert_replays_like_a_cold_run(theory, subsets)
    assert keys == [] and prefix.columns == stored


def test_a_stored_refusing_column_still_sends_the_run_cold(monkeypatch):
    # A zero own column never prices below the block's entering column;
    # _DANTZIG_ROWS's own column 3 does. Once stored, it must still refuse.
    arith = simplex.Arith(1e-9)
    prefix = simplex.record_phase1(_DANTZIG_COSTS[:3], [r[:3] for r in _DANTZIG_ROWS], arith)
    rhs = [0, 0]
    quiet = ([*_DANTZIG_COSTS[:3], 0], [[*r[:3], 0] for r in _DANTZIG_ROWS])
    both = ([*quiet[0], _DANTZIG_COSTS[3]], [[*q, r[3]] for q, r in zip(quiet[1], _DANTZIG_ROWS)])
    assert simplex._replay(prefix, *quiet, arith) is not None
    _same(simplex.solve_standard_min(*quiet, rhs, arith, prefix),
          simplex.solve_standard_min(*quiet, rhs, arith))
    assert simplex._replay(prefix, *both, arith) is None
    assert sorted(refuses for _, refuses in prefix.columns.values()) == [False, True]
    keys = _replayed_columns(monkeypatch)
    for costs, rows in (both, (_DANTZIG_COSTS, _DANTZIG_ROWS)):
        assert simplex._replay(prefix, costs, rows, arith) is None
        _same(simplex.solve_standard_min(costs, rows, rhs, arith, prefix),
              simplex.solve_standard_min(costs, rows, rhs, arith))
    assert keys == [] and len(prefix.columns) == 2


@pytest.mark.parametrize("spec, solve", [("hypercube:m=3", lp.solve_float),
                                         ("ngon:n=7", lp.solve_exact)],
                         ids=["exact-in-floats", "float-exactly"])
def test_a_solve_outside_the_blocks_arithmetic_runs_cold(spec, solve):
    # The exact 3-cube's LPs solved in floats (its success-probability LPs
    # too, which a float block's solve would walk runs for) and the float
    # 7-gon's feasibility LPs exactly: each answer is the blockless
    # solve's, and the block, built for its theory's arithmetic, records
    # no phase 1 and no run.
    theory = parse_family_spec(spec).build()
    block = discrimination._generator_block(theory, 2)
    with recorded("record_phase1") as recordings:
        for pair in itertools.permutations(theory.generators[:4], 2):
            probs = [discrimination._feasibility_problem(theory, pair)]
            if theory.numeric_mode == EXACT:
                inst = discrimination.instance(theory, pair, validate=False)
                probs.append(discrimination.success_probability_problem(inst)[0])
            for prob in probs:
                assert prob.block is block
                _same(solve(prob), solve(lp.problem(prob.objective, prob.constraints,
                                                    prob.num_vars)))
    assert recordings == []
    assert block.runs is None or block.runs.steps == []
