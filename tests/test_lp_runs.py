"""Walked float runs (simplex.Runs, LPBlock.runs) against cold runs: every
problem of a block's rows alone must get, bit for bit, the answer of the
same problem on a fresh block, which has no recorded run to walk."""

import contextlib
import itertools
import json
import pickle
import random
import sys

import pytest

from conftest import SYMMETRIC_FAMILIES
from polygpt import cli, discrimination, hypergraph, lp, simplex
from polygpt.families import parse_family_spec
from polygpt.theory import FLOAT, make_theory


def _float_copy(theory):
    return make_theory(theory.name, theory.unit, theory.generators, numeric_mode=FLOAT)


@contextlib.contextmanager
def walks():
    """Collects the result of every Runs.walk: None where the run went cold."""
    results = []
    walk = simplex.Runs.walk

    def counted(self, *args):
        results.append(walk(self, *args))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex.Runs, "walk", counted)
        yield results


def _same(out, cold):
    # repr tells -0.0 from 0.0, so the answers must agree bit for bit.
    assert vars(out) == vars(cold)
    assert repr(vars(out)) == repr(vars(cold))


def _cold(prob):
    """prob solved on a fresh copy of its block, which has no runs yet."""
    fresh = lp.LPBlock(prob.block.constraints, prob.num_vars, prob.block.arith)
    return lp.problem(prob.objective, prob.own_constraints, prob.num_vars, fresh)


def _assert_walks_like_cold_runs(theory, subsets):
    """Each subset's success-probability LP on the theory's shared block
    against the same LP on a fresh block; returns the number of walks
    that reached an optimal end."""
    with walks() as walked:
        for subset in subsets:
            inst = discrimination.instance(
                theory, [theory.generators[i] for i in subset], validate=False)
            prob, _ = discrimination.success_probability_problem(inst)
            out = lp.solve_float(prob, tol=theory.tol)
            _same(out, lp.solve_float(_cold(prob), tol=theory.tol))
    return sum(result is not None for result in walked)


def _ngon_subsets(n, n_arity):
    # Ordered subsets, as each order has its own objective: all of them
    # up to 120, else a seeded sample of 120.
    subsets = list(itertools.permutations(range(n), n_arity))
    return random.Random(f"{n}-{n_arity}").sample(subsets, min(len(subsets), 120))


@pytest.mark.parametrize("n", [n for n in range(5, 41) if n not in (6,)])
def test_ngon_pairs_walk_like_cold_runs(n):
    theory = parse_family_spec(f"ngon:n={n}").build()
    assert theory.numeric_mode == FLOAT
    assert _assert_walks_like_cold_runs(theory, _ngon_subsets(n, 2)) >= 1


@pytest.mark.parametrize("n", [n for n in range(5, 13) if n not in (6,)])
def test_ngon_triples_walk_like_cold_runs(n):
    theory = parse_family_spec(f"ngon:n={n}").build()
    # Few triples share a run, so each is solved twice: the second solve
    # walks at least the run the first stored.
    subsets = _ngon_subsets(n, 3)
    assert _assert_walks_like_cold_runs(theory, subsets + subsets) >= len(subsets)


@pytest.mark.parametrize("spec", SYMMETRIC_FAMILIES)
def test_float_family_lps_walk_like_cold_runs(spec):
    theory = _float_copy(parse_family_spec(spec).build())
    for n_arity in (2, 3):
        subsets = list(itertools.permutations(range(theory.num_generators), n_arity))
        subsets = random.Random(f"{spec}-{n_arity}").sample(subsets, min(len(subsets), 60))
        # Each subset twice: the second solve walks at least the run the first stored.
        assert _assert_walks_like_cold_runs(theory, subsets + subsets) >= len(subsets)


def _leaving_rows(runs, sign):
    """The leaving rows whose children the root of sign's runs holds."""
    k = runs.roots[sign]
    return sorted(r for node, r in runs.children if node == k)


# Three columns (1, 1), (1, 0), (0, 1): phase 1 enters the first, and the
# ratio test picks row 0 at rhs (1, 2) and row 1 at rhs (2, 1).
_COSTS = [1.0, 1.0, 1.0]
_ROWS = [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]


def test_one_sign_pattern_branches_on_the_ratio_test():
    arith = simplex.Arith(1e-9)
    runs = simplex.Runs()
    with walks() as walked:
        for rhs in ([1.0, 2.0], [2.0, 1.0], [1.0, 3.0], [3.0, 1.0]):
            out = simplex.solve_standard_min(_COSTS, _ROWS, rhs, arith, runs=runs)
            _same(out, simplex.solve_standard_min(_COSTS, _ROWS, rhs, arith))
    assert list(runs.roots) == [(1, 1)]
    assert _leaving_rows(runs, (1, 1)) == [0, 1]
    # The first two went cold, the last two walked the run of their branch.
    assert [result is not None for result in walked] == [False, False, True, True]


def _random_block(rng):
    m, n = rng.randint(2, 3), rng.randint(3, 6)
    rows = [[float(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
    return [float(rng.randint(-1, 3)) for _ in range(n)], rows


def test_random_blocks_walk_like_cold_runs_at_random_right_hand_sides():
    arith = simplex.Arith(1e-9)
    reached = infeasible_at_a_root = flipped = 0
    for seed in range(120):
        rng = random.Random(seed)
        costs, rows = _random_block(rng)
        runs = simplex.Runs()
        for _ in range(40):
            rhs = [float(rng.randint(-3, 3)) for _ in rows]
            sign = tuple(-1 if b < 0 else 1 for b in rhs)
            known = sign in runs.roots
            with walks() as walked:
                out = simplex.solve_standard_min(costs, rows, rhs, arith, runs=runs)
            _same(out, simplex.solve_standard_min(costs, rows, rhs, arith))
            reached += walked != [None]
            flipped += walked != [None] and -1 in sign
            infeasible_at_a_root += known and out.status == simplex.INFEASIBLE
    assert reached >= 500 and flipped >= 200 and infeasible_at_a_root >= 100


def test_a_walk_counts_its_pivots_toward_the_budget(monkeypatch):
    theory = parse_family_spec("ngon:n=15").build()
    pairs = list(itertools.permutations(range(15), 2))[:40]
    _assert_walks_like_cold_runs(theory, pairs)
    # Every stored run is longer than one pivot in some phase, so at a
    # budget of one both the walk and the cold run stall.
    monkeypatch.setattr(simplex, "MAX_ITERATIONS", 1)
    with walks() as walked:
        _assert_walks_like_cold_runs(theory, pairs)
    assert walked.count(None) == len(walked)
    inst = discrimination.instance(theory, theory.generators[:2], validate=False)
    prob, _ = discrimination.success_probability_problem(inst)
    assert lp.solve_float(prob, tol=theory.tol).status == lp.LPStatus.STALLED


def test_only_float_problems_of_the_block_alone_at_a_nonzero_objective_walk():
    theory = parse_family_spec("ngon:n=9").build()
    states = theory.generators[:2]
    inst = discrimination.instance(theory, states, validate=False)
    prob, _ = discrimination.success_probability_problem(inst)
    lp.solve_float(prob, tol=theory.tol)
    with walks() as walked:
        lp.solve_float(prob, tol=theory.tol)
        lp.solve_float(discrimination._feasibility_problem(theory, states), tol=theory.tol)
        lp.solve_float(lp.problem((0,) * prob.num_vars, (), prob.num_vars, prob.block),
                       tol=theory.tol)
    assert len(walked) == 1 and walked[0] is not None
    assert lp.LPBlock(prob.block.constraints, prob.num_vars, simplex.Arith()).runs is None
    assert lp.LPBlock((), 2, theory.arith()).runs is None
    # A solve at another tolerance walks and records no run.
    stored = pickle.dumps(prob.block.runs)
    with walks() as walked:
        lp.solve_float(prob, tol=1e-8)
    assert walked == [] and pickle.dumps(prob.block.runs) == stored


def test_a_block_pickles_with_its_runs():
    theory = parse_family_spec("ngon:n=11").build()
    pairs = list(itertools.permutations(range(11), 2))
    _assert_walks_like_cold_runs(theory, pairs[:50])
    block = discrimination._generator_block(theory, 2)
    runs = block.runs
    shipped = pickle.loads(pickle.dumps(theory))
    copy = discrimination._generator_block(shipped, 2).runs
    assert vars(copy) == vars(runs) and copy.steps
    assert _assert_walks_like_cold_runs(shipped, pairs[:50]) == 50
    assert vars(copy) == vars(runs)


def test_a_run_longer_than_the_recursion_limit_pickles():
    # Nodes are list indices and children a flat dict, so a long run is
    # no deep object graph.
    length = 3 * sys.getrecursionlimit() + 1
    log = [(i % 2, i, (1.0 + i, 0.0, float(-i), 0.5)) if i % 2 == 0
           else (i % 2, i, (0.0, 2.0 + i, 0.0, -0.5)) for i in range(length)]
    runs = simplex.Runs()
    runs.insert((1, -1), log, (length - 2, length - 1), [0.25, -0.25])
    # A node per pivot outside the drive-out, and one per end.
    assert len(runs.steps) == length + 1
    copy = pickle.loads(pickle.dumps(runs))
    assert vars(copy) == vars(runs)
    # One chain: every node but the optimal end has exactly one child.
    assert sorted(copy.children.values()) == list(range(1, length + 1))
    assert copy.steps[length - 2] == (-1, (log[length - 2],))
    assert copy.steps[-1] == (-1, (0.25, -0.25))


def test_the_float_5_cube_shares_its_run_prefixes(monkeypatch, capsys):
    # The float 5-cube's N = 2 build stores its optimal runs in 628 nodes.
    built = []
    build = hypergraph.build_hypergraph

    def recorded(theory, *args, **kwargs):
        built.append(theory)
        return build(theory, *args, **kwargs)

    monkeypatch.setattr(hypergraph, "build_hypergraph", recorded)
    assert cli.run(["hypergraph", "--family", "hypercube:m=5", "--backend", "float",
                    "--N", "2", "--workers", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)["edges"]) == 496
    (theory,) = built
    runs = discrimination._generator_block(theory, 2).runs
    assert len(runs.steps) == 628
