"""Float refusals decided by one success-probability LP and an exact bound.

The bound is compared with an independent plain-Fraction computation, the
hypergraphs with the two-verdict path kept in conftest, and forged duals
must fall back to that path.
"""

import itertools
import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (SYMMETRIC_FAMILIES, float_ngon, reference_float_distinguishable,
                      reference_float_path, reference_rank)
from polygpt import cli, discrimination, lp, simplex
from polygpt.discrimination import CLEAR_GAP, is_perfectly_distinguishable
from polygpt.families import build_family, classical_simplex, hypercube_theory, ngon_theory
from polygpt.hypergraph import build_hypergraph, hypergraph_to_json
from polygpt.linalg import dot, solve_columns
from polygpt.theory import FLOAT, make_theory, theory_to_json


def _float(theory):
    return make_theory(theory.name, theory.unit, theory.generators, numeric_mode=FLOAT)


def exact_success_bound(theory, states, y):
    """1/N + y.b + (positive basis coordinates of each block of r = c - y A),
    in plain Fractions on the rows of success_probability_problem, with c
    built from exact priors 1/N and the first spanning generators as basis."""
    n, d = len(states), theory.dim
    prob, _ = discrimination.success_probability_problem(
        discrimination.instance(theory, states, validate=False))
    omega = [[F(v) for v in s] for s in states]
    r = [(omega[i][j] - omega[-1][j]) / n for i in range(n - 1) for j in range(d)]
    total = F(1, n)
    for yk, (row, _, rhs) in zip(map(F, y), prob.constraints):
        if yk:
            r = [a - yk * F(b) for a, b in zip(r, row)]
            total += yk * rhs
    gens = [[F(v) for v in g] for g in theory.generators]
    columns = next(cols for cols in (list(zip(*b)) for b in itertools.combinations(gens, d))
                   if solve_columns(cols, [[0] * d]) is not None)
    for x in solve_columns(columns, [r[i * d:(i + 1) * d] for i in range(n - 1)]):
        total += sum(v for v in x if v > 0)
    return total


@pytest.fixture
def certified(monkeypatch):
    """Records (theory, states, p_success, perfect, answer) for every success-LP verdict."""
    seen = []
    original = discrimination._success_verdict

    def recording(theory, states, prob, success):
        answer = original(theory, states, prob, success)
        seen.append((theory, states, success.p_success, success.perfect, answer))
        return answer

    monkeypatch.setattr(discrimination, "_success_verdict", recording)
    return seen


def _check_certified_refusal(theory, states, p_float, answer):
    n = len(states)
    rows = n * theory.num_generators  # rows of the success-probability LP
    y, tail = answer.certificate[:rows], answer.certificate[rows:]
    assert tail == (-1.0 / n,) * (n - 1) + (1.0 / n,)
    split = (n - 1) * theory.num_generators
    assert all(v <= 0 for v in y[:split]) and all(v >= 0 for v in y[split:])
    bound = exact_success_bound(theory, states, y)
    assert bound == discrimination._success_bound(theory, states, y)
    assert bound <= 1 - F(CLEAR_GAP)
    assert abs(bound - F(p_float)) <= F(1, 10 ** 12)
    assert answer.problem == discrimination._feasibility_problem(theory, states)
    assert lp.verify_farkas(answer.problem, answer.certificate, tol=theory.arith().tol)


# The hexagon is exact in ngon_theory; these cases keep its float form.
CASES = [(f"ngon:n={n}", float_ngon(n) if n == 6 else ngon_theory(n), 2) for n in range(5, 41)] + [
    ("float hypercube:m=5", _float(hypercube_theory(5)), 2),
    ("ngon:n=6 N=3", float_ngon(6), 3),
    ("float simplex:d=3 N=2", _float(classical_simplex(3)), 2),
    ("float simplex:d=3 N=3", _float(classical_simplex(3)), 3),
]


@pytest.mark.parametrize("theory,n_arity", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_hypergraph_matches_the_two_verdict_path(certified, theory, n_arity):
    h = build_hypergraph(theory, n_arity)
    refusals = [s for s in certified if not s[3]]
    # Every refusal is certified with one LP, none falls back.
    assert all(answer is not None for *_, answer in refusals)
    for theory_, states, p_float, _, answer in refusals:
        _check_certified_refusal(theory_, states, p_float, answer)
    with reference_float_path():
        reference = build_hypergraph(theory, n_arity)
    assert json.dumps(hypergraph_to_json(h)) == json.dumps(hypergraph_to_json(reference))


def _pair_answers(theory):
    return [is_perfectly_distinguishable(theory, (theory.generators[i], theory.generators[j]),
                                         validate=False)
            for i, j in itertools.combinations(range(theory.num_generators), 2)]


PAIR_CASES = [c for c in CASES if c[2] == 2 and "simplex" not in c[0]]  # n-gons, float 5-cube


@pytest.mark.parametrize("theory", [c[1] for c in PAIR_CASES], ids=[c[0] for c in PAIR_CASES])
def test_dantzig_pricing_keeps_every_pair_verdict(monkeypatch, theory):
    # Float LPs price by Dantzig's rule first; a Bland-only run may stop on
    # another optimal basis, but not on another verdict or optimum.
    priced = _pair_answers(theory)
    monkeypatch.setattr(simplex.Arith, "_dantzig", False)
    bland = _pair_answers(theory)
    assert [a.distinguishable for a in priced] == [b.distinguishable for b in bland]
    for a, b in zip(priced, bland):
        assert abs(a.success.p_success - b.success.p_success) <= theory.tol


@pytest.mark.parametrize("forge", ["double", "flip", "scale"])
def test_forged_dual_is_not_certified(monkeypatch, forge):
    # The largest multiplier on a <= row, doubled or with its sign flipped
    # (then zeroed as a wrong sign), no longer bounds the pentagon's
    # adjacent pair below 1; every multiplier scaled by 1.001 still bounds
    # it below 1 - CLEAR_GAP, but no longer combines the rows to zero, so
    # it is no Farkas certificate. Each decision falls back to two verdicts.
    theory = ngon_theory(5)
    states = tuple(theory.generators[:2])
    split = theory.num_generators
    original = discrimination.max_success_probability

    def forged(inst):
        result = original(inst)
        y = list(result.multipliers)
        k = max(range(split, len(y)), key=lambda i: abs(y[i]))
        y[k] = 2 * y[k] if forge == "double" else -y[k]
        scaled = [1.001 * v for v in result.multipliers]
        return replace(result, multipliers=tuple(scaled if forge == "scale" else y))

    bounds, verdicts = [], []
    bound, verdict = discrimination._success_bound, discrimination._verdict
    monkeypatch.setattr(discrimination, "max_success_probability", forged)
    monkeypatch.setattr(discrimination, "_success_bound",
                        lambda *args: bounds.append(bound(*args)) or bounds[-1])
    monkeypatch.setattr(discrimination, "_verdict",
                        lambda *args: verdicts.append(args[1]) or verdict(*args))
    answer = is_perfectly_distinguishable(theory, states, validate=False)
    assert len(bounds) == 1 and (bounds[0] > 1 - F(CLEAR_GAP)) == (forge != "scale")
    assert verdicts == [states, states[::-1]]
    prob = discrimination._feasibility_problem(theory, states)
    expected = reference_float_distinguishable(theory, states, prob)
    assert not answer.distinguishable
    assert (answer.certificate, answer.problem) == (expected.certificate, expected.problem)


def test_no_clear_verdict_is_numerically_ambiguous(monkeypatch):
    # With no delta-condition clear, neither the optimum nor either
    # feasibility verdict accepts the pentagon's distant pair, and none
    # refuses it: the answer is refused as ambiguous, not guessed.
    theory = ngon_theory(5)
    states = (theory.generators[0], theory.generators[2])
    monkeypatch.setattr(discrimination, "_clear", lambda *args: False)
    with pytest.raises(discrimination.IndeterminateError, match="numerically ambiguous"):
        is_perfectly_distinguishable(theory, states, validate=False)


def test_wrong_sign_multipliers_are_zeroed(monkeypatch):
    # Zero multipliers given the wrong sign (> 0 on a >= row, < 0 on a <= row)
    # are set back to zero: the refusal is certified with the same vector.
    theory = ngon_theory(5)
    states = tuple(theory.generators[:2])
    plain = is_perfectly_distinguishable(theory, states, validate=False)
    original = discrimination.max_success_probability

    def wrong_signs(inst):
        result = original(inst)
        y = list(result.multipliers)
        zeros = [k for k, v in enumerate(y) if v == 0]
        y[zeros[0]], y[zeros[-1]] = 1e-3, -1e-3  # a >= row and a <= row
        return replace(result, multipliers=tuple(y))

    monkeypatch.setattr(discrimination, "max_success_probability", wrong_signs)
    answer = is_perfectly_distinguishable(theory, states, validate=False)
    assert not answer.distinguishable and answer.certificate == plain.certificate


def test_acceptance_keeps_the_reversed_verdict(monkeypatch):
    # A clear optimum is the forward witness; the reversed feasibility
    # verdict still runs, and a disagreeing one makes the answer ambiguous.
    theory = ngon_theory(5)
    states = (theory.generators[0], theory.generators[2])
    verdicts, verdict = [], discrimination._verdict
    monkeypatch.setattr(discrimination, "_verdict",
                        lambda *args: verdicts.append(args[1]) or verdict(*args))
    answer = is_perfectly_distinguishable(theory, states, validate=False)
    assert answer.distinguishable and verdicts == [states[::-1]]
    assert answer.witness is answer.success.measurement
    assert discrimination.verify_witness(theory, states, answer.witness)
    refusal = discrimination.DistinguishabilityAnswer(False, certificate=(0.0,))
    monkeypatch.setattr(discrimination, "_verdict", lambda *args: refusal)
    with pytest.raises(discrimination.IndeterminateError, match="disagree"):
        is_perfectly_distinguishable(theory, states, validate=False)


def test_no_spanning_basis_falls_back(monkeypatch):
    # Three collinear states span only a plane: there is no basis to write
    # the residual in, so the refusal comes from the two-verdict path.
    line = make_theory("line", (1, 0, 0), [(1, 0, 0), (1, 1, 0), (1, 2, 0)], numeric_mode=FLOAT)
    assert line.basis_inverse is None
    states = line.generators[:2]
    calls, original = [], discrimination.max_success_probability
    monkeypatch.setattr(discrimination, "max_success_probability",
                        lambda inst: calls.append(inst.states) or original(inst))
    answer = is_perfectly_distinguishable(line, states, validate=False)
    # The forward verdict reuses the first optimum; the reversed one solves its own.
    assert calls == [tuple(states), tuple(reversed(states))]
    prob = discrimination._feasibility_problem(line, states)
    expected = reference_float_distinguishable(line, states, prob)
    assert not answer.distinguishable
    assert (answer.certificate, answer.problem) == (expected.certificate, expected.problem)


def test_basis_inverse_gives_exact_coordinates():
    for theory in ([build_family(spec) for spec in SYMMETRIC_FAMILIES]
                   + [ngon_theory(n) for n in range(5, 13)] + [_float(hypercube_theory(3))]):
        basis, rows, q = theory.basis_inverse
        # The basis is the first generators that raise the reference rank.
        expected = []
        for k, g in enumerate(theory.generators):
            if reference_rank([theory.generators[j] for j in expected] + [g]) > len(expected):
                expected.append(k)
        assert list(basis) == expected, theory.name
        columns = list(zip(*(theory.generators[k] for k in basis)))
        gens, d = theory.generator_rows
        for g in gens:  # g = d * generator: its coordinates rebuild it exactly
            coords = [F(dot(row, g), q * d) for row in rows]
            rebuilt = [sum(c * F(v) for c, v in zip(coords, column)) for column in columns]
            assert rebuilt == [F(v, d) for v in g]


def test_cached_rows_stay_out_of_equality_hash_and_json():
    pent = ngon_theory(5)
    fresh = ngon_theory(5)
    assert pent.basis_inverse is not None and pent.generator_rows
    assert pent == fresh and hash(pent) == hash(fresh)
    assert theory_to_json(pent) == theory_to_json(fresh)
    hexagon = replace(pent, generators=ngon_theory(6).generators)
    assert hexagon.generator_rows == ngon_theory(6).generator_rows


def test_distinguish_solves_the_success_probability_once(monkeypatch, capsys):
    calls = []
    original = discrimination.max_success_probability
    monkeypatch.setattr(discrimination, "max_success_probability",
                        lambda inst: calls.append(inst) or original(inst))
    printed = {}
    for spec, states in (("ngon:n=5", "0,1"), ("ngon:n=5", "0,2"), ("hypercube:m=2", "0,1")):
        calls.clear()
        assert cli.run(["distinguish", "--family", spec, "--states", states]) == 0
        assert len(calls) == 1
        printed[spec, states] = json.loads(capsys.readouterr().out)["p_success"]
        assert cli.run(["psuccess", "--family", spec, "--states", states]) == 0
        assert json.loads(capsys.readouterr().out)["p_success"] == printed[spec, states]
    assert printed["ngon:n=5", "0,1"] == 0.8090169943749475
    assert printed["ngon:n=5", "0,2"] == 1.0
