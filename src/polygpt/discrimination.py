"""Optimal and perfect state discrimination by linear programming.

The success-probability program optimizes over measurements (e_1..e_N)
with e_N eliminated through the normalization sum; cone membership of
every effect is imposed on the theory's generator rays. Perfect
distinguishability adds the unit-response equalities and becomes a pure
feasibility question whose no-answers carry Farkas certificates.

In float mode the success-probability LP is solved first: an exact upper
bound from its dual certifies most refusals with that one LP, and its
optimum serves as the forward witness of a clear acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from .linalg import dot, integer_rows
from .simplex import IndeterminateError
from .theory import EXACT, Measurement, Theory, is_state, responds

# Float-mode bands: answers whose delta-conditions land inside the gray
# zone are re-solved from a perturbed start and, failing that, refused.
CLEAR_RESIDUAL = 1e-7
CLEAR_GAP = 1e-6


@dataclass(frozen=True)
class DiscriminationInstance:
    theory: Theory
    states: tuple
    priors: tuple

    def __post_init__(self):
        if not self.states or len(self.states) != len(self.priors):
            raise ValueError("need equally many states and priors, at least one")
        arith = self.theory.arith()
        total = sum(self.priors)
        if any(p < 0 for p in self.priors) or not arith.is_zero(total - 1):
            raise ValueError("priors must be nonnegative and sum to 1")
        for s in self.states:
            if len(s) != self.theory.dim:
                raise ValueError("state dimension mismatch")


def instance(theory: Theory, states: Sequence, priors: Optional[Sequence] = None,
             validate: bool = True) -> DiscriminationInstance:
    states = tuple(tuple(s) for s in states)
    n = len(states)
    if priors is None:
        priors = (Fraction(1, n),) * n if theory.numeric_mode == EXACT else (1.0 / n,) * n
    inst = DiscriminationInstance(theory, states, tuple(priors))
    if validate:
        _require_states(theory, states)
    return inst


def _require_states(theory: Theory, states) -> None:
    for s in states:
        if not is_state(theory, s):
            raise ValueError(f"not a state of '{theory.name}': {s}")


def instance_from_indices(theory: Theory, indices: Sequence[int],
                          priors: Optional[Sequence] = None) -> DiscriminationInstance:
    states = [theory.generators[i] for i in indices]
    return instance(theory, states, priors, validate=False)


@dataclass
class DiscriminationResult:
    p_success: object
    measurement: Measurement
    perfect: bool
    multipliers: Optional[tuple] = None  # float mode: the LP's row multipliers (lp.LPOutcome)


@dataclass
class DistinguishabilityAnswer:
    distinguishable: bool
    witness: Optional[Measurement] = None
    certificate: Optional[tuple] = None  # Farkas multipliers for the feasibility LP
    problem: Optional[lp.LPProblem] = None
    success: Optional[DiscriminationResult] = None  # float mode: the uniform-prior optimum


def _cone_rows(gens, n_states: int) -> tuple:
    """Cone-membership rows over the stacked variables e_1..e_{N-1}:
    e_i . g >= 0 for each i < N and generator g, then sum_i e_i . g <= 1,
    which keeps e_N = u - sum(e_i) in the dual cone, as u . g = 1."""
    d = len(gens[0])
    zeros = (0,) * (d * (n_states - 1))
    rows = [(zeros[:i * d] + tuple(g) + zeros[(i + 1) * d:], lp.GE, 0)
            for i in range(n_states - 1) for g in gens]
    rows += [(tuple(g) * (n_states - 1), lp.LE, 1) for g in gens]
    return tuple(rows)


def _generator_block(theory: Theory, n_states: int) -> lp.LPBlock:
    """The cone-membership rows that lead every discrimination LP of N
    states on the theory, in its arithmetic, built once per N and kept in
    theory.lp_blocks."""
    blocks = theory.lp_blocks
    if n_states not in blocks:
        blocks[n_states] = lp.LPBlock(_cone_rows(theory.generators, n_states),
                                      theory.dim * (n_states - 1), theory.arith())
    return blocks[n_states]


def _solve(theory: Theory, prob: lp.LPProblem) -> lp.LPOutcome:
    if theory.numeric_mode == EXACT:
        return lp.solve_exact(prob)
    return lp.solve_float(prob, tol=theory.arith().tol)


def _assemble_measurement(theory: Theory, solution, n_states: int) -> Measurement:
    d = theory.dim
    effects = [tuple(solution[i * d:(i + 1) * d]) for i in range(n_states - 1)]
    last = tuple(u - sum(e[j] for e in effects) for j, u in enumerate(theory.unit))
    return Measurement(tuple(effects) + (last,))


def success_probability_problem(inst: DiscriminationInstance):
    """The LP behind the optimum: (problem over e_1..e_{N-1}, constant
    offset), with p_success = offset + optimal value."""
    theory, states, priors = inst.theory, inst.states, inst.priors
    n = len(states)
    block = _generator_block(theory, n)
    d = theory.dim
    objective = []
    for i in range(n - 1):
        objective.extend(priors[i] * states[i][j] - priors[n - 1] * states[n - 1][j]
                         for j in range(d))
    return lp.problem(objective, (), block.num_vars, block), priors[n - 1]


def max_success_probability(inst: DiscriminationInstance) -> DiscriminationResult:
    theory, states, priors = inst.theory, inst.states, inst.priors
    n = len(states)
    if n == 1:
        return DiscriminationResult(priors[0] * dot(theory.unit, states[0]),
                                    Measurement((theory.unit,)), True)
    prob, offset = success_probability_problem(inst)
    out = _solve(theory, prob)
    if out.status != lp.LPStatus.OPTIMAL:
        # (u, 0, ..., 0) is always feasible and the objective is capped by 1.
        if theory.numeric_mode == EXACT:
            raise RuntimeError(f"discrimination LP reported {out.status} (internal bug)")
        raise IndeterminateError("the success-probability LP did not converge at this tolerance")
    p = out.value + offset
    meas = _assemble_measurement(theory, out.solution, n)
    if theory.numeric_mode == EXACT:
        perfect = p == 1
    else:
        p = min(p, 1.0)  # round-off can lift a float optimum past 1
        perfect = p >= 1 - CLEAR_GAP
    return DiscriminationResult(p, meas, perfect, out.multipliers)


def _feasibility_problem(theory: Theory, states) -> lp.LPProblem:
    n = len(states)
    block = _generator_block(theory, n)
    nvars, d = block.num_vars, theory.dim
    zeros = (0,) * nvars
    # e_i . omega_i = 1, then (u - sum e_i) . omega_N = 1  <=>  sum_i e_i . omega_N = 0
    rows = [(zeros[:i * d] + tuple(states[i]) + zeros[(i + 1) * d:], lp.EQ, 1)
            for i in range(n - 1)]
    rows.append((tuple(states[n - 1]) * (n - 1), lp.EQ, 0))
    return lp.problem(zeros, rows, nvars, block)


def _check_distinct(theory: Theory, states) -> None:
    arith = theory.arith()
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if all(arith.is_zero(a - b) for a, b in zip(states[i], states[j])):
                raise ValueError(f"duplicate states at positions {i} and {j}")


def is_perfectly_distinguishable(theory: Theory, states: Sequence,
                                 validate: bool = True) -> DistinguishabilityAnswer:
    states = tuple(tuple(s) for s in states)
    _check_distinct(theory, states)
    if validate:
        _require_states(theory, states)
    if len(states) == 1:
        return DistinguishabilityAnswer(True, witness=Measurement((theory.unit,)))
    prob = _feasibility_problem(theory, states)
    if theory.numeric_mode == EXACT:
        return _verdict(theory, states, prob)
    return _float_distinguishable(theory, states, prob)


def _verdict(theory: Theory, states, prob, success: Optional[DiscriminationResult] = None
             ) -> Optional[DistinguishabilityAnswer]:
    """One solve of the feasibility LP. An exact answer is final; a float
    answer is None when it sits in the gray zone. success, when given, is
    the uniform-prior optimum over these states in this order."""
    exact = theory.numeric_mode == EXACT
    out = _solve(theory, prob)
    if out.status == lp.LPStatus.OPTIMAL:
        meas = _assemble_measurement(theory, out.solution, len(states))
        if exact or _clear(theory, meas, states):
            return DistinguishabilityAnswer(True, witness=meas, problem=prob)
    elif out.status == lp.LPStatus.INFEASIBLE:
        # A float refusal also needs a clear optimality gap on the success probability.
        if exact or (success or max_success_probability(
                instance(theory, states, validate=False))).p_success <= 1 - CLEAR_GAP:
            return DistinguishabilityAnswer(False, certificate=out.infeasibility_certificate,
                                            problem=prob)
    elif exact:
        raise RuntimeError(f"feasibility LP reported {out.status} (internal bug)")
    return None


def _float_distinguishable(theory: Theory, states, prob) -> DistinguishabilityAnswer:
    success = max_success_probability(instance(theory, states, validate=False))
    first = _success_verdict(theory, states, prob, success)
    success.multipliers = None  # spent: answers that callers keep need not hold the dual
    if first is None:
        first = _verdict(theory, states, prob, success)
    elif not first.distinguishable:
        return first  # certified by the exact bound: one LP
    # Re-solve from a perturbed start (reversed state order), with its own
    # success-probability solve, and require agreement before trusting a
    # float answer near the boundary.
    rev = tuple(reversed(states))
    second = _verdict(theory, rev, _feasibility_problem(theory, rev))
    if second is not None and second.witness is not None:  # certificates keep their problem
        effects = tuple(reversed(second.witness.effects))  # back to the caller's order
        second = DistinguishabilityAnswer(True, witness=Measurement(effects), problem=prob)
    clear = [answer for answer in (first, second) if answer is not None]
    if not clear:
        raise IndeterminateError("distinguishability is numerically ambiguous at this tolerance")
    if clear[0].distinguishable != clear[-1].distinguishable:
        raise IndeterminateError("float backends disagree on distinguishability")
    clear[0].success = success
    return clear[0]


def _success_verdict(theory: Theory, states, prob, success) -> Optional[DistinguishabilityAnswer]:
    """The forward verdict of the uniform-prior success-probability optimum
    alone: a refusal whose exact bound is at most 1 - CLEAR_GAP, a clear
    acceptance, or None."""
    if success.perfect:
        if _clear(theory, success.measurement, states):
            return DistinguishabilityAnswer(True, witness=success.measurement, problem=prob,
                                            success=success)
        return None
    # Sign-correct the dual: >= rows (e_i . v >= 0) come first, then the <= rows.
    split = (len(states) - 1) * theory.num_generators
    y = [min(v, 0.0) if k < split else max(v, 0.0) for k, v in enumerate(success.multipliers)]
    bound = _success_bound(theory, states, y)
    if bound is None or bound > 1 - Fraction(CLEAR_GAP):
        return None
    # The same y refutes the feasibility LP: its e_i . omega_i = 1 rows take
    # -1/N and its last row +1/N, so the rows combine to -(residual) and the
    # right-hand sides to (bound without residual) - 1.
    n = len(states)
    cert = (*y, *[-1.0 / n] * (n - 1), 1.0 / n)
    if not lp.verify_farkas(prob, cert, theory.arith().tol):  # evidence must re-check as given
        return None
    return DistinguishabilityAnswer(False, certificate=cert, problem=prob, success=success)


def _success_bound(theory: Theory, states, y) -> Optional[Fraction]:
    """Exact upper bound on the uniform-prior success probability over the
    stored coordinates, from sign-correct multipliers y of
    success_probability_problem (Neumaier and Shcherbina, "Safe bounds in
    linear and mixed-integer linear programming", Math. Program. 99, 2004).

    For feasible e, c . e = y.(A e) + r . e <= y.b + r . e with r = c - y A
    exact. Block i of r is sum_k lambda_k g_k over theory.basis_inverse's
    generators, and 0 <= e_i . g <= 1 on every generator, so r . e is at
    most the sum of the positive lambda_k. None when there is no basis."""
    if theory.basis_inverse is None:
        return None
    _, inverse, q = theory.basis_inverse
    d = theory.generator_rows[1]
    n, g = len(states), theory.num_generators
    # ys = e * y and omegas = e * states as integers; the columns of
    # theory.generator_columns are those of d * generators.
    (ys, *omegas), e = integer_rows((y, *states))
    shared = ys[(n - 1) * g:]  # the <= rows, whose right-hand side is 1
    positive = 0
    for i in range(n - 1):
        coeffs = [a + b for a, b in zip(ys[i * g:(i + 1) * g], shared)]
        # n * e * d * r_i = d * (omega_i - omega_N) - n * (e * d * (y A)_i)
        r = [d * (a - b) - n * sum([coeffs[k] * c for k, c in column])
             for a, b, column in zip(omegas[i], omegas[-1], theory.generator_columns)]
        positive += sum(max(dot(row, r), 0) for row in inverse)
    return Fraction(1, n) + Fraction(sum(shared), e) + Fraction(positive, q * n * e * d)


def verify_witness(theory: Theory, states: Sequence, meas: Measurement) -> bool:
    """Substitution check of a witness: the measurement must be valid and
    respond with certainty to each state in order (theory.responds)."""
    return len(meas.effects) == len(states) and responds(
        theory, *theory.scaled_rows(meas.effects), *theory.scaled_rows(states))


def _clear(theory: Theory, meas: Measurement, states) -> bool:
    """Float mode: every delta-condition of the measurement holds within CLEAR_RESIDUAL."""
    return max(abs(dot(e, s) - (i == j)) for i, e in enumerate(meas.effects)
               for j, s in enumerate(states)) <= CLEAR_RESIDUAL


def pairwise_distinguishable(theory: Theory, i: int, j: int) -> bool:
    if i == j:
        raise ValueError("pairwise check needs two distinct state indices")
    states = (theory.generators[i], theory.generators[j])
    return is_perfectly_distinguishable(theory, states, validate=False).distinguishable
