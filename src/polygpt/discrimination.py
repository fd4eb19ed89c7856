"""Optimal and perfect state discrimination by linear programming.

The success-probability program optimizes over measurements (e_1..e_N)
with e_N eliminated through the normalization sum; cone membership of
every effect is imposed on the theory's generator rays. Perfect
distinguishability adds the unit-response equalities and becomes a pure
feasibility question whose no-answers carry Farkas certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from .linalg import dot
from .theory import EXACT, Measurement, Theory, is_measurement, is_state

# Float-mode bands: answers whose delta-conditions land inside the gray
# zone are re-solved from a perturbed start and, failing that, refused.
CLEAR_RESIDUAL = 1e-7
CLEAR_GAP = 1e-6


class IndeterminateError(RuntimeError):
    """A float-mode answer sat on the feasibility boundary after re-solving."""


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


@dataclass
class DistinguishabilityAnswer:
    distinguishable: bool
    witness: Optional[Measurement] = None
    certificate: Optional[tuple] = None  # Farkas multipliers for the feasibility LP
    problem: Optional[lp.LPProblem] = None


def _effect_rows(theory: Theory, n_states: int):
    """Cone-membership rows over the stacked variables e_1..e_{N-1}."""
    d = theory.dim
    nvars = d * (n_states - 1)
    rows = []
    for i in range(n_states - 1):
        for v in theory.generators:
            row = [0] * nvars
            row[i * d:(i + 1) * d] = list(v)
            rows.append((row, lp.GE, 0))
    for v in theory.generators:  # e_N = u - sum(e_i) stays in the dual cone
        row = list(v) * (n_states - 1)
        rows.append((row, lp.LE, 1))
    return nvars, rows


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
    nvars, rows = _effect_rows(theory, n)
    d = theory.dim
    objective = []
    for i in range(n - 1):
        objective.extend(priors[i] * states[i][j] - priors[n - 1] * states[n - 1][j]
                         for j in range(d))
    return lp.problem(objective, rows, nvars), priors[n - 1]


def max_success_probability(inst: DiscriminationInstance) -> DiscriminationResult:
    theory, states, priors = inst.theory, inst.states, inst.priors
    n = len(states)
    if n == 1:
        return DiscriminationResult(priors[0] * dot(theory.unit, states[0]),
                                    Measurement((theory.unit,)), True)
    prob, _ = success_probability_problem(inst)
    out = _solve(theory, prob)
    if out.status != lp.LPStatus.OPTIMAL:
        # (u, 0, ..., 0) is always feasible and the objective is capped by 1.
        raise RuntimeError(f"discrimination LP reported {out.status} (internal bug)")
    p = out.value + priors[n - 1]
    meas = _assemble_measurement(theory, out.solution, n)
    if theory.numeric_mode == EXACT:
        perfect = p == 1
    else:
        perfect = p >= 1 - CLEAR_GAP
    return DiscriminationResult(p, meas, perfect)


def _feasibility_problem(theory: Theory, states) -> lp.LPProblem:
    n = len(states)
    nvars, rows = _effect_rows(theory, n)
    d = theory.dim
    for i in range(n - 1):  # e_i . omega_i = 1
        row = [0] * nvars
        row[i * d:(i + 1) * d] = list(states[i])
        rows.append((row, lp.EQ, 1))
    # (u - sum e_i) . omega_N = 1  <=>  sum_i e_i . omega_N = 0
    rows.append((list(states[n - 1]) * (n - 1), lp.EQ, 0))
    return lp.problem([0] * nvars, rows, nvars)


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


def _verdict(theory: Theory, states, prob) -> Optional[DistinguishabilityAnswer]:
    """One solve of the feasibility LP. An exact answer is final; a float
    answer is None when it sits in the gray zone."""
    exact = theory.numeric_mode == EXACT
    out = _solve(theory, prob)
    if out.status == lp.LPStatus.OPTIMAL:
        meas = _assemble_measurement(theory, out.solution, len(states))
        if exact or max(map(abs, _delta_residuals(theory, meas, states))) <= CLEAR_RESIDUAL:
            return DistinguishabilityAnswer(True, witness=meas, problem=prob)
    elif out.status == lp.LPStatus.INFEASIBLE:
        # A float refusal also needs a clear optimality gap on the success probability.
        if exact or max_success_probability(
                instance(theory, states, validate=False)).p_success <= 1 - CLEAR_GAP:
            return DistinguishabilityAnswer(False, certificate=out.infeasibility_certificate,
                                            problem=prob)
    elif exact:
        raise RuntimeError(f"feasibility LP reported {out.status} (internal bug)")
    return None


def _float_distinguishable(theory: Theory, states, prob) -> DistinguishabilityAnswer:
    first = _verdict(theory, states, prob)
    # Re-solve from a perturbed start (reversed state order) and require
    # agreement before trusting a float answer near the boundary.
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
    return clear[0]


def verify_witness(theory: Theory, states: Sequence, meas: Measurement) -> bool:
    """Exact delta-condition check: the measurement must be valid and
    respond with certainty to each state in order."""
    return (len(meas.effects) == len(states) and is_measurement(theory, meas)
            and all(map(theory.arith().is_zero, _delta_residuals(theory, meas, states))))


def _delta_residuals(theory: Theory, meas: Measurement, states):
    """d * d * (dot(e_i, omega_j) - [i = j]) for every effect e_i and state
    omega_j, with d from theory.scaled_rows (d = 1 in float mode)."""
    n = len(meas.effects)
    rows, d = theory.scaled_rows((*meas.effects, *states))
    return (dot(e, s) - (i == j) * d * d for i, e in enumerate(rows[:n])
            for j, s in enumerate(rows[n:]))


def pairwise_distinguishable(theory: Theory, i: int, j: int) -> bool:
    if i == j:
        raise ValueError("pairwise check needs two distinct state indices")
    states = (theory.generators[i], theory.generators[j])
    return is_perfectly_distinguishable(theory, states, validate=False).distinguishable
