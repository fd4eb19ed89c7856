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

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from . import lp
from .linalg import dot, integer_rows
from .theory import EXACT, Measurement, Theory, is_measurement, is_state

# Float-mode bands: answers whose delta-conditions land inside the gray
# zone are re-solved from a perturbed start and, failing that, refused.
CLEAR_RESIDUAL = 1e-7
CLEAR_GAP = 1e-6


class IndeterminateError(RuntimeError):
    """A float-mode answer sat on the feasibility boundary after re-solving,
    or a float LP stalled."""


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
    prob, offset = success_probability_problem(inst)
    out = _solve(theory, prob)
    if out.status == lp.LPStatus.STALLED and theory.numeric_mode != EXACT:
        raise IndeterminateError("the success-probability LP did not converge at this tolerance")
    if out.status != lp.LPStatus.OPTIMAL:
        # (u, 0, ..., 0) is always feasible and the objective is capped by 1.
        raise RuntimeError(f"discrimination LP reported {out.status} (internal bug)")
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
    nvars, rows = _effect_rows(theory, n)
    d = theory.dim
    for i in range(n - 1):  # e_i . omega_i = 1
        row = [0] * nvars
        row[i * d:(i + 1) * d] = list(states[i])
        rows.append((row, lp.EQ, 1))
    # (u - sum e_i) . omega_N = 1  <=>  sum_i e_i . omega_N = 0
    rows.append((list(states[n - 1]) * (n - 1), lp.EQ, 0))
    return lp.problem([0] * nvars, rows, nvars)


@dataclass(frozen=True)
class ScaledEvidence:
    """Evidence over integers: a witness's effect i is rows[i] / den, a
    Farkas vector is rows[0] / den. Moves and re-checks run on these
    integers; fractions() builds the Fraction form for a caller that asks."""

    witness: bool
    rows: tuple
    den: int

    def fractions(self):
        values = tuple(tuple(Fraction(v, self.den) for v in row) for row in self.rows)
        return Measurement(values) if self.witness else values[0]


def scale_evidence(evidence) -> ScaledEvidence:
    """A witness Measurement or a Farkas vector as ScaledEvidence, over its
    least common denominator."""
    witness = isinstance(evidence, Measurement)
    rows, den = integer_rows(evidence.effects if witness else [evidence])
    return ScaledEvidence(witness, tuple(map(tuple, rows)), den)


def moved_evidence(theory: Theory, indices, evidence: ScaledEvidence, perm):
    """Evidence for the generators at indices, the image of a decided
    subset under perm, state by state in the subset's order: perm maps
    generator k to generator perm[k]. evidence is the subset's
    ScaledEvidence; the theory is exact and its generators span. perm is
    only a hint: the moved evidence is returned only when it passes its
    re-check by substitution on these states (_rechecks); else None."""
    moved = _moved(theory, evidence, perm)
    return moved if _rechecks(theory, indices, moved) else None


def _moved(theory: Theory, evidence: ScaledEvidence, perm) -> ScaledEvidence:
    if evidence.witness:
        return _moved_witness(theory, evidence, perm)
    return replace(evidence, rows=(
        _moved_certificate(evidence.rows[0], perm, theory.num_generators),))


def _moved_witness(theory: Theory, evidence: ScaledEvidence, perm) -> ScaledEvidence:
    """Effect i becomes e_i A^-1 for the linear map A with A g_k = g_perm[k]:
    e_i A^-1 . g_perm[k] = e_i . g_k, so it answers the image of state i.
    A^-1 takes each basis generator g_b to g_k, where perm[k] = b, so
    e_i A^-1 is the sum over the basis of (e_i . g_k) times b's row of
    theory.basis_inverse, over q: an integer row over den * d * q. When
    perm is no symmetry, the re-check rejects the result."""
    basis, inverse, q = theory.basis_inverse
    gens, d = theory.generator_rows
    images = [gens[perm.index(b)] for b in basis]  # d * A^-1 g_b
    columns = list(zip(*inverse))
    rows = []
    for row in evidence.rows:
        coords = [sum(map(mul, row, g)) for g in images]  # den * d * (e_i . A^-1 g_b)
        rows.append(tuple(sum(map(mul, coords, col)) for col in columns))
    return ScaledEvidence(True, tuple(rows), evidence.den * d * q)


def _moved_certificate(cert, perm, num_generators: int) -> tuple:
    """With e_i A^-1 for e_i (A g_k = g_perm[k]), row (i, k) of
    _feasibility_problem over the source states, e_i . g_k, is row
    (i, perm[k]) over their images in the same order. This holds for each
    of the N - 1 blocks of >= rows and for the block of <= rows, and the N
    state rows keep their indices; so a Farkas vector moves by permuting
    the multipliers within each of the N generator blocks."""
    v = num_generators
    moved = list(cert)
    for r in range(len(cert) // (v + 1) * v):  # N * v generator rows, then N state rows
        moved[r - r % v + perm[r % v]] = cert[r]
    return tuple(moved)


def _rechecks(theory: Theory, indices, evidence: ScaledEvidence) -> bool:
    """The substitution check of evidence for the generators at indices, in
    that order, on theory.generator_rows G_k = d * g_k: condition for
    condition what verify_witness, or exact lp.verify_farkas on
    _feasibility_problem, checks of evidence.fractions(), scaled by the
    positive den * d.

    A witness W (den * the effects) needs 0 <= W_i . G_k <= den * d on every
    generator, sum_i W_i = den * u and W_i . G_{indices[j]} = [i = j] * den * d.

    A Farkas vector y needs y <= 0 on the N - 1 blocks of >= rows and
    y >= 0 on the block of <= rows (the shared block); for each block i,
    sum_k (y_ik + y_shared,k) G_k + y_state_i G_{indices[i]}
    + y_state_last G_{indices[-1]} = 0; and the right-hand sides,
    sum_k y_shared,k + sum_{i < N-1} y_state_i, summing below 0."""
    gens, d = theory.generator_rows
    n = len(indices)
    if evidence.witness:
        top = evidence.den * d
        (unit,), du = integer_rows([theory.unit])
        if (len(evidence.rows) != n or [sum(col) * du for col in zip(*evidence.rows)]
                != [evidence.den * x for x in unit]):
            return False
        rest = [top] * len(gens)  # den * u . G_k less the values found so far
        for i, row in enumerate(evidence.rows):
            # W_i . G_k for every k; the sum leaves the last effect the rest.
            values = rest if i == n - 1 else _generator_values(theory, row)
            if (min(values) < 0 or max(values) > top
                    or any(values[k] != (i == j) * top for j, k in enumerate(indices))):
                return False
            rest = [a - b for a, b in zip(rest, values)]
        return True
    y, v = evidence.rows[0], len(gens)
    if len(y) != n * v + n:
        return False
    shared, states = y[(n - 1) * v:n * v], y[n * v:]
    if max(y[:(n - 1) * v]) > 0 or min(shared) < 0 or sum(shared) + sum(states[:-1]) >= 0:
        return False
    for i in range(n - 1):
        terms = [(a + b, g) for a, b, g in zip(y[i * v:(i + 1) * v], shared, gens)]
        terms += [(states[i], gens[indices[i]]), (states[-1], gens[indices[-1]])]
        combo = [0] * theory.dim
        for c, g in terms:
            if c:
                combo = [x + c * a for x, a in zip(combo, g)]
        if any(combo):
            return False
    return True


def _generator_values(theory: Theory, row) -> list:
    """row . G_k for every generator row G_k of theory.generator_rows,
    summed over the nonzero entries of theory.generator_columns."""
    values = [0] * theory.num_generators
    for w, column in zip(row, theory.generator_columns):
        if w:
            for k, a in column:
                values[k] += w * a
    return values


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
    gens, d = theory.generator_rows
    n, g = len(states), len(gens)
    # ys = e * y and omegas = e * states as integers; gens = d * generators.
    (ys, *omegas), e = integer_rows([[Fraction(v) for v in row] for row in (y, *states)])
    shared = ys[(n - 1) * g:]  # the <= rows, whose right-hand side is 1
    columns = list(zip(*gens))
    positive = 0
    for i in range(n - 1):
        coeffs = [a + b for a, b in zip(ys[i * g:(i + 1) * g], shared)]
        # n * e * d * r_i = d * (omega_i - omega_N) - n * (e * d * (y A)_i)
        r = [d * (a - b) - n * dot(coeffs, col)
             for a, b, col in zip(omegas[i], omegas[-1], columns)]
        positive += sum(max(dot(row, r), 0) for row in inverse)
    return Fraction(1, n) + Fraction(sum(shared), e) + Fraction(positive, q * n * e * d)


def verify_witness(theory: Theory, states: Sequence, meas: Measurement) -> bool:
    """Exact delta-condition check: the measurement must be valid and
    respond with certainty to each state in order."""
    return (len(meas.effects) == len(states) and is_measurement(theory, meas)
            and all(map(theory.arith().is_zero, _delta_residuals(theory, meas, states))))


def _clear(theory: Theory, meas: Measurement, states) -> bool:
    """Float mode: every delta-condition of the measurement holds within CLEAR_RESIDUAL."""
    return max(map(abs, _delta_residuals(theory, meas, states))) <= CLEAR_RESIDUAL


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
