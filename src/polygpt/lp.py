"""Public linear-programming surface: free variables, mixed relations.

``LPProblem`` is a maximization over free variables with <=, =, >= rows.
``solve_exact`` answers with exact rationals and, on infeasibility, a
Farkas certificate; ``solve_float`` is the toleranced backend for theories
with irrational coordinates.

Internally every problem is dualized before hitting the simplex engine:
the dual of a few-variables/many-rows problem has one equality row per
primal variable, so the tableau basis stays as small as the problem's
variable count (the discrimination programs are exactly this shape).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import simplex
from .linalg import dot, integer_rows
from .simplex import DEFAULT_TOL, Arith

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = {LE: operator.le, EQ: operator.eq, GE: operator.ge}  # row . x REL rhs


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    STALLED = "stalled"  # float backend only: numerical non-convergence


@dataclass(frozen=True)
class LPProblem:
    """maximize objective . x  subject to  row . x REL rhs, x free."""

    objective: tuple
    constraints: tuple  # of (row, relation, rhs)
    num_vars: int

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        for row, rel, _ in self.constraints:
            if len(row) != self.num_vars:
                raise ValueError(f"constraint row has length {len(row)}, expected {self.num_vars}")
            if rel not in _RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")

    @functools.cached_property
    def integer_form(self):
        """(constraints, d): the rows and rhs times d as integers (linalg.integer_rows)."""
        rows, den = integer_rows([[*row, rhs] for row, _, rhs in self.constraints])
        return tuple((tuple(r[:-1]), c[1], r[-1]) for r, c in zip(rows, self.constraints)), den


def problem(objective: Sequence, constraints: Sequence, num_vars: int) -> LPProblem:
    return LPProblem(tuple(objective),
                     tuple((tuple(r), rel, b) for r, rel, b in constraints),
                     num_vars)


@dataclass
class LPOutcome:
    status: LPStatus
    value: object = None
    solution: Optional[tuple] = None
    infeasibility_certificate: Optional[tuple] = None
    # Float optimum only: row multipliers y with y.A = objective and y.b =
    # value, >= 0 on <= rows and <= 0 on >= rows, up to round-off.
    multipliers: Optional[tuple] = None


def _dual_columns(constraints):
    """Columns of the dualized problem, one per primal row (split for =)."""
    cols = []   # (coefficient vector over primal vars, cost)
    backmap = []  # (row index, multiplier applied to recover certificate)
    for i, (row, rel, rhs) in enumerate(constraints):
        for s in (1, -1) if rel == EQ else (1 if rel == LE else -1,):
            cols.append((tuple(s * v for v in row), s * rhs))
            backmap.append((i, s))
    return cols, backmap


def _solve(prob: LPProblem, arith: Arith) -> LPOutcome:
    # Exact: rows times d (integer_form) keep x, value and certificates; rhs2 scales by d too.
    n = prob.num_vars
    constraints, den = prob.integer_form if arith.exact else (prob.constraints, 1)
    cols, backmap = _dual_columns(constraints)
    costs = [cost for _, cost in cols]
    rows = [[col[j] for col, _ in cols] for j in range(n)]
    res = simplex.solve_standard_min(costs, rows, list(prob.objective), arith=arith)

    if res.status == simplex.STALLED:
        return LPOutcome(LPStatus.STALLED)

    if res.status == simplex.OPTIMAL:
        # Dual prices of the dualized problem are the primal solution, and
        # its solution gives the row multipliers (built for float solves only).
        y = None if arith.exact else _certificate_from(res.x, backmap, len(prob.constraints))
        return LPOutcome(LPStatus.OPTIMAL, value=res.value, solution=res.duals, multipliers=y)

    if res.status == simplex.UNBOUNDED:
        # An improving dual ray is a Farkas certificate for the primal.
        cert = _certificate_from(res.ray, backmap, len(prob.constraints))
        return LPOutcome(LPStatus.INFEASIBLE, infeasibility_certificate=cert)

    # Dual infeasible: primal is unbounded or infeasible. Search directly
    # for a Farkas certificate (a normalized improving ray).
    rows2 = [r + [0] for r in rows] + [costs + [1]]
    rhs2 = [0] * n + [-den]
    res2 = simplex.solve_standard_min([0] * (len(cols) + 1), rows2, rhs2, arith=arith)
    if res2.status == simplex.STALLED:
        return LPOutcome(LPStatus.STALLED)
    if res2.status == simplex.OPTIMAL:
        cert = _certificate_from(res2.x, backmap, len(prob.constraints))
        return LPOutcome(LPStatus.INFEASIBLE, infeasibility_certificate=cert)
    return LPOutcome(LPStatus.UNBOUNDED)


def _certificate_from(weights, backmap, num_rows):
    cert = [0] * num_rows
    for w, (i, mult) in zip(weights, backmap):
        cert[i] = cert[i] + mult * w
    return tuple(cert)


def solve_exact(prob: LPProblem) -> LPOutcome:
    """Exact status and exact optimum; Optimal answers are re-verified by
    substitution and Infeasible answers carry a checkable certificate."""
    out = _solve(prob, Arith())
    if out.status == LPStatus.OPTIMAL:
        if not check_solution(prob, out.solution):
            raise RuntimeError("simplex returned a non-feasible optimum (internal bug)")
        if dot(prob.objective, out.solution) != out.value:
            raise RuntimeError("objective mismatch between primal and dual (internal bug)")
    elif out.status == LPStatus.INFEASIBLE:
        if not verify_farkas(prob, out.infeasibility_certificate):
            raise RuntimeError("invalid Farkas certificate (internal bug)")
    return out


def solve_float(prob: LPProblem, tol: float = DEFAULT_TOL) -> LPOutcome:
    return _solve(prob, Arith(tol))


def check_solution(prob: LPProblem, x: Sequence) -> bool:
    """Exact substitution check, on integer_form and the integers d * x."""
    (xs,), dx = integer_rows([x])
    return all(_RELATIONS[rel](dot(row, xs), rhs * dx) for row, rel, rhs in prob.integer_form[0])


def verify_farkas(prob: LPProblem, cert: Sequence, tol: float = 0) -> bool:
    """Check the standard infeasibility certificate by substitution (with tol
    = 0 exactly, on integer_form and the integers d * y): multipliers >= 0 on
    <= rows, <= 0 on >= rows, free on = rows, sum(y_i a_i) = 0, sum(y_i b_i) < 0."""
    if len(cert) != len(prob.constraints):
        return False
    ys, constraints = (cert, prob.constraints) if tol else \
        (integer_rows([cert])[0][0], prob.integer_form[0])
    combo = [0] * prob.num_vars
    total = 0
    for y, (row, rel, rhs) in zip(ys, constraints):
        if rel == LE and y < -tol:
            return False
        if rel == GE and y > tol:
            return False
        for j, a in enumerate(row):
            combo[j] += y * a
        total += y * rhs
    if any(abs(v) > tol for v in combo):
        return False
    return total < -tol
