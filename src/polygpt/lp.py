"""Public linear-programming surface: free variables, mixed relations.

``LPProblem`` is a maximization over free variables with <=, =, >= rows.
``solve_exact`` answers with exact rationals and, on infeasibility, a
Farkas certificate; ``solve_float`` is the toleranced backend for theories
with irrational coordinates.

Internally every problem is dualized before hitting the simplex engine:
the dual of a few-variables/many-rows problem has one equality row per
primal variable, so the tableau basis stays as small as the problem's
variable count (the discrimination programs are exactly this shape).
A problem's leading constraints may be an ``LPBlock`` that many problems
share, built for one arithmetic; its part of the dual is built once and
joined to each own part that a problem solved in that arithmetic brings.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, replace
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


def _check_rows(constraints, num_vars: int) -> None:
    for row, rel, _ in constraints:
        if len(row) != num_vars:
            raise ValueError(f"constraint row has length {len(row)}, expected {num_vars}")
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")


class LPBlock:
    """Leading constraints that many problems over the same variables
    share, built for one arithmetic (arith, its theory's). They are
    validated when the block is built, and dualized once, in arith's
    form: scaled to integers when exact (integer_form), as given when
    float. The phase 1 of their dual columns at a zero objective is
    pivoted once (phase1), and each zero-objective problem they lead
    replays it on its own columns, each distinct column once
    (simplex.Phase1.columns). A float problem of their rows alone at a
    nonzero objective walks the optimal runs that such problems have
    taken cold before (runs), which hold for any objective. Both keep the
    pivots as the runs logged them (simplex._pivot_column). A problem
    solved in another arithmetic reads none of these (_solve)."""

    def __init__(self, constraints: tuple, num_vars: int, arith: Arith):
        _check_rows(constraints, num_vars)
        self.constraints = constraints
        self.num_vars = num_vars
        self.arith = arith

    @functools.cached_property
    def integer_form(self):
        """(constraints, d): the rows and rhs times d as integers (linalg.integer_rows)."""
        return _integer_form(self.constraints)

    @functools.cached_property
    def dual(self):
        """_dual of integer_form's rows when arith is exact, else of the rows as given."""
        return _dual(self.integer_form[0] if self.arith.exact else self.constraints,
                     self.num_vars)

    @functools.cached_property
    def phase1(self) -> Optional[simplex.Phase1]:
        """simplex.record_phase1 of dual for arith's runs (exact: for the
        guide); None for an empty block."""
        costs, rows, _ = self.dual
        return simplex.record_phase1(costs, rows, self.arith) if self.constraints else None

    @functools.cached_property
    def runs(self) -> Optional[simplex.Runs]:
        """The simplex.Runs of dual, empty until a run ends optimal; None
        for exact arith or an empty block."""
        return None if self.arith.exact or not self.constraints else simplex.Runs()


@dataclass(frozen=True)
class LPProblem:
    """maximize objective . x  subject to  row . x REL rhs, x free.

    The constraints start with those of block, which other problems may
    share; without a block, that block is empty."""

    objective: tuple
    constraints: tuple  # of (row, relation, rhs)
    num_vars: int
    block: Optional[LPBlock] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length != num_vars")
        if self.block is None:
            object.__setattr__(self, "block", LPBlock((), self.num_vars, Arith()))
        shared = self.block.constraints
        if self.block.num_vars != self.num_vars or self.constraints[:len(shared)] != shared:
            raise ValueError("the constraints must start with the block's")
        _check_rows(self.own_constraints, self.num_vars)

    @property
    def own_constraints(self) -> tuple:
        """The constraints after the block's."""
        return self.constraints[len(self.block.constraints):]

    @functools.cached_property
    def integer_form(self):
        """(constraints, d): the rows and rhs times d as integers (linalg.integer_rows).
        The block's integer rows serve when the own rows bring no new
        denominator; otherwise the whole problem is scaled at once."""
        shared, block_den = self.block.integer_form
        own, den = _integer_form(self.own_constraints, block_den)
        return (shared + own, den) if den == block_den else _integer_form(self.constraints)


def _integer_form(constraints, den: int = 1):
    rows, den = integer_rows([[*row, rhs] for row, _, rhs in constraints], den)
    return tuple((tuple(r[:-1]), c[1], r[-1]) for r, c in zip(rows, constraints)), den


def problem(objective: Sequence, constraints: Sequence, num_vars: int,
            block: Optional[LPBlock] = None) -> LPProblem:
    """The problem whose constraints are the block's, if any, then these."""
    own = tuple((tuple(r), rel, b) for r, rel, b in constraints)
    return LPProblem(tuple(objective), block.constraints + own if block else own,
                     num_vars, block)


@dataclass
class LPOutcome:
    status: LPStatus
    value: object = None
    solution: Optional[tuple] = None
    infeasibility_certificate: Optional[tuple] = None
    # Float optimum only: row multipliers y with y.A = objective and y.b =
    # value, >= 0 on <= rows and <= 0 on >= rows, up to round-off.
    multipliers: Optional[tuple] = None


def _dual(constraints, num_vars: int, start: int = 0):
    """(costs, rows, backmap) of the dualized problem: one column per primal
    row (split in two for =) with the row's rhs as its cost, rows[j] the
    columns' entries for primal variable j, and backmap each column's (row
    index, multiplier applied to recover a certificate), counting rows
    from start."""
    costs, columns, backmap = [], [], []
    for i, (row, rel, rhs) in enumerate(constraints, start):
        for s in (1, -1) if rel == EQ else (1 if rel == LE else -1,):
            columns.append(row if s == 1 else [-v for v in row])
            costs.append(s * rhs)
            backmap.append((i, s))
    return costs, list(zip(*columns)) if columns else [()] * num_vars, backmap


def _solve(prob: LPProblem, arith: Arith) -> LPOutcome:
    # Exact: rows times d (integer_form) keep x, value and certificates.
    n, block = prob.num_vars, prob.block
    constraints, den = prob.integer_form if arith.exact else (prob.constraints, None)
    # The block's dual columns lead, and its phase 1 and runs serve, in
    # its own arithmetic with no new denominator; otherwise the whole
    # problem is dualized cold. A zero objective is the dual's zero rhs,
    # where the phase 1 replays; at any other, a float problem of the
    # block's rows alone walks the runs.
    prefix = runs = None
    if arith.tol == block.arith.tol and (den is None or den == block.integer_form[1]):
        (costs, rows, backmap), start = block.dual, len(block.constraints)
        if not any(prob.objective):
            prefix = block.phase1
        elif start == len(constraints):
            runs = block.runs
    else:
        costs, rows, backmap, start = [], [()] * n, [], 0
    own_costs, own_rows, own_backmap = _dual(constraints[start:], n, start)
    costs, backmap = costs + own_costs, backmap + own_backmap
    rows = [a + b for a, b in zip(rows, own_rows)]
    num_rows = len(prob.constraints)
    res = simplex.solve_standard_min(costs, rows, list(prob.objective), arith=arith,
                                     prefix=prefix, runs=runs)

    if res.status == simplex.STALLED:
        return LPOutcome(LPStatus.STALLED)

    if res.status == simplex.OPTIMAL:
        # Dual prices of the dualized problem are the primal solution, and
        # its solution gives the row multipliers (built for float solves only).
        y = None if arith.exact else _certificate_from(res.x, backmap, num_rows)
        return LPOutcome(LPStatus.OPTIMAL, value=res.value, solution=res.duals, multipliers=y)

    if res.status == simplex.UNBOUNDED:
        # An improving dual ray is a Farkas certificate for the primal.
        cert = _certificate_from(res.ray, backmap, num_rows)
        return LPOutcome(LPStatus.INFEASIBLE, infeasibility_certificate=cert)

    # Dual infeasible: the primal is unbounded or infeasible. With a zero
    # objective the dual is feasible (y = 0), so this recursion ends at once:
    # an optimum there means the primal is feasible, hence unbounded.
    out = _solve(replace(prob, objective=(0,) * n), arith)
    return LPOutcome(LPStatus.UNBOUNDED) if out.status == LPStatus.OPTIMAL else out


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
    if len(xs) != prob.num_vars:
        raise ValueError(f"dimension mismatch: {prob.num_vars} vs {len(xs)}")
    return all(_RELATIONS[rel](sum(map(operator.mul, row, xs)), rhs * dx)
               for row, rel, rhs in prob.integer_form[0])


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
