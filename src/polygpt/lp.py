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
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from . import simplex
from .linalg import dot, integer_rows
from .simplex import DEFAULT_TOL, Arith

LE = "<="
EQ = "="
GE = ">="
_RELATIONS = (LE, EQ, GE)  # row . x REL rhs


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
    solved in another arithmetic reads none of these (_solve). Its
    distinct integer rows, grouped by their bounds (ranges), serve the
    substitution check of every problem it leads (check_integers)."""

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
    def ranges(self) -> tuple:
        """integer_form's rows for check_integers: each distinct row once,
        grouped by its bounds over d, as (lo, hi, columns) with
        lo <= row . x <= hi for every row of the group (lo or hi None where
        no row bounds it) and columns the group's rows transposed."""
        bounds = {}
        for row, rel, rhs in self.integer_form[0]:
            lo, hi = bounds.get(row, (None, None))
            if rel != LE:
                lo = rhs if lo is None else max(lo, rhs)
            if rel != GE:
                hi = rhs if hi is None else min(hi, rhs)
            bounds[row] = lo, hi
        groups = {}
        for row, lo_hi in bounds.items():
            groups.setdefault(lo_hi, []).append(row)
        return tuple((lo, hi, tuple(zip(*rows))) for (lo, hi), rows in groups.items())

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
    objective = list(prob.objective)  # the dual's rhs
    if arith.exact:  # a float read as the binary fraction it stores, as in integer_form
        objective = [Fraction(c) if isinstance(c, float) else c for c in objective]
    res = simplex.solve_standard_min(costs, rows, objective, arith=arith,
                                     prefix=prefix, runs=runs)

    if res.status == simplex.STALLED:
        return LPOutcome(LPStatus.STALLED)

    if res.status == simplex.OPTIMAL:
        # Dual prices of the dualized problem are the primal solution, and
        # its solution gives the row multipliers (built for float solves only).
        y = None if arith.exact else _certificate_from(res.x, backmap, num_rows, 0.0)
        return LPOutcome(LPStatus.OPTIMAL, value=res.value, solution=res.duals, multipliers=y)

    if res.status == simplex.UNBOUNDED:
        # An improving dual ray is a Farkas certificate for the primal.
        cert = _certificate_from(res.ray, backmap, num_rows,
                                 Fraction(0) if arith.exact else 0.0)
        return LPOutcome(LPStatus.INFEASIBLE, infeasibility_certificate=cert)

    # Dual infeasible: the primal is unbounded or infeasible. With a zero
    # objective the dual is feasible (y = 0), so this recursion ends at once:
    # an optimum there means the primal is feasible, hence unbounded.
    out = _solve(replace(prob, objective=(0,) * n), arith)
    return LPOutcome(LPStatus.UNBOUNDED) if out.status == LPStatus.OPTIMAL else out


def _certificate_from(weights, backmap, num_rows, zero):
    """The primal row multipliers of the dual's column weights: row i's is
    the sum of mult * w over its columns (backmap), read from the nonzero
    weights only (an optimal basis has at most as many as the dual has
    rows). Every row starts at zero, the arithmetic's (0.0 or
    Fraction(0)): a float row then holds what the sum from 0 over all its
    weights gave, bit for bit, and an exact row the same value."""
    cert = [zero] * num_rows
    for w, (i, mult) in compress(zip(weights, backmap), weights):
        cert[i] = cert[i] + mult * w
    return tuple(cert)


def solve_exact(prob: LPProblem) -> LPOutcome:
    """Exact status and exact optimum; Optimal answers are re-verified by
    substitution and Infeasible answers carry a checkable certificate. A
    float in the problem is read as the binary fraction it stores, the
    objective's as the rows' (integer_form)."""
    out = _solve(prob, Arith())
    if out.status == LPStatus.OPTIMAL:
        if not check_solution(prob, out.solution):
            raise RuntimeError("simplex returned a non-feasible optimum (internal bug)")
        (objective,), den = integer_rows([prob.objective])
        if dot(objective, out.solution) != den * out.value:
            raise RuntimeError("objective mismatch between primal and dual (internal bug)")
    elif out.status == LPStatus.INFEASIBLE:
        if not verify_farkas(prob, out.infeasibility_certificate):
            raise RuntimeError("invalid Farkas certificate (internal bug)")
    return out


def solve_float(prob: LPProblem, tol: float = DEFAULT_TOL) -> LPOutcome:
    return _solve(prob, Arith(tol))


def check_solution(prob: LPProblem, x: Sequence) -> bool:
    """Exact substitution check of x: check_integers on the integers d * x over d."""
    (xs,), dx = integer_rows([x])
    return check_integers(prob, xs, dx)


def check_integers(prob: LPProblem, xs: Sequence[int], dx: int) -> bool:
    """Whether x = xs / dx satisfies every constraint of prob, for integers
    xs and dx > 0, checked in integers: row . xs REL rhs * dx for the rows
    and rhs of the block's integer_form, read once each (LPBlock.ranges),
    then of the problem's own. Each is the constraint times a positive d,
    so every relation keeps. No Fraction is built, so a caller that holds
    x over a common denominator (unreduced or not) checks it before
    making any."""
    if len(xs) != prob.num_vars:
        raise ValueError(f"dimension mismatch: {prob.num_vars} vs {len(xs)}")
    if dx <= 0:
        raise ValueError(f"the denominator must be positive, got {dx}")
    # A group's values are summed a column at a time over the nonzero
    # entries of xs, then bounded by their least and greatest.
    for lo, hi, columns in prob.block.ranges:
        values = [0] * len(columns[0])
        for x, column in zip(xs, columns):
            if x:
                values = [v + x * c for v, c in zip(values, column)]
        if lo is not None and min(values) < lo * dx or hi is not None and max(values) > hi * dx:
            return False
    mul = operator.mul
    for row, rel, rhs in prob.integer_form[0][len(prob.block.constraints):]:
        lhs, rhs = sum(map(mul, row, xs)), rhs * dx
        if lhs < rhs if rel == GE else lhs > rhs if rel == LE else lhs != rhs:
            return False
    return True


def verify_farkas(prob: LPProblem, cert: Sequence, tol: float = 0) -> bool:
    """Check the standard infeasibility certificate by substitution (with tol
    = 0 exactly, on integer_form and the integers d * y): multipliers >= 0 on
    <= rows, <= 0 on >= rows, free on = rows, sum(y_i a_i) = 0, sum(y_i b_i) < 0.
    Every row's sign is tested; only the rows of nonzero multipliers enter
    the sums, to which a zero multiplier adds nothing (in floats at most a
    zero's sign, which no test reads)."""
    if len(cert) != len(prob.constraints):
        return False
    ys, constraints = (cert, prob.constraints) if tol else \
        (integer_rows([cert])[0][0], prob.integer_form[0])
    combo = [0] * prob.num_vars
    total = 0
    for y, (row, rel, rhs) in zip(ys, constraints):
        if y < -tol if rel == LE else y > tol if rel == GE else False:
            return False
        if y:
            combo = [c + y * a for c, a in zip(combo, row)]
            total += y * rhs
    if any(abs(v) > tol for v in combo):
        return False
    return total < -tol
