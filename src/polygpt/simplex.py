"""Two-phase tableau simplex for standard-form problems.

Solves  min c.x  s.t.  A x = b, x >= 0.  One implementation serves both
backends: exact comparisons over Fractions, or toleranced comparisons over
floats (in which case an iteration cap turns non-convergence into a
distinct "stalled" status instead of a wrong answer).

Pricing: exact runs and the float guide below choose the entering column
by Bland's anti-cycling rule (the first negative reduced cost; Bland,
Math. Oper. Res. 2, 1977). Float runs choose it by Dantzig's rule (the
most negative reduced cost, the lowest index on ties) for at most ncols
pivots per phase, then fall back to Bland's rule for the rest of that
phase: Dantzig's rule takes far fewer pivots but can cycle, and Bland's
terminates from any basis. The leaving row is chosen the same way in
every run.

Artificial columns are kept in the tableau after phase 1 (barred from
entering) so row prices and Farkas multipliers can be read off the
objective rows.

Exact solves are float-guided: Bland runs once on a float copy of the
data, and its final basis is rebuilt and checked in exact arithmetic
(x_B = B^-1 b >= 0 and nonnegative reduced costs, an improving ray, or a
phase-1 Farkas vector). Only when that check fails does the exact Bland
loop run, from scratch. This is the QSopt_ex scheme (Applegate, Cook,
Dash and Espinoza, Oper. Res. Lett. 35, 2007).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import dot, integer_rows, solve_columns

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
STALLED = "stalled"

# Comparison tolerance of the float run that guides the exact solver.
GUIDE_TOL = 1e-9
MAX_ITERATIONS = 50_000  # pivots per phase; a float run that needs more has stalled
DEFAULT_TOL = 1e-9  # float-mode tolerance unless a theory carries another


class IndeterminateError(RuntimeError):
    """A float computation could not decide at its tolerance."""


class Arith:
    """Comparison context: tol == None means exact rational arithmetic."""

    _dantzig = True  # float runs price by Dantzig's rule first; exact runs never do

    def __init__(self, tol: Optional[float] = None):
        if tol is not None and not 0 < tol < math.inf:
            raise ValueError("tolerance must be a positive finite number")
        self.tol = tol
        self.exact = tol is None

    def is_pos(self, x) -> bool:
        return x > (0 if self.exact else self.tol)

    def is_neg(self, x) -> bool:
        return x < (0 if self.exact else -self.tol)

    def is_zero(self, x) -> bool:
        return x == 0 if self.exact else abs(x) <= self.tol

    def _compare_ratios(self, a, b) -> int:
        """-1, 0 or 1 as ratio-test value a lies below, ties or lies above b."""
        return (a > b) - (a < b)


class _GuideArith(Arith):
    """Float comparisons for the guide run. Ratio-test values within the
    tolerance tie, so round-off cannot break a tie that exact Bland breaks
    by basis index; the guide then ends on the basis exact Bland finds.
    It prices by Bland's rule for the same reason."""

    _dantzig = False

    def _compare_ratios(self, a, b) -> int:
        return 0 if self.is_zero(a - b) else (a > b) - (a < b)


@dataclass
class StandardResult:
    status: str
    x: Optional[tuple] = None      # primal solution (length n)
    value: object = None           # objective c.x at the optimum
    duals: Optional[tuple] = None  # row prices y: y.A_j <= c_j, y.b = value
    farkas: Optional[tuple] = None  # y with y.A <= 0 (entrywise), y.b > 0
    ray: Optional[tuple] = None    # x-space ray: A ray = 0, ray >= 0, c.ray < 0


def solve_standard_min(costs: Sequence, rows: Sequence[Sequence], rhs: Sequence,
                       arith: Optional[Arith] = None) -> StandardResult:
    arith = arith or Arith()
    n = len(costs)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"row length {len(row)} != {n} variables")
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    if arith.exact:
        guide = _float_guide(costs, rows, rhs)
        if guide is not None:
            res = _certify_basis(costs, rows, rhs, *guide)
            if res is not None:
                return res
    return _bland(costs, rows, rhs, arith)[0]


def _float_guide(costs, rows, rhs):
    """Bland on a float copy of the data: (status, final basis, entering
    column of an unbounded ray), or None when the float run fails."""
    try:
        fcosts = [float(c) for c in costs]
        frows = [[float(v) for v in row] for row in rows]
        frhs = [float(b) for b in rhs]
    except OverflowError:
        return None
    res, basis, entering = _bland(fcosts, frows, frhs, _GuideArith(GUIDE_TOL))
    if res.status == STALLED:
        return None
    return res.status, basis, entering


def _certify_basis(costs, rows, rhs, status, basis, entering):
    """Rebuild the guide's answer from its basis in exact arithmetic.

    The rows and rhs are scaled to integers by their least common
    denominator d, which leaves levels and rays unchanged and scales row
    prices by 1/d; column n + i is row i's artificial, sign-flipped with
    the row as in the tableau. Returns None unless every condition of the
    reported status holds exactly."""
    n = len(costs)
    scaled, d = integer_rows([[*row, b] for row, b in zip(rows, rhs)])
    b = [ints[n] for ints in scaled]

    def column(j):
        if j < n:
            return [ints[j] for ints in scaled]
        return [(d if ints[n] >= 0 else -d) if i == j - n else 0
                for i, ints in enumerate(scaled)]

    basis_cols = [column(j) for j in basis]  # the rows of B^T
    bmat = [[col[i] for col in basis_cols] for i in range(len(rows))]

    def priced_rows(basic_costs):
        """(y . [A | b], y, den) for the prices y / den of the scaled rows
        (y integral, den > 0), or None when B is singular."""
        solved = solve_columns(basis_cols, [basic_costs])
        if solved is None:
            return None
        (y,), den = integer_rows(solved)
        return [dot(y, col) for col in zip(*scaled)], y, den

    if status == INFEASIBLE:
        # Phase-1 prices: artificials cost 1, real columns 0.
        priced = priced_rows([int(j >= n) for j in basis])
        if priced is None:
            return None
        total, y, den = priced
        if total[n] <= 0 or any(v > 0 for v in total[:n]):
            return None
        return StandardResult(INFEASIBLE, farkas=tuple(
            Fraction(v * d, den) for v in y))

    # One elimination gives the levels and, for a ray, the entering column's step.
    solved = solve_columns(bmat, [b, column(entering)] if status == UNBOUNDED else [b])
    level = solved and solved[0]
    # Artificials may stay basic on redundant rows, but only at level zero.
    if level is None or any(v < 0 or (j >= n and v != 0) for j, v in zip(basis, level)):
        return None
    zero = Fraction(0)
    x = [zero] * n
    for j, v in zip(basis, level):
        if j < n:
            x[j] = v

    if status == UNBOUNDED:
        step = solved[1]
        if any((v > 0) if j < n else (v != 0) for j, v in zip(basis, step)):
            return None
        ray = [zero] * n
        ray[entering] = Fraction(1)
        for j, v in zip(basis, step):
            if j < n:
                ray[j] = -v
        if sum(c * v for c, v in zip(costs, ray)) >= 0:
            return None
        return StandardResult(UNBOUNDED, ray=tuple(ray))

    (cost_ints,), cost_den = integer_rows([costs])
    priced = priced_rows([cost_ints[j] if j < n else 0 for j in basis])
    if priced is None:
        return None
    total, y, den = priced
    if any(den * c < t for c, t in zip(cost_ints, total)):
        return None
    value = sum((costs[j] * v for j, v in zip(basis, level) if j < n), zero)
    return StandardResult(OPTIMAL, x=tuple(x), value=value, duals=tuple(
        Fraction(v * d, den * cost_den) for v in y))


def _bland(costs, rows, rhs, arith: Arith):
    """The two-phase simplex loop, priced as the module docstring says:
    (result, final basis, entering column when unbounded)."""
    n = len(costs)
    m = len(rows)
    zero = Fraction(0) if arith.exact else 0.0
    one = zero + 1

    # Flip rows so b >= 0; remember orientation for row-indexed outputs.
    sign = [(-1 if arith.is_neg(b) else 1) for b in rhs]
    ncols = n + m
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        t = [zero + v for v in row] + [zero] * m + [zero + b]
        if sign[i] < 0:
            t = [-v for v in t]
        t[n + i] = one
        tableau.append(t)
    basis = [n + i for i in range(m)]

    # Objective rows hold reduced costs; last entry is -(objective value).
    z_row = [zero + c for c in costs] + [zero] * (m + 1)
    w_row = [zero] * (ncols + 1)
    for t in tableau:
        for j in range(n):
            w_row[j] -= t[j]
        w_row[ncols] -= t[ncols]

    def pivot(r, col):
        piv = tableau[r][col]
        tableau[r] = [v / piv for v in tableau[r]]
        prow = tableau[r]
        for i in range(m):
            if i != r:
                f = tableau[i][col]
                if not arith.is_zero(f):
                    tableau[i] = [v - f * w for v, w in zip(tableau[i], prow)]
        for obj in (w_row, z_row):  # updated in place: the phases hold these lists
            f = obj[col]
            if not arith.is_zero(f):
                obj[:] = [v - f * w for v, w in zip(obj, prow)]
        basis[r] = col

    def bland_entering(obj):
        for j in range(n):
            if arith.is_neg(obj[j]):
                return j
        return None

    def dantzig_entering(obj):
        # The most negative reduced cost; min keeps the lowest index on ties.
        j = min(range(n), key=obj.__getitem__, default=None)
        return j if j is not None and arith.is_neg(obj[j]) else None

    # Dantzig's rule can cycle; Bland's, after these pivots, terminates.
    dantzig_pivots = ncols if arith._dantzig and not arith.exact else 0

    def bland_leaving(col):
        best = None
        for i in range(m):
            a = tableau[i][col]
            if arith.is_pos(a):
                ratio = tableau[i][ncols] / a
                order = -1 if best is None else arith._compare_ratios(ratio, best[0])
                if order < 0 or (order == 0 and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        return None if best is None else best[1]

    def run_phase(obj):
        iters = 0
        while True:
            col = (dantzig_entering if iters < dantzig_pivots else bland_entering)(obj)
            if col is None:
                return OPTIMAL, iters
            r = bland_leaving(col)
            if r is None:
                return UNBOUNDED, col
            pivot(r, col)
            iters += 1
            if iters > MAX_ITERATIONS:
                if arith.exact:
                    # Bland's rule terminates on exact data; running out of
                    # budget means a bug, not a hard instance.
                    raise RuntimeError("anti-cycling pivot exceeded its budget on exact data")
                return STALLED, iters

    # Phase 1: minimize the artificial total.
    status, _ = run_phase(w_row)
    if status == STALLED:
        return StandardResult(STALLED), basis, None
    if status == UNBOUNDED:
        # The artificial total is bounded below by zero; only float
        # round-off can land here.
        if arith.exact:
            raise RuntimeError("phase 1 reported unbounded on exact data")
        return StandardResult(STALLED), basis, None
    infeas = -w_row[ncols]
    if arith.is_pos(infeas):
        # Farkas prices from phase-1 reduced costs of the artificial columns.
        y = tuple(sign[i] * (one - w_row[n + i]) for i in range(m))
        return StandardResult(INFEASIBLE, farkas=y), basis, None

    # Drive any leftover artificials out of the basis (degenerate pivots);
    # rows with no real pivot entry are redundant and stay inert.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if not arith.is_zero(tableau[r][j])), None)
            if col is not None:
                pivot(r, col)

    # Phase 2 on the true costs, artificials barred from entering.
    status, info = run_phase(z_row)
    if status == STALLED:
        return StandardResult(STALLED), basis, None
    if status == UNBOUNDED:
        col = info
        ray = [zero] * n
        ray[col] = one
        for i in range(m):
            if basis[i] < n:
                ray[basis[i]] = -tableau[i][col]
        return StandardResult(UNBOUNDED, ray=tuple(ray)), basis, col

    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][ncols]
    value = -z_row[ncols]
    duals = tuple(sign[i] * (-z_row[n + i]) for i in range(m))
    return StandardResult(OPTIMAL, x=tuple(x), value=value, duals=duals), basis, None
