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
phase-1 Farkas vector; at b = 0 an optimum's levels and value are zero,
and the pricing solve alone shows B nonsingular). The pricing stays in
integers: the prices are the fraction-free elimination's numerators over
|det B|, and they price the columns as one combination of the scaled
rows. Only when that check fails does the exact Bland loop run, from
scratch. This is the QSopt_ex scheme (Applegate, Cook, Dash and
Espinoza, Oper. Res. Lett. 35, 2007).

A problem with a zero rhs whose leading columns a shared block's phase 1
has been recorded on (record_phase1) starts where those pivots leave the
tableau: they are replayed on its own columns only, with the same
operations in the same order (_pivot_column, which the walk below
shares), so the run is the cold run pivot for pivot. Each distinct own
column is replayed once per recorded phase 1 and kept on it, and a
replayed guide converts only the own columns to floats.

A float problem made of a shared block's columns alone walks the block's
recorded optimal runs (Runs) before it runs cold. The right-hand side
decides only the row signs and the ratio tests: everything else a run
reads (entering columns, the Dantzig budget, the drive-out, the duals)
comes from the coefficient part, which the sign pattern and the pivots
made so far fix. So the walk keys its root by the sign pattern, repeats
each ratio test on its own right-hand side against the stored pivot
record, and pivots only the rhs column, with the same float operations in
the same order as the cold run: where it follows a stored run to its
optimal end, its answer is the cold run's bit for bit. Anywhere else it
runs cold, and a cold optimal run is added to the store.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .linalg import integer_rows, solve_columns, solve_numerators

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
                       arith: Optional[Arith] = None,
                       prefix: Optional[Phase1] = None,
                       runs: Optional[Runs] = None) -> StandardResult:
    """prefix, when given, is record_phase1 of the leading columns in
    this arith, unchecked (lp._solve passes a block's only at the block's
    tolerance), and replayed only when rhs is all zero. runs, when given,
    holds this float arith's recorded runs of these very columns: the
    solve walks them first and records a cold optimal run there."""
    arith = arith or Arith()
    n = len(costs)
    for row in rows:
        if len(row) != n:
            raise ValueError(f"row length {len(row)} != {n} variables")
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    if not arith.exact:
        walked = None if runs is None else runs.walk(n, rhs, arith)
        if walked is not None:
            return walked
        return _simplex(costs, rows, rhs, arith, _start(prefix, costs, rows, rhs, arith),
                        runs=runs)[0]
    guide = _float_guide(costs, rows, rhs, prefix)
    if guide is not None:
        res = _certify_basis(costs, rows, rhs, *guide)
        if res is not None:
            return res
    return _bland(costs, rows, rhs, arith)[0]


def _float_copy(costs, rows, rhs):
    """(costs, rows, rhs) as floats, or None when a value overflows."""
    try:
        return ([float(c) for c in costs], [[float(v) for v in row] for row in rows],
                [float(b) for b in rhs])
    except OverflowError:
        return None


def _float_guide(costs, rows, rhs, prefix=None):
    """Bland on a float copy of the data, from prefix when it applies:
    (status, final basis, entering column of an unbounded ray), or None
    when the float run fails. A replayed run reads only the columns after
    the block's, and _replay alone converts them to floats."""
    arith = _GuideArith(GUIDE_TOL)
    try:
        start = _start(prefix, costs, rows, rhs, arith)
    except OverflowError:
        return None
    data = (costs, rows, rhs) if start is not None else _float_copy(costs, rows, rhs)
    if data is None:
        return None
    res, basis, entering = _simplex(*data, arith, start)
    if res.status == STALLED:
        return None
    return res.status, basis, entering


def _start(prefix, costs, rows, rhs, arith):
    """_replay of prefix on this problem when its rhs is all zero, else None."""
    if prefix is None or any(rhs):
        return None
    return _replay(prefix, costs, rows, arith)


class Phase1(NamedTuple):
    """A block's phase 1 (record_phase1), replayed in the arithmetic it
    was recorded in (solve_standard_min): its pivot records
    (_pivot_column); the tableau, objective rows and basis it ends on,
    whose columns are the block's, then the artificials and the rhs; and
    every column after the block's that has been replayed on it
    (_replay), by (cost, *entries)."""
    pivots: tuple
    tableau: list
    w_row: list
    z_row: list
    basis: list
    columns: dict


def record_phase1(costs, rows, arith: Arith) -> Optional[Phase1]:
    """The phase 1 of these columns alone at a zero rhs, as arith's run
    takes it (an exact run: as its float guide does), or None when it
    stalls or ends other than optimal.

    On a problem whose leading columns these are and whose rhs is zero,
    a cold run makes the same pivots first: no row is flipped, every
    ratio is 0 so ties break by basis index, and the leading columns
    price first, so Bland's rule cannot enter a later column while one of
    these prices negative. Dantzig's rule can; _replay checks it."""
    if arith.exact:
        data = _float_copy(costs, rows, ())
        if data is None:
            return None
        costs, rows, _ = data
        arith = _GuideArith(GUIDE_TOL)
    return _simplex(costs, rows, [0] * len(rows), arith, record=[])


def _replay(prefix: Phase1, costs, rows, arith: Arith):
    """(tableau, w_row, z_row, basis, pivots made) after prefix's pivots on
    the full problem: the recorded block part, and the own columns (those
    after the block's), each pivoted once per prefix (prefix.columns) with
    the same float operations in the same order as a cold run, in prefix's
    arith. None past MAX_ITERATIONS or where a cold Dantzig run would enter
    an own column in it. Own entries are converted as 0.0 + v, which raises
    OverflowError past the float range."""
    if len(prefix.pivots) > MAX_ITERATIONS:
        return None
    m = len(rows)
    nb = len(prefix.w_row) - m - 1  # the block's columns
    dantzig = arith._dantzig and not arith.exact
    stored = prefix.columns
    columns = []
    for key in zip(costs[nb:], *[row[nb:] for row in rows]):
        column = stored.get(key)
        if column is None:
            column = stored[key] = _replay_column(prefix.pivots, key, dantzig)
        columns.append(column)
    if any(refuses for _, refuses in columns):
        return None  # Dantzig's rule would enter an own column
    # The own part of every row, then of the w and z rows.
    own = list(zip(*[entries for entries, _ in columns])) or [()] * (m + 2)
    shift = len(costs) - nb
    joined = [[*t[:nb], *o, *t[nb:]]
              for t, o in zip((*prefix.tableau, prefix.w_row, prefix.z_row), own)]
    return (joined[:m], joined[m], joined[m + 1],
            [j if j < nb else j + shift for j in prefix.basis], len(prefix.pivots))


def _replay_column(pivots, key, dantzig):
    """(entries in every row, then in w and z; refuses) of the column key =
    (cost, *entries) after the pivots, where refuses says that it priced
    strictly below the entering column in w before some pivot, so that a
    cold Dantzig run would have entered it there."""
    cost, *column = [0.0 + v for v in key]
    w = 0.0
    for v in column:  # w's entry: minus each row's, in row order
        w = w - v
    m = len(column)
    column += (w, cost)
    refuses = False
    for r, _, entries in pivots:
        refuses = refuses or (dantzig and column[m] < entries[m])
        _pivot_column(column, r, entries)
    return tuple(column), refuses


def _pivot_column(column, r, entries) -> None:
    """Pivot column (its entries in every row, then in w and z) in place,
    as _simplex pivots its tableau, by its pivot record (r, col, entries):
    the pivot row, the entering column, and that column's entries before
    the pivot as an array('d') (only float runs log), where those the pivot
    skips are zero (arith.is_zero ones, and w's once phase 1's outcome is read)."""
    x = column[r] = column[r] / entries[r]
    for i, f in enumerate(entries):
        if f and i != r:
            column[i] = column[i] - f * x


class Runs:
    """The optimal float runs of one block's columns alone, at any
    right-hand side, as a trie (one per float block, lp.LPBlock.runs).
    Nodes are indices into steps, and children maps (node, leaving row)
    to the next node, so a trie pickles without deep recursion.

    roots maps a run's sign pattern (-1 or 1 per row, as _simplex flips
    the rows) to its first node. steps[k] is node k's step of the run:
    - (col, entries), a pivot on column col >= 0 with entries as in its
      pivot record (_pivot_column); the next node is the child for the
      leaving row the ratio test picks;
    - (-1, drives) at the end of phase 1: drives are the drive-out's
      pivot records, and the next node, the child for row None, begins
      phase 2;
    - (-1, artificials) at an optimal end: z's entries in the artificial
      columns, which give the duals."""

    def __init__(self):
        self.roots = {}
        self.steps = []
        self.children = {}

    def insert(self, sign: tuple, log: list, ends: tuple, artificials) -> None:
        """Store a cold optimal run: its sign pattern, its pivot records,
        the records' counts up to the end of phase 1 and of the drive-out,
        and z's artificial entries at its end. The trie grows by at most
        one node per pivot and two more per run."""
        phase1, drive = ends
        # Every step as a record, (None, -1, payload) at either end; its
        # first field keys the next node among its children.
        records = [*log[:phase1], (None, -1, tuple(log[phase1:drive])), *log[drive:],
                   (None, -1, tuple(artificials))]
        k = self.roots.get(sign)
        if k is None:
            k = self.roots[sign] = len(self.steps)
            self.steps.append(records[0][1:])
        for (r, _, _), step in zip(records, records[1:]):
            child = self.children.get((k, r))
            if child is None:
                child = self.children[k, r] = len(self.steps)
                self.steps.append(step[1:])
            k = child

    def walk(self, n: int, rhs: Sequence, arith: Arith) -> Optional[StandardResult]:
        """The cold run's result at rhs on the n columns, when the ratio
        tests follow a stored run to its optimal end; else None. The
        right-hand side, then w's and z's last entries, are pivoted as
        _simplex pivots them."""
        sign = tuple(-1 if arith.is_neg(b) else 1 for b in rhs)
        k = self.roots.get(sign)
        if k is None:
            return None
        m = len(rhs)
        level = [0.0 + b if s > 0 else -(0.0 + b) for s, b in zip(sign, rhs)]
        w = 0.0
        for b in level:
            w -= b
        level += (w, 0.0)
        basis = list(range(n, n + m))
        phase2 = False
        iters = 0
        while True:
            col, entries = self.steps[k]
            if col < 0:
                if phase2:
                    break
                if arith.is_pos(-level[m]):
                    return None  # infeasible: the cold run gives its Farkas prices
                for r, col, drive in entries:
                    _pivot_column(level, r, drive)
                    basis[r] = col
                phase2, iters = True, 0
                k = self.children[k, None]
                continue
            r = _leaving_row(arith, entries, level, basis)
            k = self.children.get((k, r))
            if k is None:
                return None
            _pivot_column(level, r, entries)
            basis[r] = col
            iters += 1
            if iters > MAX_ITERATIONS:
                return None
        x = [0.0] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = level[i]
        duals = tuple(s * (-v) for s, v in zip(sign, entries))
        return StandardResult(OPTIMAL, x=tuple(x), value=-level[m + 1], duals=duals)


def _leaving_row(arith: Arith, column, level, basis) -> Optional[int]:
    """Bland's leaving row: of the rows i whose entry column[i] in the
    entering column is positive, the one of least ratio level[i] /
    column[i], ties broken by the lower basis index; None when no entry
    is positive."""
    best = None
    for i in range(len(basis)):
        a = column[i]
        if arith.is_pos(a):
            ratio = level[i] / a
            order = -1 if best is None else arith._compare_ratios(ratio, best[0])
            if order < 0 or (order == 0 and basis[i] < basis[best[1]]):
                best = (ratio, i)
    return None if best is None else best[1]


def _bland_entering(obj, n: int, below) -> Optional[int]:
    """Bland's entering column: the first j < n with obj[j] < below."""
    for j in range(n):
        if obj[j] < below:
            return j
    return None


def _dantzig_entering(obj, n: int, below) -> Optional[int]:
    """Dantzig's entering column: the j < n of least obj[j], the lowest
    on ties, when obj[j] < below. min finds the least value in C and
    index its first place, which lies below n; none when n = 0."""
    low = min(obj[:n], default=below)
    return obj.index(low) if low < below else None


def _certify_basis(costs, rows, rhs, status, basis, entering):
    """Rebuild the guide's answer from its basis in exact arithmetic.

    The rows and rhs are scaled to integers by their least common
    denominator d, which leaves levels and rays unchanged and scales row
    prices by 1/d; column n + i is row i's artificial, sign-flipped with
    the row as in the tableau. Prices stay in integers: y / den comes
    from the elimination's numerators over |det B| (solve_numerators),
    and y . [A | b] is one combination of the scaled rows. At b = 0 an
    optimum's levels and value are zero, and the pricing alone proves B
    nonsingular. Returns None unless every condition of the reported
    status holds exactly."""
    n = len(costs)
    scaled, d = integer_rows([[*row, b] for row, b in zip(rows, rhs)])
    b = [ints[n] for ints in scaled]

    def column(j):
        if j < n:
            return [ints[j] for ints in scaled]
        return [(d if ints[n] >= 0 else -d) if i == j - n else 0
                for i, ints in enumerate(scaled)]

    basis_cols = [column(j) for j in basis]  # the rows of B^T

    def priced_rows(basic_costs):
        """(y . [A | b], y, den) for the prices y / den of the scaled rows
        (y integral, den > 0), or None when B is singular."""
        solved = solve_numerators(basis_cols, [basic_costs])
        if solved is None:
            return None
        (y,), den = solved
        total = [0] * (n + 1)
        for v, ints in zip(y, scaled):
            if v:
                total = [t + v * a for t, a in zip(total, ints)]
        return total, y, den

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

    zero = Fraction(0)
    x = [zero] * n
    at_zero = not any(b)
    # x_B = B^-1 0 = 0 for a nonsingular B, which the pricing below proves.
    if status != OPTIMAL or not at_zero:
        # One elimination gives the levels and, for a ray, the entering column's step.
        solved = solve_columns(list(zip(*basis_cols)),
                               [b, column(entering)] if status == UNBOUNDED else [b])
        level = solved and solved[0]
        # Artificials may stay basic on redundant rows, but only at level zero.
        if level is None or any(v < 0 or (j >= n and v != 0) for j, v in zip(basis, level)):
            return None
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
    value = zero if at_zero else sum((costs[j] * x[j] for j in basis if j < n), zero)
    return StandardResult(OPTIMAL, x=tuple(x), value=value, duals=tuple(
        Fraction(v * d, den * cost_den) for v in y))


def _bland(costs, rows, rhs, arith: Arith):
    """The two-phase simplex loop from a cold start, priced as the module
    docstring says: (result, final basis, entering column when unbounded)."""
    return _simplex(costs, rows, rhs, arith)


def _simplex(costs, rows, rhs, arith: Arith, start: Optional[tuple] = None,
             record: Optional[list] = None, runs: Optional[Runs] = None):
    """_bland, or, given start (_replay), the same run from where the
    replayed pivots leave the tableau; then only the lengths of costs and
    rows are read. A recording run (record_phase1) logs its pivots in
    record and stops after phase 1, returning its Phase1 or None. Given
    runs, a run that ends optimal is stored there (Runs.insert). Both
    log pivot records (_pivot_column)."""
    n = len(costs)
    m = len(rows)
    zero = Fraction(0) if arith.exact else 0.0
    one = zero + 1
    ncols = n + m
    # Flip rows so b >= 0; remember orientation for row-indexed outputs.
    sign = [(-1 if arith.is_neg(b) else 1) for b in rhs]
    if start is not None:
        tableau, w_row, z_row, basis, replayed = start
        runs = None  # its log would lack the replayed pivots
    else:
        replayed = 0
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

    # The objective rows a pivot updates, by their index in a pivot
    # record's entries: w's until phase 1's outcome is read, and z's.
    objectives = [(m, w_row), (m + 1, z_row)]
    log = [] if runs is not None else record

    def pivot(r, col):
        piv = tableau[r][col]
        if log is not None:
            entries = [zero] * (m + 2)
            for i, t in (*enumerate(tableau), *objectives):
                entries[i] = zero if arith.is_zero(t[col]) else t[col]
            log.append((r, col, array('d', entries)))
        tableau[r] = [v / piv for v in tableau[r]]
        prow = tableau[r]
        for i in range(m):
            if i != r:
                f = tableau[i][col]
                if not arith.is_zero(f):
                    tableau[i] = [v - f * w for v, w in zip(tableau[i], prow)]
        for _, obj in objectives:  # updated in place: the phases hold these lists
            f = obj[col]
            if not arith.is_zero(f):
                obj[:] = [v - f * w for v, w in zip(obj, prow)]
        basis[r] = col

    below = 0 if arith.exact else -arith.tol  # arith.is_neg(v) is v < below

    # Dantzig's rule can cycle; Bland's, after these pivots, terminates.
    dantzig_pivots = ncols if arith._dantzig and not arith.exact else 0

    def run_phase(obj, iters=0):
        while True:
            col = (_dantzig_entering if iters < dantzig_pivots else _bland_entering)(
                obj, n, below)
            if col is None:
                return OPTIMAL, iters
            r = _leaving_row(arith, [t[col] for t in tableau], [t[ncols] for t in tableau], basis)
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
    status, info = run_phase(w_row, replayed)
    if record is not None:
        # Every pivot must be one that a run with more columns takes too:
        # under Dantzig's rule, all of them within this run's Dantzig budget.
        if status != OPTIMAL or (dantzig_pivots and info > dantzig_pivots):
            return None
        return Phase1(tuple(record), tableau, w_row, z_row, basis, {})
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
    del objectives[0]  # nothing reads w_row from here on
    ends = [len(log or ())]  # of phase 1 and of the drive-out, in the log

    # Drive any leftover artificials out of the basis (degenerate pivots);
    # rows with no real pivot entry are redundant and stay inert.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if not arith.is_zero(tableau[r][j])), None)
            if col is not None:
                pivot(r, col)

    ends.append(len(log or ()))

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
    if runs is not None:
        runs.insert(tuple(sign), log, ends, z_row[n:ncols])
    return StandardResult(OPTIMAL, x=tuple(x), value=value, duals=duals), basis, None
