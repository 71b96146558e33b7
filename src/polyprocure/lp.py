"""Linear programs and a self-contained dense two-phase simplex solver.

Everything is float64 and the pivoting rules are fixed (Dantzig entering
with lowest-index tie-breaks, leaving rows picked for pivot size among
minimal ratios, Bland's rule after a run of degenerate pivots), so a given
program solves to bit-identical results at a fixed BLAS thread count (the
thread count changes the order in which BLAS sums: one oracle LP gives
0.7710790796855151 on one thread, ...154 on two).  Both phases pivot one
dense array in place: phase 1 the standard form laid out as
[A | artificials | b], phase 2 the same tableau without its artificial
columns and redundant rows.  check_feasible reads its point off the
pivoted phase-1 tableau.  solve_lp_costs solves one program under several
objectives with one phase 1, and one rule for every objective: phase 2
carries on from the tableau it inherits, and an optimal basis is returned
only once it is certified primal feasible and optimal from the original
data, whose x_B is then the returned point, so rank-1 update drift never
reaches the caller.  The certificate eliminates the basic single-entry
columns (the slacks, mostly) exactly and solves only the block of the
other basic columns, still on the original rows.  A basis that fails the
certificate, or a carried tableau that says unbounded, gets one rebuild
from the original data at the phase-1 basis; a rebuilt basis that fails
too raises NumericalError.  solve_lp is the one-objective case.  The
arrays are dense, but the work follows the sparsity of the LPs' block
structure: a pivot touches only the nonzero rows and columns of its
update, and pricing reads only the basic rows that carry cost.
"""

import enum
from dataclasses import dataclass

import numpy as np


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class NumericalError(RuntimeError):
    """The solver reached no trustworthy verdict; deliberately not one of the
    three statuses."""


class IterationLimitError(NumericalError):
    """Pivot budget exhausted before reaching a verdict."""


FEAS_TOL = 1e-9  # feasibility and optimality tolerance
PIVOT_TOL = 1e-10  # smallest usable pivot entry
MAX_ITERATIONS = 100_000  # pivot budget of one solve, both phases together
# Bland's rule takes over after this many consecutive degenerate pivots.
_DEGENERATE_PIVOT_LIMIT = 1000
# A pivot updates the tableau in row blocks of about this many bytes, so it
# allocates no temporary the size of the tableau.
_UPDATE_BLOCK_BYTES = 1 << 20


def _as_rows(a, b, n, label):
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValueError(f"{label}: matrix {a.shape} does not match rhs {b.size} / {n} columns")
    return a, b


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c.x  subject to  a_eq x = b_eq,  a_le x <= b_le,  lower <= x <= upper.

    Bounds default to free variables; use -inf/+inf entries for one-sided
    bounds.  All arrays are normalized to float64 at construction and the
    instance should be treated as immutable afterwards (safe to share
    across threads).
    """

    c: np.ndarray
    a_eq: np.ndarray = None
    b_eq: np.ndarray = None
    a_le: np.ndarray = None
    b_le: np.ndarray = None
    lower: np.ndarray = None
    upper: np.ndarray = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.size
        a_eq, b_eq = _as_rows(self.a_eq, self.b_eq, n, "eq rows")
        a_le, b_le = _as_rows(self.a_le, self.b_le, n, "le rows")
        lower = np.full(n, -np.inf) if self.lower is None else \
            np.broadcast_to(np.asarray(self.lower, dtype=float), (n,)).copy()
        upper = np.full(n, np.inf) if self.upper is None else \
            np.broadcast_to(np.asarray(self.upper, dtype=float), (n,)).copy()
        for arr in (c, a_eq, b_eq, a_le, b_le):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coefficients must be finite")
        if np.any(lower > upper):
            raise ValueError("every lower bound must be <= its upper bound")
        for name, val in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_le", a_le),
                          ("b_le", b_le), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, val)

    @property
    def n_vars(self):
        return self.c.size


@dataclass
class LpSolution:
    status: LpStatus
    point: np.ndarray = None
    objective_value: float = None


@dataclass
class FeasibilityResult:
    feasible: bool
    point: np.ndarray = None


class _Standard:
    """The program rewritten as min c.y, a y = b, y >= 0 with b >= 0, built
    directly as the phase-1 tableau [a | artificials | b], with the
    bookkeeping needed to map points back to the original variables.

    In the starting basis, equality rows and rows whose rhs was negated sit
    on an artificial column; the other inequality rows sit on their slack.
    """

    def __init__(self, lp):
        n = lp.n_vars
        lo, up = lp.lower, lp.upper

        # Column plan: shift finite-lower variables, mirror upper-only ones,
        # split free ones.  Doubly bounded variables get an extra <= row.
        # Columns are numbered in variable order, two for a free variable.
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)
        upper_only = has_up & ~has_lo
        free = ~(has_lo | has_up)
        widths = 1 + free
        first = np.cumsum(widths) - widths
        ncol = int(widths.sum())
        plus = np.where(upper_only, -1, first)
        minus = np.where(upper_only, first, np.where(free, first + 1, -1))
        offset = np.where(has_lo, lo, np.where(has_up, up, 0.0))
        boxed = has_lo & has_up
        ub_cols = plus[boxed]
        ub_widths = up[boxed] - lo[boxed]

        m_eq, m_orig = lp.b_eq.size, lp.b_eq.size + lp.b_le.size
        m = m_orig + ub_cols.size
        base = np.vstack([lp.a_eq, lp.a_le]) if m_orig else np.zeros((0, n))
        b = np.concatenate([lp.b_eq, lp.b_le, ub_widths])
        b[:m_orig] -= base @ offset
        neg = b < 0
        art_rows = np.flatnonzero((np.arange(m) < m_eq) | neg)
        # Every inequality row (le and ub alike) gets a slack column.
        slack_cols = ncol + np.arange(m - m_eq)
        self.n_struct = ncol + slack_cols.size

        has_plus, has_minus = plus >= 0, minus >= 0
        self.plus, self.minus, self.offset = plus, minus, offset
        self.has_plus, self.has_minus = has_plus, has_minus
        tab = np.zeros((m, self.n_struct + art_rows.size + 1))
        tab[:m_orig, plus[has_plus]] = base[:, has_plus]
        tab[:m_orig, minus[has_minus]] = -base[:, has_minus]
        tab[np.arange(m_orig, m), ub_cols] = 1.0
        tab[np.arange(m_eq, m), slack_cols] = 1.0
        tab[:, -1] = b
        np.negative(tab, out=tab, where=neg[:, None])  # nonnegative rhs
        self.basis = np.concatenate([np.full(m_eq, -1), slack_cols])
        self.basis[art_rows] = self.n_struct + np.arange(art_rows.size)
        tab[art_rows, self.basis[art_rows]] = 1.0

        self.tab = tab

    def costs(self, c):
        """Objective c of the original variables, on the structural columns."""
        c_std = np.zeros(self.n_struct)
        c_std[self.plus[self.has_plus]] += c[self.has_plus]
        c_std[self.minus[self.has_minus]] -= c[self.has_minus]
        return c_std

    def point_from(self, y):
        x = self.offset.copy()
        x[self.has_plus] += y[self.plus[self.has_plus]]
        x[self.has_minus] -= y[self.minus[self.has_minus]]
        return x


def _pivot(tab, basis, leave, enter):
    """Bring column `enter` into the basis at row `leave`, in place.

    The update touches only the rows with a nonzero entry in column `enter`
    and the columns with a nonzero entry in row `leave`: every other entry
    would change by 0 * y.  Column `enter` comes out as an exact unit vector,
    since p / p = 1 and x - x * 1 = 0.  The last column of tab is the rhs; it
    is updated with the row and kept nonnegative.
    """
    tab[leave] /= tab[leave, enter]
    touched = tab[:, enter].nonzero()[0]
    rows = touched[touched != leave]
    cols = tab[leave].nonzero()[0]
    row = tab[leave, cols]
    step = max(1, _UPDATE_BLOCK_BYTES // row.nbytes)
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step, None]
        tab[block, cols] -= tab[block, enter] * row
    rhs = tab[:, -1]
    rhs[touched] = np.maximum(rhs[touched], 0.0)
    basis[leave] = enter


def _simplex(tab, c, basis, counter):
    """Run phase iterations on the current tableau in place.

    tab is [B^-1 A | B^-1 rhs] for the full column set; c prices every column
    but the rhs; basis maps rows to column indices.  Reduced costs read only
    the rows whose basic variable has a nonzero cost: the artificials still
    basic in phase 1, the priced columns in phase 2.  Returns "optimal" or
    "unbounded".  counter is a one-element iteration budget.
    """
    m = tab.shape[0]
    rhs = tab[:, -1]
    bland = False
    degenerate = 0
    while True:
        if counter[0] >= MAX_ITERATIONS:
            raise IterationLimitError(f"simplex exceeded {MAX_ITERATIONS} pivots")
        counter[0] += 1

        cb = c[basis]
        priced = cb.nonzero()[0]
        z = c - cb[priced] @ tab[priced, :-1]
        if bland:
            improving = np.flatnonzero(z < -FEAS_TOL)
            if improving.size == 0:
                return "optimal"
            enter = improving[0]
        else:
            enter = int(np.argmin(z))
            if z[enter] >= -FEAS_TOL:
                return "optimal"

        col = tab[:, enter]
        usable = col > PIVOT_TOL
        if not np.any(usable):
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[usable] = rhs[usable] / col[usable]
        best = ratios.min()
        tied = np.flatnonzero(ratios <= best + FEAS_TOL)
        if bland:
            leave = tied[np.argmin(basis[tied])]  # lowest variable index wins
        else:
            # A pivot barely above PIVOT_TOL is rounding noise; dividing its
            # row by it wrecks the tableau.  Keep only comparably large
            # entries, then take the lowest variable index for determinism.
            entries = col[tied]
            strong = tied[entries >= 0.5 * entries.max()]
            leave = strong[np.argmin(basis[strong])]

        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate >= _DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0

        _pivot(tab, basis, leave, enter)


class _PhaseOne:
    """Phase 1, run in place on the standard form's tableau; shared by
    solve_lp and check_feasible."""

    def __init__(self, std):
        tab, basis, n = std.tab, std.basis, std.n_struct
        counter = [0]
        c1 = np.zeros(tab.shape[1] - 1)
        c1[n:] = 1.0
        status = _simplex(tab, c1, basis, counter)
        if status != "optimal":
            raise NumericalError("phase 1 lost boundedness")

        self.counter = counter
        self.tab, self.basis = tab, basis
        self.n_struct = n
        self.infeasible = float(c1[basis] @ tab[:, -1]) > FEAS_TOL
        self.row_alive = np.ones(tab.shape[0], dtype=bool)

    def drive_out_artificials(self):
        n = self.n_struct
        for r in np.flatnonzero(self.basis >= n):
            row = self.tab[r, :n]
            enter = int(np.argmax(np.abs(row)))  # largest entry: stable pivot
            if abs(row[enter]) <= PIVOT_TOL:
                self.row_alive[r] = False  # redundant original row
                continue
            _pivot(self.tab, self.basis, r, enter)

    def structural_point(self):
        y = np.zeros(self.n_struct)
        struct = self.row_alive & (self.basis < self.n_struct)
        y[self.basis[struct]] = self.tab[struct, -1]
        return y


def check_feasible(lp):
    """Phase-1 only: report a feasible point or Infeasible."""
    std = _Standard(lp)
    phase1 = _PhaseOne(std)
    if phase1.infeasible:
        return FeasibilityResult(False)
    return FeasibilityResult(True, std.point_from(phase1.structural_point()))


def _unit_rows(original):
    """For each column of the original rows [a | b] but the rhs, the row of
    its one nonzero entry, or -1 if it has none or several."""
    rows, cols = original[:, :-1].nonzero()
    count = np.bincount(cols, minlength=original.shape[1] - 1)
    unit = count[cols] == 1
    where = np.full(count.size, -1)
    where[cols[unit]] = rows[unit]
    return where


def _certified(original, basis, c, unit_rows):
    """x_B of basis, solved from the original rows [a | b], when the basis is
    primal feasible and optimal for c there; None otherwise.

    Most basic columns of an optimum are slacks: columns with one nonzero
    entry d, in the row that unit_rows gives (see _unit_rows).  Their rows S
    are eliminated exactly, so only the block K = original[R, rest] of the
    other rows R and the other basic columns is solved:
    K x_rest = b_R and K^T y_R = c_rest - cross^T y_S, with
    cross = original[S, rest], y_S = c_S / d and x_S = (b_S - cross x_rest) / d.
    Two basic single-entry columns on one row make the basis singular.
    """
    rows = unit_rows[basis]
    unit = rows >= 0
    s_rows, s_cols, rest = rows[unit], basis[unit], basis[~unit]
    in_s = np.zeros(original.shape[0], dtype=bool)
    in_s[s_rows] = True
    if np.count_nonzero(in_s) < s_rows.size:
        return None
    r_rows = np.flatnonzero(~in_s)
    d = original[s_rows, s_cols]
    cross = original[np.ix_(s_rows, rest)]
    y = np.empty(original.shape[0])
    y[s_rows] = c[s_cols] / d
    k = original[np.ix_(r_rows, rest)]
    try:
        x_rest = np.linalg.solve(k, original[r_rows, -1])
        y[r_rows] = np.linalg.solve(k.T, c[rest] - y[s_rows] @ cross)
    except np.linalg.LinAlgError:
        return None
    x_b = np.empty(basis.size)
    x_b[unit] = (original[s_rows, -1] - cross @ x_rest) / d
    x_b[~unit] = x_rest
    reduced = c - y @ original[:, :-1]
    if x_b.min(initial=0.0) < -FEAS_TOL or reduced.min(initial=0.0) < -FEAS_TOL:
        return None
    return x_b


def solve_lp_costs(lp, costs):
    """Solve lp under each objective in costs, in order: one LpSolution each.

    The rows do not change, so the standard form and phase 1 are built once.
    Every objective's phase 2 carries on from the tableau it inherits: the
    first from phase 1's, each later one from the previous objective's,
    whose basis stays primal feasible.  Every OPTIMAL result is certified
    from the original data (x_B >= 0 and reduced costs >= 0, both to
    FEAS_TOL), and that x_B is the returned point.  If the certificate
    fails, or the carried tableau reports unbounded, the objective is solved
    once more on a tableau rebuilt from the original data at the phase-1
    basis; if that result fails its certificate too, NumericalError is
    raised.  Every objective gets the pivot budget that solve_lp would give
    it alone.
    """
    costs = [np.asarray(c, dtype=float) for c in costs]
    for c in costs:
        if c.shape != lp.c.shape or not np.all(np.isfinite(c)):
            raise ValueError(f"each objective needs {lp.n_vars} finite coefficients")
    std = _Standard(lp)
    original = std.tab[:, np.r_[:std.n_struct, -1]]  # [a | b], before phase 1 pivots it
    phase1 = _PhaseOne(std)
    if phase1.infeasible:
        return [LpSolution(LpStatus.INFEASIBLE) for _ in costs]
    phase1.drive_out_artificials()

    # Phase 2 pivots phase 1's tableau on.  Artificial columns are gone for
    # good after the drive-out, so the rhs moves into the first of them and
    # the rest are sliced off without a copy.  Redundant rows go too.
    tab, basis, keep, n = phase1.tab, phase1.basis, phase1.row_alive, std.n_struct
    start, spent = basis[keep], phase1.counter[0]
    del phase1, std.tab  # from here on only tab holds the phase-1 tableau
    tab[:, n] = tab[:, -1]
    tab = tab[:, :n + 1]
    if not keep.all():
        tab, basis, original = tab[keep], basis[keep], original[keep]
    unit_rows = _unit_rows(original)
    solutions = []
    for c in costs:
        c_std = std.costs(c)
        x_b = None
        if _simplex(tab, c_std, basis, [spent]) == "optimal":
            x_b = _certified(original, basis, c_std, unit_rows)
        if x_b is None:
            # Rebuild the tableau from the original data, dropping the
            # carried one first, so its drift cannot leak forward.
            tab, basis = None, start.copy()
            try:
                tab = np.linalg.solve(original[:, basis], original)
            except np.linalg.LinAlgError:
                raise NumericalError("phase-1 basis is singular on the original rows") from None
            np.clip(tab[:, -1], 0.0, None, out=tab[:, -1])
            if _simplex(tab, c_std, basis, [spent]) == "unbounded":
                solutions.append(LpSolution(LpStatus.UNBOUNDED))
                continue
            x_b = _certified(original, basis, c_std, unit_rows)
            if x_b is None:
                raise NumericalError("optimal basis failed its certificate after a rebuild")
        y = np.zeros(std.n_struct)
        y[basis] = np.maximum(x_b, 0.0)
        x = std.point_from(y)
        solutions.append(LpSolution(LpStatus.OPTIMAL, x, float(c @ x)))
    return solutions


def solve_lp(lp):
    """Classify the program and return an optimal basic solution if one exists."""
    return solve_lp_costs(lp, [lp.c])[0]
