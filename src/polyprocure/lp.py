"""Linear programs and a self-contained dense two-phase simplex solver.

Everything is float64 and the pivoting rules are fixed (Dantzig entering
with lowest-index tie-breaks, leaving rows picked for pivot size among
minimal ratios, Bland's rule after a run of degenerate pivots), so a given
program solves to bit-identical results every time.  The tableau is rebuilt
from the original data at the phase boundary and the returned point and
duals are recomputed from the final basis, so rank-1 update drift never
reaches the caller.  Sized for desk-scale problems; no sparsity.
"""

import enum
from dataclasses import dataclass

import numpy as np


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class IterationLimitError(RuntimeError):
    """Pivot budget exhausted before reaching a verdict.

    Signals numerical trouble; deliberately not one of the three statuses.
    """


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
    # Duals for the original eq/le rows, populated on Optimal; sign convention:
    # c + a_eq' dual_eq + a_le' dual_le reduces to the bound multipliers.
    dual_eq: np.ndarray = None
    dual_le: np.ndarray = None


@dataclass
class FeasibilityResult:
    feasible: bool
    point: np.ndarray = None


class _Standard:
    """The program rewritten as min c.y, a y = b, y >= 0, with the bookkeeping
    needed to map points and row duals back to the original variables."""

    def __init__(self, lp):
        n = lp.n_vars
        lo, up = lp.lower, lp.upper

        # Column plan: shift finite-lower variables, mirror upper-only ones,
        # split free ones.  Doubly bounded variables get an extra <= row.
        plus = np.full(n, -1)
        minus = np.full(n, -1)
        offset = np.zeros(n)
        ub_rows = []  # (column index, width)
        ncol = 0
        for j in range(n):
            if np.isfinite(lo[j]):
                offset[j] = lo[j]
                plus[j] = ncol
                ncol += 1
                if np.isfinite(up[j]):
                    ub_rows.append((plus[j], up[j] - lo[j]))
            elif np.isfinite(up[j]):
                offset[j] = up[j]
                minus[j] = ncol
                ncol += 1
            else:
                plus[j] = ncol
                minus[j] = ncol + 1
                ncol += 2

        m_eq, m_le, m_ub = lp.b_eq.size, lp.b_le.size, len(ub_rows)
        m = m_eq + m_le + m_ub
        base = np.vstack([lp.a_eq, lp.a_le]) if m_eq + m_le else np.zeros((0, n))
        has_plus, has_minus = plus >= 0, minus >= 0
        self.plus, self.minus, self.offset = plus, minus, offset
        self.has_plus, self.has_minus = has_plus, has_minus
        a_x = np.zeros((m, ncol))
        a_x[:m_eq + m_le, plus[has_plus]] = base[:, has_plus]
        a_x[:m_eq + m_le, minus[has_minus]] = -base[:, has_minus]
        b = np.concatenate([lp.b_eq, lp.b_le, np.zeros(m_ub)])
        b[:m_eq + m_le] -= base @ offset
        for r, (col, width) in enumerate(ub_rows):
            a_x[m_eq + m_le + r, col] = 1.0
            b[m_eq + m_le + r] = width

        # Slack columns for every inequality row (le and ub alike).
        n_slack = m_le + m_ub
        slack_col = np.full(m, -1)
        slack_col[m_eq:] = ncol + np.arange(n_slack)
        a = np.hstack([a_x, np.zeros((m, n_slack))])
        a[np.arange(m_eq, m), slack_col[m_eq:]] = 1.0

        # Nonnegative rhs; remember the sign to restore duals later.
        sign = np.ones(m)
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0
        sign[neg] = -1.0

        c_std = np.zeros(ncol + n_slack)
        c_std[plus[has_plus]] += lp.c[has_plus]
        c_std[minus[has_minus]] -= lp.c[has_minus]

        self.a, self.b, self.c = a, b, c_std
        self.sign = sign
        self.slack_col = slack_col
        self.m_eq, self.m_le = m_eq, m_le

    def point_from(self, y):
        x = self.offset.copy()
        x[self.has_plus] += y[self.plus[self.has_plus]]
        x[self.has_minus] -= y[self.minus[self.has_minus]]
        return x


def _pivot(tab, b, basis, leave, enter):
    """Bring column `enter` into the basis at row `leave`, in place."""
    pivot = tab[leave, enter]
    tab[leave] /= pivot
    b[leave] /= pivot
    other = tab[:, enter].copy()
    other[leave] = 0.0
    row = tab[leave].copy()
    step = max(1, _UPDATE_BLOCK_BYTES // row.nbytes)
    for lo in range(0, tab.shape[0], step):
        tab[lo:lo + step] -= np.outer(other[lo:lo + step], row)
    b -= other * b[leave]
    tab[:, enter] = 0.0
    tab[leave, enter] = 1.0
    np.clip(b, 0.0, None, out=b)
    basis[leave] = enter


def _simplex(tab, b, c, basis, counter):
    """Run phase iterations on the current tableau in place.

    tab is B^-1 A for the full column set; b is B^-1 rhs; basis maps rows to
    column indices.  Returns "optimal" or "unbounded".  counter is a
    one-element iteration budget.
    """
    m = b.size
    bland = False
    degenerate = 0
    while True:
        if counter[0] >= MAX_ITERATIONS:
            raise IterationLimitError(f"simplex exceeded {MAX_ITERATIONS} pivots")
        counter[0] += 1

        z = c - c[basis] @ tab if m else c.astype(float)
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
        ratios[usable] = b[usable] / col[usable]
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

        _pivot(tab, b, basis, leave, enter)


class _PhaseOne:
    """Phase-1 state shared by solve_lp and check_feasible."""

    def __init__(self, std):
        a, b = std.a, std.b
        m, n = a.shape
        counter = [0]

        # Unflipped inequality rows start on their slack; everything else
        # gets an artificial column.
        art_rows = np.flatnonzero((std.slack_col < 0) | (std.sign < 0))
        n_art = art_rows.size
        tab = np.hstack([a, np.zeros((m, n_art))])
        basis = std.slack_col.copy()
        tab[art_rows, n + np.arange(n_art)] = 1.0
        basis[art_rows] = n + np.arange(n_art)
        rhs = b.copy()

        c1 = np.zeros(n + n_art)
        c1[n:] = 1.0
        status = _simplex(tab, rhs, c1, basis, counter)
        if status != "optimal":
            raise IterationLimitError("phase 1 lost boundedness: numerical failure")

        self.counter = counter
        self.tab, self.rhs, self.basis = tab, rhs, basis
        self.n_struct = n
        self.infeasible = float(c1[basis] @ rhs) > FEAS_TOL
        self.row_alive = np.ones(m, dtype=bool)

    def drive_out_artificials(self):
        n = self.n_struct
        for r in np.flatnonzero(self.basis >= n):
            row = self.tab[r, :n]
            enter = int(np.argmax(np.abs(row)))  # largest entry: stable pivot
            if abs(row[enter]) <= PIVOT_TOL:
                self.row_alive[r] = False  # redundant original row
                continue
            _pivot(self.tab, self.rhs, self.basis, r, enter)

    def structural_point(self):
        y = np.zeros(self.n_struct)
        live = self.row_alive
        struct = live & (self.basis < self.n_struct)
        y[self.basis[struct]] = self.rhs[struct]
        return y


def check_feasible(lp):
    """Phase-1 only: report a feasible point or Infeasible."""
    std = _Standard(lp)
    phase1 = _PhaseOne(std)
    if phase1.infeasible:
        return FeasibilityResult(False)
    return FeasibilityResult(True, std.point_from(phase1.structural_point()))


def _solve_or_lstsq(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def solve_lp(lp):
    """Classify the program and return an optimal basic solution if one exists."""
    std = _Standard(lp)
    phase1 = _PhaseOne(std)
    if phase1.infeasible:
        return LpSolution(LpStatus.INFEASIBLE)
    phase1.drive_out_artificials()

    alive = phase1.row_alive
    rows = np.flatnonzero(alive)
    basis = phase1.basis[alive]
    n, counter = phase1.n_struct, phase1.counter
    del phase1  # free the phase-1 tableau before phase 2 builds its own
    base = std.a[rows]
    # Fresh start for phase 2: rebuild the tableau from the original data so
    # drift accumulated during phase 1 cannot leak forward.  Artificial
    # columns are gone for good after the drive-out, so drop them here.
    if rows.size:
        ref = _solve_or_lstsq(base[:, basis],
                              np.column_stack([base, std.b[rows]]))
        tab, rhs = np.ascontiguousarray(ref[:, :-1]), ref[:, -1]
        np.clip(rhs, 0.0, None, out=rhs)
    else:
        tab, rhs = np.zeros((0, n)), np.zeros(0)
    status = _simplex(tab, rhs, std.c, basis, counter)
    if status == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED)

    # Read the answer off the final basis and the original data, not the
    # pivoted tableau, so the returned point satisfies the constraints to
    # factorization accuracy.
    y = np.zeros(n)
    duals = np.zeros(std.b.size)
    if rows.size:
        y[basis] = np.maximum(_solve_or_lstsq(base[:, basis], std.b[rows]), 0.0)
        duals[rows] = _solve_or_lstsq(base[:, basis].T, std.c[basis])
    x = std.point_from(y)
    objective = float(lp.c @ x)
    duals *= -std.sign  # undo the rhs sign flips; negate to the KKT convention
    dual_eq = duals[:std.m_eq]
    dual_le = duals[std.m_eq:std.m_eq + std.m_le]
    return LpSolution(LpStatus.OPTIMAL, x, objective, dual_eq, dual_le)
