"""Linear programs and a self-contained dense two-phase simplex solver.

Everything is float64 and the pivoting rules are fixed (Dantzig entering
with ties to the lowest variable id, leaving rows picked for pivot size
among minimal ratios, Bland's rule after a run of degenerate pivots), so a
given program solves to bit-identical results at a fixed BLAS thread count
(the thread count changes the order in which BLAS sums: one oracle LP gives
0.7710790796855151 on one thread, ...154 on two).  Both phases pivot one
condensed tableau [N | b] in place (Tucker's tableau: Ferris, Mangasarian
& Wright, Linear Programming with MATLAB, 2007, ch. 2).  It stores only the
nonbasic columns, each named by its variable id, and the rhs; a basic
column is a unit vector and is not stored, so the slacks that start basic
and the artificials have no column until they leave the basis.  A pivot is
a Jordan exchange: the leaving variable takes the entering one's slot.
Every answer is an LpSolution, and one phase-1 routine serves both entry
points.  check_feasible gives the answer of the zero objective, its point
read off the pivoted phase-1 tableau.  solve_lp_costs solves one program
under several objectives with one phase 1, and one rule for every
objective: phase 2 carries on from the tableau it inherits (phase 1's,
without its artificial slots and redundant rows, for the first), and an
optimal basis is returned only once it is certified primal feasible and
optimal from the original rows, whose x_B is then the returned point, so
rank-1 update drift never reaches the caller.
The certificate eliminates the basic single-entry columns (the slacks,
mostly) exactly and solves only the block of the other basic columns.  A
basis that fails the certificate, or a carried tableau that says
unbounded, gets one rebuild from the original rows at the phase-1 basis,
solved for the nonbasic columns and b only; a rebuilt basis that fails too
raises NumericalError.  solve_lp is the one-objective case.  The arrays
are dense, but the work follows the sparsity of the LPs' block structure:
a pivot touches only the nonzero rows and columns of its update, and
pricing reads only the basic rows that carry cost.
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


class _Standard:
    """The program rewritten as min c.y, a y = b, y >= 0 with b >= 0, built
    directly as the condensed phase-1 tableau [N | b], with the bookkeeping
    needed to map points back to the original variables.

    Variable ids: the columns of the original variables come first (two for
    a free one), then a slack per inequality row (the slack of row i is
    n_cols + i - m_eq), then the artificials.  In the starting basis,
    equality rows and rows whose rhs was negated sit on an artificial; the
    other inequality rows sit on their slack.  Those basic columns are unit
    vectors and get no slot: tab holds only the nonbasic columns, the
    variable columns and the slacks of the negated rows, and ids names the
    variable in each slot.
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
        neg_slacks = np.flatnonzero(neg[m_eq:])  # inequality rows, from m_eq on
        # Every inequality row (le and ub alike) has a slack.
        self.n_cols, self.m_eq = ncol, m_eq
        self.n_struct = ncol + m - m_eq
        self.n_art = art_rows.size

        has_plus, has_minus = plus >= 0, minus >= 0
        self.plus, self.minus, self.offset = plus, minus, offset
        self.has_plus, self.has_minus = has_plus, has_minus
        self.ids = np.concatenate([np.arange(ncol), ncol + neg_slacks])
        tab = np.zeros((m, self.ids.size + 1))
        sign = np.ones(ncol)
        sign[minus[has_minus]] = -1.0
        split = base if ncol == n else base[:, np.repeat(np.arange(n), widths)]
        np.multiply(split, sign, out=tab[:m_orig, :ncol])
        tab[np.arange(m_orig, m), ub_cols] = 1.0
        tab[m_eq + neg_slacks, ncol + np.arange(neg_slacks.size)] = 1.0
        tab[:, -1] = b
        np.negative(tab, out=tab, where=neg[:, None])  # nonnegative rhs
        self.basis = np.concatenate([np.full(m_eq, -1), ncol + np.arange(m - m_eq)])
        self.basis[art_rows] = self.n_struct + np.arange(art_rows.size)

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


def _pivot(tab, basis, ids, leave, slot):
    """Exchange the nonbasic variable in column `slot` with the basic variable
    of row `leave`, in place: a Jordan exchange on the condensed tableau.

    tab is [N | b]: a column for each nonbasic variable, named by ids, then
    the rhs; the basic columns are unit vectors and are not stored.  The
    leaving variable takes the entering one's slot.  With p the pivot entry
    and t the slot's entries in the other rows, its column comes out as 1/p
    in row `leave` and 0 - t * (1/p) elsewhere, the arithmetic of a full
    tableau on the leaving unit column.  The update touches only the rows
    with a nonzero entry in the slot and the columns with a nonzero entry in
    row `leave`: every other entry would change by 0 * y.  The rhs is
    updated with the row and kept nonnegative.
    """
    p = tab[leave, slot]
    tab[leave] /= p
    touched = tab[:, slot].nonzero()[0]
    rows = touched[touched != leave]
    t = tab[rows, slot]
    tab[rows, slot] = 0.0
    tab[leave, slot] = 1.0 / p
    cols = tab[leave].nonzero()[0]
    row = tab[leave, cols]
    step = max(1, _UPDATE_BLOCK_BYTES // row.nbytes)
    for lo in range(0, rows.size, step):
        tab[rows[lo:lo + step, None], cols] -= t[lo:lo + step, None] * row
    rhs = tab[:, -1]
    rhs[touched] = np.maximum(rhs[touched], 0.0)
    basis[leave], ids[slot] = ids[slot], basis[leave]


def _simplex(tab, c, basis, ids, counter):
    """Run phase iterations on the condensed tableau in place.

    tab is [B^-1 N | B^-1 rhs] for the nonbasic columns that ids names; c
    prices every variable id; basis maps rows to variable ids.  Reduced
    costs c[ids] - c_B B^-1 N read only the rows whose basic variable has a
    nonzero cost: the artificials still basic in phase 1, the priced columns
    in phase 2.  Ties in the entering choice, Dantzig's and Bland's alike,
    go to the lowest variable id, whatever its slot.  Returns "optimal" or
    "unbounded".  counter is a one-element iteration budget.
    """
    if not ids.size:
        return "optimal"  # no nonbasic column, so nothing can improve
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
        z = c[ids] - cb[priced] @ tab[priced, :-1]
        if bland:
            improving = (z < -FEAS_TOL).nonzero()[0]
            if improving.size == 0:
                return "optimal"
            enter = improving[ids[improving].argmin()]
        else:
            enter = z.argmin()
            if z[enter] >= -FEAS_TOL:
                return "optimal"
            tied = (z == z[enter]).nonzero()[0]
            if tied.size > 1:
                enter = tied[ids[tied].argmin()]

        col = tab[:, enter]
        usable = col > PIVOT_TOL
        if not usable.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[usable] = rhs[usable] / col[usable]
        best = ratios.min()
        tied = (ratios <= best + FEAS_TOL).nonzero()[0]
        if bland:
            leave = tied[basis[tied].argmin()]  # lowest variable index wins
        else:
            # A pivot barely above PIVOT_TOL is rounding noise; dividing its
            # row by it wrecks the tableau.  Keep only comparably large
            # entries, then take the lowest variable index for determinism.
            entries = col[tied]
            strong = tied[entries >= 0.5 * entries.max()]
            leave = strong[basis[strong].argmin()]

        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate >= _DEGENERATE_PIVOT_LIMIT:
                bland = True
        else:
            degenerate = 0

        _pivot(tab, basis, ids, leave, enter)


def _phase_one(std):
    """Phase 1, in place on the standard form's tableau; shared by
    check_feasible and solve_lp_costs.  An artificial that left the basis
    keeps its slot and may enter again.  Returns the pivot budget spent
    and whether the program is infeasible."""
    n = std.n_struct
    counter = [0]
    c1 = np.zeros(n + std.n_art)
    c1[n:] = 1.0
    if _simplex(std.tab, c1, std.basis, std.ids, counter) != "optimal":
        raise NumericalError("phase 1 lost boundedness")
    return counter[0], float(c1[std.basis] @ std.tab[:, -1]) > FEAS_TOL


def _drive_out(tab, basis, ids, n):
    """Pivot each artificial still basic after phase 1 out for the
    structural slot with the largest |entry| in its row, ties to the lowest
    id.  Returns the mask of rows kept: a row with no usable entry is a
    redundant original row."""
    keep = np.ones(tab.shape[0], dtype=bool)
    for r in (basis >= n).nonzero()[0]:
        slots = (ids < n).nonzero()[0]
        size = np.abs(tab[r, slots])
        largest = size.max(initial=0.0)  # largest entry: stable pivot
        if largest <= PIVOT_TOL:
            keep[r] = False
            continue
        tied = slots[size == largest]
        _pivot(tab, basis, ids, r, tied[ids[tied].argmin()])
    return keep


def check_feasible(lp):
    """Phase 1 only: the answer of the zero objective, OPTIMAL at a feasible
    point read off the phase-1 tableau, or INFEASIBLE."""
    std = _Standard(lp)
    if _phase_one(std)[1]:
        return LpSolution(LpStatus.INFEASIBLE)
    struct = std.basis < std.n_struct
    y = np.zeros(std.n_struct)
    y[std.basis[struct]] = std.tab[struct, -1]
    return LpSolution(LpStatus.OPTIMAL, std.point_from(y), 0.0)


def _unit_rows(rows):
    """For each column of [a | b] but the rhs, the row of its one nonzero
    entry, or -1 if it has none or several."""
    nz = rows[:, :-1] != 0
    if not nz.shape[0]:
        return np.full(nz.shape[1], -1)  # argmax of an empty axis raises
    return np.where(nz.sum(0) == 1, nz.argmax(0), -1)


class _Original:
    """The original rows of the standard form, after phase 1 dropped the
    redundant ones, and where each structural variable's column lives.

    rows is [a | b] on the explicit columns, those with a slot in the
    starting tableau, in the order of explicit (their ids).  Every other
    structural variable is the slack of an inequality row: an implicit unit
    column.  Per variable id, col is its column of rows or -1 if implicit;
    unit_row is the row of its one nonzero entry, or -1 if it has none or
    several; unit_val is that entry.  The slack of a dropped row has no
    nonzero entry left.
    """

    def __init__(self, rows, explicit, std, keep):
        n = std.n_struct
        self.rows, self.explicit = rows, explicit
        self.col = np.full(n, -1)
        self.col[explicit] = np.arange(explicit.size)
        self.unit_row = np.full(n, -1)
        self.unit_val = np.ones(n)
        where = _unit_rows(rows)
        single = np.flatnonzero(where >= 0)
        self.unit_row[explicit] = where
        self.unit_val[explicit[single]] = rows[where[single], single]
        renumber = np.where(keep, np.cumsum(keep) - 1, -1)
        implicit = np.flatnonzero(self.col < 0)
        self.unit_row[implicit] = renumber[implicit - std.n_cols + std.m_eq]
        self.implicit = implicit[self.unit_row[implicit] >= 0]
        self.slack_rows = self.unit_row[self.implicit]

    def columns(self, ids):
        """The dense original columns of the variables ids."""
        out = np.zeros((self.rows.shape[0], ids.size))
        col = self.col[ids]
        explicit = col >= 0
        out[:, explicit] = self.rows[:, col[explicit]]
        unit = np.flatnonzero(~explicit & (self.unit_row[ids] >= 0))
        out[self.unit_row[ids[unit]], unit] = 1.0
        return out


def _certified(original, basis, c):
    """x_B of basis, solved from the original rows (an _Original), when the
    basis is primal feasible and optimal for c there; None otherwise.

    Most basic columns of an optimum are slacks: columns with one nonzero
    entry d, in row unit_row.  Their rows S are eliminated exactly, so only
    the block K = a[R, rest] of the other rows R and the other basic columns
    is solved: K x_rest = b_R and K^T y_R = c_rest - cross^T y_S, with
    cross = a[S, rest], y_S = c_S / d and x_S = (b_S - cross x_rest) / d.
    Two basic single-entry columns on one row, or a basic slack whose row
    was dropped, make the basis singular.  The reduced costs are
    c - y^T a on the explicit columns and c - y[row] on the implicit slacks.
    """
    a = original.rows
    rows = original.unit_row[basis]
    unit = rows >= 0
    s_rows, s_ids, rest_ids = rows[unit], basis[unit], basis[~unit]
    rest = original.col[rest_ids]
    in_s = np.zeros(a.shape[0], dtype=bool)
    in_s[s_rows] = True
    if np.count_nonzero(in_s) < s_rows.size or rest.min(initial=0) < 0:
        return None
    r_rows = np.flatnonzero(~in_s)
    d = original.unit_val[s_ids]
    cross = a[np.ix_(s_rows, rest)]
    y = np.empty(a.shape[0])
    y[s_rows] = c[s_ids] / d
    k = a[np.ix_(r_rows, rest)]
    try:
        x_rest = np.linalg.solve(k, a[r_rows, -1])
        y[r_rows] = np.linalg.solve(k.T, c[rest_ids] - y[s_rows] @ cross)
    except np.linalg.LinAlgError:
        return None
    x_b = np.empty(basis.size)
    x_b[unit] = (a[s_rows, -1] - cross @ x_rest) / d
    x_b[~unit] = x_rest
    reduced = min((c[original.explicit] - y @ a[:, :-1]).min(initial=0.0),
                  (c[original.implicit] - y[original.slack_rows]).min(initial=0.0))
    if x_b.min(initial=0.0) < -FEAS_TOL or reduced < -FEAS_TOL:
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
    rows, explicit = std.tab.copy(), std.ids.copy()  # before phase 1 pivots them
    spent, infeasible = _phase_one(std)
    if infeasible:
        return [LpSolution(LpStatus.INFEASIBLE) for _ in costs]

    # Phase 2 pivots phase 1's tableau on without the artificial slots: the
    # last structural slots fill the artificial ones among the first k, the
    # rhs follows them, and the rest is sliced off without a copy.
    # Redundant rows go too.
    tab, basis, ids, n = std.tab, std.basis, std.ids, std.n_struct
    keep = _drive_out(tab, basis, ids, n)
    start = basis[keep]
    del std.tab  # from here on only tab holds the phase-1 tableau
    struct = (ids < n).nonzero()[0]
    k = struct.size
    holes = (ids[:k] >= n).nonzero()[0]
    if holes.size:
        fill = struct[k - holes.size:]
        tab[:, holes] = tab[:, fill]
        ids[holes] = ids[fill]
    tab[:, k] = tab[:, -1]
    tab, ids = tab[:, :k + 1], ids[:k]
    if not keep.all():
        tab, basis, rows = tab[keep], basis[keep], rows[keep]
    original = _Original(rows, explicit, std, keep)
    solutions = []
    for c in costs:
        c_std = std.costs(c)
        x_b = None
        if _simplex(tab, c_std, basis, ids, [spent]) == "optimal":
            x_b = _certified(original, basis, c_std)
        if x_b is None:
            # Rebuild the tableau from the original data, dropping the
            # carried one first, so its drift cannot leak forward.  Only the
            # nonbasic columns and the rhs are solved for.
            tab, basis = None, start.copy()
            nonbasic = np.ones(n, dtype=bool)
            nonbasic[basis] = False
            ids = np.flatnonzero(nonbasic)
            try:
                tab = np.linalg.solve(original.columns(basis),
                                      np.column_stack([original.columns(ids), rows[:, -1]]))
            except np.linalg.LinAlgError:
                raise NumericalError("phase-1 basis is singular on the original rows") from None
            np.clip(tab[:, -1], 0.0, None, out=tab[:, -1])
            if _simplex(tab, c_std, basis, ids, [spent]) == "unbounded":
                solutions.append(LpSolution(LpStatus.UNBOUNDED))
                continue
            x_b = _certified(original, basis, c_std)
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
