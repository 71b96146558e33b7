"""Resource and demand set geometry.

Unit resource sets live in H-representation, optionally lifted with
auxiliary coordinates (batch workloads carry their per-job schedules as
aux columns).  Demand sets live in V-representation.  Everything here is
immutable and pure.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpStatus, check_feasible, solve_lp_costs

# Coordinate distance under which two vertices count as the same point.
VERTEX_DEDUP_TOL = 1e-7

# Guard for exact vertex enumeration; beyond this the row-subset count explodes.
MAX_ENUMERATION_DIM = 8

# Row subsets that vertex enumeration solves per stacked solve.
ENUMERATION_BLOCK = 2048


def _require_finite(**fields):
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class HPolytope:
    """x is a member iff some aux vector w satisfies a @ [x; w] <= b.

    The first `horizon` columns of `a` are output (per-period) coordinates;
    the trailing `n_aux` columns are lifted coordinates.  `aux_periods`
    optionally names, per aux column, the period whose information decides
    it (used by causal feasibility checks); None marks an unattributed
    column.  Boundedness in the output coordinates is an invariant the
    builders guarantee; `is_bounded` verifies it for untrusted input.
    """

    a: np.ndarray
    b: np.ndarray
    horizon: int
    n_aux: int = 0
    aux_periods: tuple = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.horizon < 1 or self.n_aux < 0:
            raise ValueError("horizon must be >= 1 and n_aux >= 0")
        if a.shape != (b.size, self.horizon + self.n_aux):
            raise ValueError(f"constraint matrix {a.shape} does not match "
                             f"{b.size} rows x {self.horizon}+{self.n_aux} columns")
        _require_finite(a=a, b=b)
        periods = self.aux_periods
        if periods is not None:
            try:
                periods = tuple(periods)
            except TypeError:
                raise ValueError("aux_periods must be a list") from None
            if len(periods) != self.n_aux:
                raise ValueError("aux_periods must have one entry per aux column")
            for p in periods:
                if p is not None and (isinstance(p, bool) or not (
                        isinstance(p, (int, np.integer)) and 1 <= p <= self.horizon)):
                    raise ValueError(f"aux period {p!r} is not an integer in "
                                     f"1..{self.horizon}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "aux_periods", periods)

    @property
    def n_rows(self):
        return self.b.size


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex hull of a finite point list; redundant points are permitted."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if v.size == 0:
            raise ValueError("a V-polytope needs at least one point")
        _require_finite(vertices=v)
        object.__setattr__(self, "vertices", v)

    @property
    def horizon(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return self.vertices.shape[0]


@dataclass(frozen=True)
class BatterySpec:
    """Energy capacity, symmetric power rate, initial state of charge."""

    capacity: float
    rate: float
    soc: float = 0.0
    horizon: int = 1

    def __post_init__(self):
        _require_finite(capacity=self.capacity, rate=self.rate, soc=self.soc)
        if self.capacity <= 0 or self.rate <= 0:
            raise ValueError("capacity and rate must be positive")
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError("initial state of charge must lie in [0, 1]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class BatchJob:
    """A deferrable workload: `work` unit-hours due within [arrival, deadline]."""

    arrival: int
    deadline: int
    work: float

    def __post_init__(self):
        if not 1 <= self.arrival <= self.deadline:
            raise ValueError("need 1 <= arrival <= deadline")
        if not 0 <= self.work <= self.deadline - self.arrival + 1:
            raise ValueError("work exceeds the job's window length")


def battery_set(spec):
    """Feasible charging trajectories: per-period rate and cumulative energy rows."""
    t = spec.horizon
    eye = np.eye(t)
    cum = np.tril(np.ones((t, t)))
    a = np.vstack([eye, -eye, cum, -cum])
    stored = spec.soc * spec.capacity
    b = np.concatenate([
        np.full(t, spec.rate),
        np.full(t, spec.rate),
        np.full(t, spec.capacity - stored),
        np.full(t, stored),
    ])
    return HPolytope(a, b, horizon=t)


def instance_set(horizon):
    """The unit box: each period's output is a work fraction in [0, 1]."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    eye = np.eye(horizon)
    a = np.vstack([eye, -eye])
    b = np.concatenate([np.ones(horizon), np.zeros(horizon)])
    return HPolytope(a, b, horizon=horizon)


def batch_workload_set(jobs, horizon):
    """Aggregate consumption of deferrable jobs, lifted by per-job schedules.

    Output coordinate t equals minus the total work scheduled in period t;
    each job's schedule occupies a block of aux columns (rate limit 1 inside
    its window, pinned to 0 outside, total equal to its work).  Equalities
    appear as paired inequalities so uniform rhs scaling stays meaningful.
    """
    t = horizon
    if t < 1:
        raise ValueError("horizon must be >= 1")
    jobs = list(jobs)
    for job in jobs:
        if job.deadline > t:
            raise ValueError(f"job deadline {job.deadline} exceeds horizon {t}")
    m = len(jobs)
    eye = np.eye(t)
    # s_k + sum_j r_jk = 0, sum_k r_jk = work_j, 0 <= r_jk <= [k in window j]
    rows = np.block([[eye, np.tile(eye, (1, m))],
                     [np.zeros((m, t)), np.kron(np.eye(m), np.ones((1, t)))],
                     [np.zeros((m * t, t)), np.eye(m * t)]])
    work = np.array([(job.work, -job.work) for job in jobs]).reshape(m, 2)
    k = np.arange(1, t + 1)
    window = np.array([(job.arrival <= k) & (k <= job.deadline) for job in jobs])
    hi = np.concatenate([np.zeros(t), work[:, 0], window.ravel()])
    lo = np.concatenate([np.zeros(t), work[:, 1], np.zeros(m * t)])
    return HPolytope(np.stack([rows, -rows], 1).reshape(-1, t + m * t),
                     np.stack([hi, lo], 1).ravel(), horizon=t, n_aux=m * t,
                     aux_periods=tuple(np.tile(k, m).tolist()))


def scale(p, alpha):
    """alpha copies of the unit set: same rows, rhs alpha * b."""
    if alpha < 0:
        raise ValueError("scale factor must be nonnegative")
    return HPolytope(p.a, alpha * p.b, p.horizon, p.n_aux, p.aux_periods)


def _dedup(points):
    """The points in order, each dropped if it is within VERTEX_DEDUP_TOL of
    an earlier kept one."""
    points = np.asarray(points, dtype=float)
    kept = np.empty_like(points)
    k = 0
    for x in points:
        if k == 0 or np.abs(kept[:k] - x).max(axis=1).min() > VERTEX_DEDUP_TOL:
            kept[k] = x
            k += 1
    return kept[:k].copy()


def hrep_to_vrep(p):
    """Exact vertex enumeration over all row subsets (small dimensions only).

    Each subset of `horizon` rows with a nonsingular matrix gives a candidate,
    kept if it solves its rows to 1e-8 and satisfies every row to FEAS_TOL.
    The subsets go ENUMERATION_BLOCK at a time through one stacked
    np.linalg.solve, after dropping those whose determinant is exactly 0:
    the LU factorization that gives det 0 is the one that makes a single
    solve raise, so every point is bit-identical to a per-subset solve, and
    memory follows the block size, not the number of subsets.
    """
    if p.n_aux != 0:
        raise ValueError("vertex enumeration needs an unlifted polytope")
    t = p.horizon
    if t > MAX_ENUMERATION_DIM:
        raise ValueError(f"dimension {t} exceeds enumeration guard {MAX_ENUMERATION_DIM}")
    a, b = p.a, p.b
    subsets = itertools.chain.from_iterable(itertools.combinations(range(p.n_rows), t))
    found = [np.zeros((0, t))]
    while True:
        idx = np.fromiter(itertools.islice(subsets, ENUMERATION_BLOCK * t),
                          dtype=np.intp).reshape(-1, t)
        if not idx.size:
            break
        sub, rhs = a[idx], b[idx, None]
        nonsingular = np.linalg.det(sub) != 0
        sub, rhs = sub[nonsingular], rhs[nonsingular]
        x = np.linalg.solve(sub, rhs)
        finite = np.isfinite(x).all(axis=(1, 2))
        sub, rhs, x = sub[finite], rhs[finite], x[finite]
        # a near-singular basis leaves its solution untrustworthy
        x = x[np.abs(sub @ x - rhs).max(axis=(1, 2), initial=0.0) <= 1e-8, :, 0]
        found.append(x[np.all(x @ a.T <= b + FEAS_TOL, axis=1)])
    found = np.concatenate(found)
    if not found.size:
        raise ValueError("no vertices found: polytope is empty or degenerate")
    verts = _dedup(found)
    order = np.lexsort(verts.T[::-1])
    return VPolytope(verts[order])


def contains_point(p, x, delta=1.0, center=None):
    """Membership of x in the delta-inflation of p about center.

    Inflation follows the rhs-scaling convention (delta * b for H-reps,
    convex weights about the center for V-reps), matching scale().
    """
    if delta < 0:
        raise ValueError("inflation factor must be nonnegative")
    horizon = p.horizon
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (horizon,):
        raise ValueError(f"point has shape {x.shape}, expected ({horizon},)")
    c = np.zeros(horizon) if center is None else \
        np.broadcast_to(np.asarray(center, dtype=float), (horizon,))

    if isinstance(p, HPolytope):
        shifted = x + (delta - 1.0) * c
        a_out, a_aux = p.a[:, :horizon], p.a[:, horizon:]
        resid = delta * p.b - a_out @ shifted
        if p.n_aux == 0:
            return bool(np.all(resid >= -FEAS_TOL))
        probe = LinearProgram(c=np.zeros(p.n_aux), a_le=a_aux, b_le=resid)
        return check_feasible(probe).status is LpStatus.OPTIMAL

    return convex_coefficients(p, x, delta, c) is not None


def convex_coefficients(p, x, delta=1.0, center=None):
    """The weights certifying V-rep membership, or None when outside."""
    verts = p.vertices
    k = verts.shape[0]
    c = np.zeros(p.horizon) if center is None else np.asarray(center, dtype=float)
    a_eq = np.vstack([delta * (verts - c).T, np.ones((1, k))])
    b_eq = np.concatenate([x - c, [1.0]])
    probe = LinearProgram(c=np.zeros(k), a_eq=a_eq, b_eq=b_eq, lower=np.zeros(k))
    return check_feasible(probe).point


def _exposed(pts, among, directions):
    """The point of pts[among] that each direction exposes, as an index into pts.

    Among the points within FEAS_TOL of a direction's maximum, it is the
    lexicographic maximum, taken to within FEAS_TOL per coordinate: after
    _dedup that leaves one point, a vertex of the face the direction
    exposes, and so a vertex of the whole set.
    """
    cand = pts[among]
    scores = directions @ cand.T
    near = scores >= scores.max(axis=1, keepdims=True) - FEAS_TOL
    for col in cand.T:
        top = np.where(near, col, -np.inf).max(axis=1, keepdims=True)
        near &= col >= top - FEAS_TOL
    return among[np.argmax(near, axis=1)]


def _hull_distances(hull, points):
    """The l1 distance from each point to conv(hull), and a direction w
    (|w_i| <= 1) along which the point beats every hull point by it.

    One LP under one objective per point: max p.w + w0 subject to
    v.w + w0 <= 0 for every v in hull, -1 <= w <= 1 and w0 free.  It is the
    dual of min |p - V lam|_1 over convex weights lam, the quantity phase 1
    of a membership check compares with FEAS_TOL.
    """
    k, t = hull.shape
    lp = LinearProgram(c=np.zeros(t + 1), a_le=np.hstack([hull, np.ones((k, 1))]),
                       b_le=np.zeros(k), lower=np.r_[-np.ones(t), -np.inf],
                       upper=np.r_[np.ones(t), np.inf])
    sols = solve_lp_costs(lp, -np.hstack([points, np.ones((len(points), 1))]))
    return (np.array([-sol.objective_value for sol in sols]),
            np.array([sol.point[:t] for sol in sols]))


def extreme_points(v):
    """Drop every point lying in the hull of the others (to FEAS_TOL).

    Purely an economy measure for downstream LPs; the hull is unchanged.
    A point that uniquely maximizes a linear function is extreme and needs
    no LP (the exposing-direction test of Clarkson's output-sensitive
    extreme-point algorithm, 1994).  So the points that the directions +-e_i
    and p - centroid expose seed the hull E.  Every other point gets its l1
    distance to conv(E) from one LP (_hull_distances); a point within
    FEAS_TOL is dropped, and each point beyond it has a direction that
    exposes a new vertex, which joins E for the next round.  A point is
    dropped only once certified inside: if a round exposes nothing new,
    every point still outside is kept, so the hull never shrinks.
    """
    pts = _dedup(np.asarray(v.vertices, dtype=float))
    n, t = pts.shape
    directions = np.vstack([np.eye(t), -np.eye(t), pts - pts.mean(axis=0)])
    size = np.abs(directions).max(axis=1)
    directions = directions[size > 0] / size[size > 0, None]
    in_hull = np.zeros(n, dtype=bool)
    in_hull[_exposed(pts, np.arange(n), directions)] = True
    rest = np.flatnonzero(~in_hull)
    while rest.size:
        dist, w = _hull_distances(pts[in_hull], pts[rest])
        outside = dist > FEAS_TOL
        rest, w = rest[outside], w[outside]
        if not rest.size:
            break
        new = _exposed(pts, rest, w)
        if in_hull[new].all():  # no new vertex certified: keep every point outside
            in_hull[rest] = True
            break
        in_hull[new] = True
        rest = rest[~in_hull[rest]]
    verts = pts[in_hull]
    order = np.lexsort(verts.T[::-1])
    return VPolytope(verts[order])


def minkowski_candidate_vertices(vs):
    """All sums of one vertex per polytope; hull-spanning, possibly redundant."""
    vs = list(vs)
    if not vs:
        raise ValueError("need at least one polytope")
    horizon = vs[0].horizon
    for v in vs:
        if v.horizon != horizon:
            raise ValueError("all polytopes must share the horizon")
    sums = vs[0].vertices
    for v in vs[1:]:
        sums = (sums[:, None, :] + v.vertices[None, :, :]).reshape(-1, horizon)
    verts = _dedup(sums)
    order = np.lexsort(verts.T[::-1])
    return VPolytope(verts[order])


def is_bounded(p):
    """Minimize each signed output coordinate; none may come back Unbounded.

    One LP under 2T objectives, so phase 1 runs once.  An empty set comes
    back Infeasible under every objective: vacuously bounded.
    """
    n = p.horizon + p.n_aux
    costs = np.zeros((2 * p.horizon, n))
    t = np.arange(p.horizon)
    costs[2 * t, t] = 1.0
    costs[2 * t + 1, t] = -1.0
    sols = solve_lp_costs(LinearProgram(c=np.zeros(n), a_le=p.a, b_le=p.b), costs)
    return all(sol.status is not LpStatus.UNBOUNDED for sol in sols)
