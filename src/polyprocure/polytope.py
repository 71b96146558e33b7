"""Resource and demand set geometry.

Unit resource sets live in H-representation, optionally lifted with
auxiliary coordinates (batch workloads carry their per-job schedules as
aux columns).  Demand sets live in V-representation.  Everything here is
immutable and pure.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpStatus, check_feasible, solve_lp

# Coordinate distance under which two vertices count as the same point.
VERTEX_DEDUP_TOL = 1e-7

# Guard for exact vertex enumeration; beyond this the row-subset count explodes.
MAX_ENUMERATION_DIM = 8


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
            periods = tuple(periods)
            if len(periods) != self.n_aux:
                raise ValueError("aux_periods must have one entry per aux column")
            for p in periods:
                if p is not None and not (isinstance(p, (int, np.integer))
                                          and 1 <= p <= self.horizon):
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
    n = t + m * t
    rows = []
    rhs = []

    def aux(j, k):
        return t + j * t + k

    for k in range(t):
        row = np.zeros(n)
        row[k] = 1.0
        for j in range(m):
            row[aux(j, k)] = 1.0
        rows.append(row)       # s_k + sum_j r_jk <= 0
        rows.append(-row)      # and >= 0: the output is exactly -sum r
        rhs.extend([0.0, 0.0])
    for j, job in enumerate(jobs):
        row = np.zeros(n)
        row[aux(j, 0):aux(j, 0) + t] = 1.0
        rows.append(row)
        rows.append(-row)
        rhs.extend([job.work, -job.work])
    for j, job in enumerate(jobs):
        for k in range(t):
            inside = job.arrival - 1 <= k <= job.deadline - 1
            row = np.zeros(n)
            row[aux(j, k)] = 1.0
            rows.append(row)
            rhs.append(1.0 if inside else 0.0)
            rows.append(-row)
            rhs.append(0.0)
    periods = tuple(k + 1 for _ in range(m) for k in range(t))
    return HPolytope(np.array(rows), np.array(rhs), horizon=t, n_aux=m * t,
                     aux_periods=periods)


def scale(p, alpha):
    """alpha copies of the unit set: same rows, rhs alpha * b."""
    if alpha < 0:
        raise ValueError("scale factor must be nonnegative")
    return HPolytope(p.a, alpha * p.b, p.horizon, p.n_aux, p.aux_periods)


def _dedup(points):
    kept = []
    for x in points:
        if not any(np.max(np.abs(x - y)) <= VERTEX_DEDUP_TOL for y in kept):
            kept.append(x)
    return np.array(kept)


def hrep_to_vrep(p):
    """Exact vertex enumeration over all row subsets (small dimensions only)."""
    if p.n_aux != 0:
        raise ValueError("vertex enumeration needs an unlifted polytope")
    t = p.horizon
    if t > MAX_ENUMERATION_DIM:
        raise ValueError(f"dimension {t} exceeds enumeration guard {MAX_ENUMERATION_DIM}")
    a, b = p.a, p.b
    found = []
    for idx in itertools.combinations(range(p.n_rows), t):
        sub = a[list(idx)]
        try:
            x = np.linalg.solve(sub, b[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(sub @ x - b[list(idx)])) > 1e-8:
            continue  # near-singular basis, solution untrustworthy
        if np.all(a @ x <= b + FEAS_TOL):
            found.append(x)
    if not found:
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
        return check_feasible(probe).feasible

    return convex_coefficients(p, x, delta, c) is not None


def convex_coefficients(p, x, delta=1.0, center=None):
    """The weights certifying V-rep membership, or None when outside."""
    verts = p.vertices
    k = verts.shape[0]
    c = np.zeros(p.horizon) if center is None else np.asarray(center, dtype=float)
    a_eq = np.vstack([delta * (verts - c).T, np.ones((1, k))])
    b_eq = np.concatenate([x - c, [1.0]])
    probe = LinearProgram(c=np.zeros(k), a_eq=a_eq, b_eq=b_eq, lower=np.zeros(k))
    res = check_feasible(probe)
    return res.point if res.feasible else None


def extreme_points(v):
    """Drop every point lying in the hull of the others.

    Purely an economy measure for downstream LPs; the hull is unchanged.
    """
    pts = _dedup(np.asarray(v.vertices, dtype=float))
    keep = list(range(len(pts)))
    i = 0
    while i < len(keep):
        others = [keep[j] for j in range(len(keep)) if j != i]
        if others and contains_point(VPolytope(pts[others]), pts[keep[i]]):
            keep.pop(i)
        else:
            i += 1
    verts = pts[keep]
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
    # Grid dedup: cheap and adequate since inputs are never 1e-7-close.
    seen = {}
    for x in sums:
        key = tuple(np.round(x / VERTEX_DEDUP_TOL).astype(np.int64))
        if key not in seen:
            seen[key] = x
    verts = np.array(list(seen.values()))
    order = np.lexsort(verts.T[::-1])
    return VPolytope(verts[order])


def interiority_margin(p):
    """Largest eps with a @ [0; w] + eps <= b for some w.

    Positive means the origin is interior to the output projection; zero
    means boundary; negative means the origin lies outside.  Recorded as a
    diagnostic; nothing here enforces interiority.
    """
    a_aux = p.a[:, p.horizon:]
    m = p.n_rows
    a_le = np.hstack([a_aux, np.ones((m, 1))])
    lp = LinearProgram(c=np.concatenate([np.zeros(p.n_aux), [-1.0]]),
                       a_le=a_le, b_le=p.b)
    sol = solve_lp(lp)
    if sol.status is LpStatus.UNBOUNDED:
        return np.inf
    if sol.status is not LpStatus.OPTIMAL:
        raise RuntimeError("interiority probe did not solve")
    return float(-sol.objective_value)


def is_bounded(p):
    """Maximize each signed output coordinate; all must come back Optimal."""
    n = p.horizon + p.n_aux
    for t in range(p.horizon):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[t] = sign
            sol = solve_lp(LinearProgram(c=c, a_le=p.a, b_le=p.b))
            if sol.status is LpStatus.UNBOUNDED:
                return False
            if sol.status is LpStatus.INFEASIBLE:
                return True  # empty set: vacuously bounded
    return True


def polytope_to_json(p):
    if isinstance(p, HPolytope):
        body = {"A": p.a.tolist(), "b": p.b.tolist(),
                "horizon": p.horizon, "aux": p.n_aux}
        if p.aux_periods is not None:
            body["aux_periods"] = list(p.aux_periods)
        return {"hrep": body}
    return {"vrep": {"vertices": p.vertices.tolist()}}


_REQUIRED = object()


def _field(obj, key, default=_REQUIRED):
    """obj[key] of parsed JSON; a ValueError names the key at fault."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ValueError(f"missing '{key}'")
    return default


def _number(obj, key, default=_REQUIRED, kind=float):
    """_field converted by kind; an absent optional key gives the default as is."""
    value = _field(obj, key, default)
    if key not in obj:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"'{key}' must be a number, got {value!r}") from None


def _floats(obj, key):
    value = _field(obj, key)
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"'{key}' must be a numeric array") from None


@contextmanager
def _at(path):
    """Prefix a ValueError raised inside with the JSON path it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def polytope_from_json(obj):
    body = _field(obj, "hrep", None)
    if body is not None:
        with _at("hrep"):
            p = HPolytope(_floats(body, "A"), _floats(body, "b"),
                          horizon=_number(body, "horizon", kind=int),
                          n_aux=_number(body, "aux", 0, int),
                          aux_periods=_field(body, "aux_periods", None))
        if not is_bounded(p):
            raise ValueError("H-polytope is unbounded in an output coordinate")
        return p
    body = _field(obj, "vrep", None)
    if body is not None:
        with _at("vrep"):
            return VPolytope(_floats(body, "vertices"))
    raise ValueError("polytope JSON needs an 'hrep' or 'vrep' key")
