"""Build demand sets from measured signal data.

Pipeline: average a raw series into blocks, cut it into fixed-horizon
segments, split into training and held-out parts, take the training hull
(kept as a point list), and inflate it by a factor delta about a center
until held-out coverage is acceptable.  Coverage over a whole grid of
deltas costs one gauge LP per held-out sample: the least inflation that
covers it (and, when the center lies outside the hull, a second LP for the
largest).
"""

from dataclasses import dataclass

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpStatus, solve_lp
from .polytope import VPolytope, contains_point

# Singular values of the centred training samples below this fraction of the
# largest count as zero: their directions are rounding noise, and keeping
# them would leave the gauge LPs' equality rows nearly rank-deficient.
SPAN_RANK_TOL = 1e-10


@dataclass(frozen=True)
class SignalDataset:
    samples: np.ndarray

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.size == 0:
            raise ValueError("dataset needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self):
        return self.samples.shape[0]

    @property
    def horizon(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class DemandSetModel:
    vertices: VPolytope
    center: np.ndarray
    delta: float = 1.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (self.vertices.horizon,):
            raise ValueError("center length differs from the sample horizon")
        if not 1.0 <= self.delta < np.inf:
            raise ValueError(f"inflation factor delta must be finite and >= 1, "
                             f"got {self.delta}")
        object.__setattr__(self, "center", center)


def window_average(series, window_len):
    """Means of consecutive windows; a trailing partial window is dropped."""
    series = np.asarray(series, dtype=float).ravel()
    if series.size == 0:
        raise ValueError("empty series")
    if window_len < 1:
        raise ValueError("window length must be positive")
    usable = (series.size // window_len) * window_len
    if usable == 0:
        raise ValueError("series shorter than one window")
    return series[:usable].reshape(-1, window_len).mean(axis=1)


def segment(series, horizon):
    """Cut a series into consecutive horizon-length samples."""
    series = np.asarray(series, dtype=float).ravel()
    if horizon < 1:
        raise ValueError("horizon must be positive")
    n = series.size // horizon
    if n == 0:
        raise ValueError("series shorter than one horizon")
    return SignalDataset(series[:n * horizon].reshape(n, horizon))


def split(ds, n_train):
    """Order-preserving train/validation split."""
    if not 0 < n_train < ds.n_samples:
        raise ValueError("training size must leave both parts nonempty")
    return SignalDataset(ds.samples[:n_train]), SignalDataset(ds.samples[n_train:])


def build_model(train, delta=1.0, center="centroid"):
    """Demand set: the training hull inflated by delta about the chosen
    center ("centroid" of the training samples, or "origin")."""
    if center == "centroid":
        c = train.samples.mean(axis=0)
    elif center == "origin":
        c = np.zeros(train.horizon)
    else:
        raise ValueError("center must be 'centroid' or 'origin'")
    return DemandSetModel(VPolytope(train.samples), c, float(delta))


def covers(model, x):
    return contains_point(model.vertices, x, delta=model.delta, center=model.center)


def _sum_bound(a_eq, target, sense):
    """min (sense 1) or max (sense -1) of sum(mu) over mu >= 0 with
    a_eq mu = target: None if no such mu exists, inf if unbounded."""
    res = solve_lp(LinearProgram(c=np.full(a_eq.shape[1], sense), a_eq=a_eq,
                                 b_eq=target, lower=0.0))
    if res.status is LpStatus.INFEASIBLE:
        return None
    return np.inf if res.status is LpStatus.UNBOUNDED else sense * res.objective_value


def coverage_curve(model, validation, deltas):
    """(delta, coverage) pairs over an ascending grid of inflations.

    With center c, x lies in the delta-inflated hull of V iff some mu >= 0
    has (V - c)' mu = x - c and sum(mu) = delta.  The reachable sums form an
    interval: its low end is x's gauge, and its high end is infinite exactly
    when c lies in the hull (always so for the centroid).  So each sample
    costs one LP, or two for a center outside the hull, whatever the grid.
    The rows are first projected onto the span of V - c, which makes them
    full rank; a sample off that span is outside at every delta.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("empty delta grid")
    if any(b < a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be ascending")
    if deltas[0] < 1.0:
        raise ValueError("inflation factor must be >= 1")
    if validation.horizon != model.vertices.horizon:
        raise ValueError("validation horizon differs from the model")

    spread = (model.vertices.vertices - model.center).T
    u, s, _ = np.linalg.svd(spread, full_matrices=False)
    span = u[:, :int(np.sum(s > SPAN_RANK_TOL * s[0]))]
    a_eq = span.T @ spread
    targets = validation.samples - model.center
    coords = targets @ span
    off_span = np.abs(targets - coords @ span.T).max(axis=1) > \
        FEAS_TOL * np.maximum(1.0, np.abs(targets).max(axis=1))
    bounded = not contains_point(model.vertices, model.center)

    grid = np.array(deltas)
    hits = np.zeros(grid.size, dtype=int)
    for x, off in zip(coords, off_span):
        lo = None if off else _sum_bound(a_eq, x, 1.0)
        if lo is not None:
            hi = _sum_bound(a_eq, x, -1.0) if bounded else np.inf
            hits += (lo <= grid + FEAS_TOL) & (grid <= hi + FEAS_TOL)
    n = validation.n_samples
    return [(d, int(h) / n) for d, h in zip(deltas, hits)]
