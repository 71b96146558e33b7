"""Build demand sets from measured signal data.

Pipeline: average a raw series into blocks, cut it into fixed-horizon
segments, split into training and held-out parts, take the training hull
(kept as a point list; membership is one LP per query), and inflate it by a
factor delta about a center until held-out coverage is acceptable.
"""

from dataclasses import dataclass

import numpy as np

from .polytope import VPolytope, contains_point


@dataclass(frozen=True)
class SignalDataset:
    samples: np.ndarray
    provenance: str = ""

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
        if self.delta < 1.0:
            raise ValueError("inflation factor must be >= 1")
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


def segment(series, horizon, provenance=""):
    """Cut a series into consecutive horizon-length samples."""
    series = np.asarray(series, dtype=float).ravel()
    if horizon < 1:
        raise ValueError("horizon must be positive")
    n = series.size // horizon
    if n == 0:
        raise ValueError("series shorter than one horizon")
    return SignalDataset(series[:n * horizon].reshape(n, horizon), provenance)


def split(ds, n_train):
    """Order-preserving train/validation split."""
    if not 0 < n_train < ds.n_samples:
        raise ValueError("training size must leave both parts nonempty")
    return (SignalDataset(ds.samples[:n_train], ds.provenance),
            SignalDataset(ds.samples[n_train:], ds.provenance))


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


def coverage_ratio(model, validation):
    """Fraction of validation samples inside the inflated hull."""
    if validation.horizon != model.vertices.horizon:
        raise ValueError("validation horizon differs from the model")
    hits = sum(covers(model, x) for x in validation.samples)
    return hits / validation.n_samples


def coverage_curve(model, validation, deltas):
    """(delta, coverage) pairs over an ascending grid of inflations."""
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("empty delta grid")
    if any(b < a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be ascending")
    out = []
    for d in deltas:
        m = DemandSetModel(model.vertices, model.center, d)
        out.append((d, coverage_ratio(m, validation)))
    return out
