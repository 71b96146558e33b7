"""Readers of outside input: the JSON and CSV files the commands take.

The demand set E arrives by its vertices (`vrep`), each unit resource set
by half-spaces (`hrep`), a battery, an instance box or a job list.  Any
failure to read or decode a file raises one ValueError whose message
names the file or the JSON path at fault.
"""

import csv
import json
from contextlib import contextmanager

import numpy as np

from .polytope import (BatchJob, BatterySpec, HPolytope, VPolytope, batch_workload_set,
                       battery_set, instance_set, is_bounded)
from .procurement import ProcurementInstance, Resource, minkowski_demand


def load_json(path):
    """The parsed JSON file; a ValueError names the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read JSON from {path}: {exc}") from None


def read_csv(path):
    """Numeric rows of a CSV file whose first row may be a header.

    Unreadable, empty, header-only, ragged and non-numeric files raise
    ValueError with a one-line message naming the path.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except (OSError, ValueError, csv.Error) as exc:
        raise ValueError(f"cannot read CSV from {path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} is empty")
    try:
        [float(v) for v in rows[0]]
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    if len({len(r) for r in rows}) > 1:
        raise ValueError(f"rows of {path} differ in length")
    try:
        return np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ValueError(f"non-numeric cell in {path}: {exc}") from None


def read_signals(path):
    """Scenario list from a .json file (array of arrays) or a .csv file
    (optional header row, one signal per row)."""
    if not str(path).endswith(".json"):
        return read_csv(path)
    message = f"{path} must hold an array of numeric arrays"
    signals = np.atleast_2d(_numeric(load_json(path), message))
    if signals.ndim != 2:
        raise ValueError(message)
    return signals


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
    """_field converted by kind; an absent optional key gives the default as is.

    An int field takes only finite integral numbers.
    """
    value = _field(obj, key, default)
    if key not in obj:
        return value
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"'{key}' must be a number, got {value!r}") from None
    if kind is int:
        if not number.is_integer():
            raise ValueError(f"'{key}' must be an integer, got {value!r}")
        return int(number)
    return number


def _has_bool(value):
    """Whether a JSON boolean sits anywhere in value; float(True) is 1.0."""
    if isinstance(value, list):
        return any(map(_has_bool, value))
    return isinstance(value, bool)


def _numeric(value, message):
    """value as a float array; ValueError(message) if it is not numeric,
    nested too deep to check included (NumPy takes at most 64 dimensions)."""
    try:
        if _has_bool(value):
            raise TypeError
        return np.array(value, dtype=float)
    except (TypeError, ValueError, RecursionError):
        raise ValueError(message) from None


def _floats(obj, key):
    return _numeric(_field(obj, key), f"'{key}' must be a numeric array")


@contextmanager
def _at(path):
    """Prefix a ValueError raised inside with the JSON path it concerns."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _entries(obj, key, parse):
    """parse of each entry of the array obj[key]; a ValueError names the entry."""
    items = _field(obj, key)
    if not isinstance(items, list):
        raise ValueError(f"'{key}' must be an array, got {type(items).__name__}")
    parsed = []
    for n, item in enumerate(items):
        with _at(f"{key}[{n}]"):
            parsed.append(parse(item))
    return parsed


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


def _battery_from_json(spec, horizon):
    """A battery entry; its own horizon overrides the one passed in."""
    t = _number(spec, "horizon", horizon, int)
    if t is None:
        raise ValueError("needs a horizon here or at the top level")
    return BatterySpec(_number(spec, "capacity"), _number(spec, "rate"),
                       _number(spec, "soc", 0.0), t)


def _job_from_json(job):
    return BatchJob(_number(job, "arrival", kind=int),
                    _number(job, "deadline", kind=int), _number(job, "work"))


def resource_from_json(entry, horizon=None):
    """One resource entry; a malformed one raises ValueError naming the key."""
    price = _number(entry, "price")
    keys = [k for k in ("battery", "hrep", "instances", "jobs") if k in entry]
    if len(keys) != 1:
        raise ValueError("resource needs exactly one of battery/hrep/instances/jobs")
    kind = keys[0]
    if kind == "battery":
        with _at("battery"):
            p = battery_set(_battery_from_json(entry["battery"], horizon))
    elif kind == "hrep":
        p = polytope_from_json({"hrep": entry["hrep"]})
    elif kind == "instances":
        body = entry["instances"]
        t = _number(body, "horizon", horizon, int) if isinstance(body, dict) else horizon
        if t is None:
            raise ValueError("instance resource needs a horizon")
        p = instance_set(t)
    else:
        if horizon is None:
            raise ValueError("job-list resource needs a top-level horizon")
        p = batch_workload_set(_entries(entry, "jobs", _job_from_json), horizon)
    scalable = _field(entry, "scalable", True)
    if not isinstance(scalable, bool):
        raise ValueError(f"'scalable' must be true or false, got {scalable!r}")
    return Resource(p, price, scalable)


def resources_from_json(obj):
    """Just the resource list of an instance object; skips the demand."""
    if not isinstance(obj, dict):
        raise ValueError(f"instance must be a JSON object, got {type(obj).__name__}")
    horizon = _number(obj, "horizon", None, int)
    return tuple(_entries(obj, "resources",
                          lambda entry: resource_from_json(entry, horizon)))


def instance_from_json(obj):
    """Instance schema: {"resources": [...], "demand": {...}, "horizon": T?}.

    A malformed object raises ValueError naming the path at fault.
    """
    resources = resources_from_json(obj)
    demand_spec = _field(obj, "demand")
    with _at("demand"):
        if _field(demand_spec, "minkowski_of_resources", False):
            demand = minkowski_demand(resources)
        elif "vrep" in demand_spec:
            demand = polytope_from_json(demand_spec)
        else:
            raise ValueError("needs 'vrep' or 'minkowski_of_resources'")
    return ProcurementInstance(resources, demand)


def sweep_from_json(obj):
    """Sweep spec {"batteries": [...], "prices": [...], "kappa_index": k,
    "horizon": T?} as (batteries, prices, kappa_index): one price per
    battery, and kappa_index names the battery whose price is swept."""
    if not isinstance(obj, dict):
        raise ValueError(f"sweep spec must be a JSON object, got {type(obj).__name__}")
    horizon = _number(obj, "horizon", 0, int) or None
    batteries = _entries(obj, "batteries",
                         lambda entry: _battery_from_json(entry, horizon))
    prices = _floats(obj, "prices")
    if prices.shape != (len(batteries),):
        raise ValueError("one price per battery required")
    kappa_index = _number(obj, "kappa_index", kind=int)
    if not 0 <= kappa_index < len(prices):
        raise ValueError("kappa_index out of range")
    return batteries, prices.tolist(), kappa_index
