"""Batch command line front-end.

Subcommands wrap the library computations with JSON/CSV input and output.
Exit codes: 0 success, 1 usage or input error, 2 infeasible verdict,
3 precondition error, 4 numerical failure in the solver.
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .causal import _read_csv, build_scenario_tree, causal_feasibility, read_signals
from .costalloc import allocate_cost
from .demandset import (
    SignalDataset,
    build_model,
    coverage_curve,
    segment,
    split,
    window_average,
)
from .lp import IterationLimitError
from .polytope import BatterySpec, battery_set
from .procurement import (
    PreconditionError,
    ProcurementInstance,
    Resource,
    affine_bound,
    battery_exact_jss,
    instance_from_json,
    minkowski_demand,
    price_of_causality,
    proportional_bound,
    resources_from_json,
    solve_oracle,
    tv_proportional_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class UsageError(Exception):
    pass


@dataclass
class RunReport:
    command: str
    digest: str
    results: dict
    wall_time: float

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        return RunReport(obj["command"], obj["digest"], obj["results"],
                         obj["wall_time"])


def _plain(value):
    """Make numpy containers JSON-native so reports round-trip exactly."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_csv(header, rows, out_path):
    """CSV with numbers to 12 significant digits; strings pass through."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else f"{v:.12g}" for v in row]
                     for row in rows)
    _emit(buf.getvalue(), out_path)


def _report(command, digest, results, started, out_path):
    rep = RunReport(command, digest, _plain(results),
                    time.perf_counter() - started)
    _emit(rep.to_json() + "\n", out_path)
    return rep


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read JSON from {path}: {exc}")


def _bound_entry(result):
    if not result.feasible:
        return {"status": "infeasible"}
    return {"status": "optimal", "cost": result.cost,
            "alphas": result.alphas}


def cmd_jstar(args):
    started = time.perf_counter()
    inst = instance_from_json(_load_json(args.instance))
    res = solve_oracle(inst)
    results = _bound_entry(res)
    _report("jstar", _digest(args.instance), results, started, args.out)
    return EXIT_OK if res.feasible else EXIT_INFEASIBLE


def cmd_bounds(args):
    started = time.perf_counter()
    inst = instance_from_json(_load_json(args.instance))
    solvers = {"jstar": solve_oracle, "prop": proportional_bound,
               "tv": tv_proportional_bound, "affine": affine_bound}
    # "all" runs the oracle and every policy; its verdict is the oracle's.
    names = list(solvers) if args.policy == "all" else [args.policy]
    runs = {name: solvers[name](inst) for name in names}
    results = {name: _bound_entry(res) for name, res in runs.items()}
    _report("bounds", _digest(args.instance), results, started, args.out)
    return EXIT_OK if runs[names[0]].feasible else EXIT_INFEASIBLE


def _parse_grid(spec):
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise UsageError("grid must look like start:stop:step")
    if step <= 0:
        raise UsageError("grid step must be positive")
    if hi < lo:
        raise UsageError("grid stop must be >= start")
    n = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(n)]


def cmd_poc_sweep(args):
    spec = _load_json(args.sweep)
    try:
        horizon = int(spec.get("horizon", 0)) or None
        batteries = [BatterySpec(b["capacity"], b["rate"], b.get("soc", 0.0),
                                 b.get("horizon", horizon))
                     for b in spec["batteries"]]
        prices = [float(p) for p in spec["prices"]]
        kappa_index = int(spec["kappa_index"])
        if not 0 <= kappa_index < len(prices):
            raise UsageError("kappa_index out of range")
        if len(prices) != len(batteries):
            raise UsageError("one price per battery required")
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad sweep spec: {exc}")

    kappas = _parse_grid(args.kappa)
    base = [Resource(battery_set(b), p) for b, p in zip(batteries, prices)]
    demand = minkowski_demand(base)  # prices don't move the demand set

    rows = []
    for kappa in kappas:
        swept = list(prices)
        swept[kappa_index] = kappa
        resources = tuple(Resource(r.set, p) for r, p in zip(base, swept))
        jstar = solve_oracle(ProcurementInstance(resources, demand))
        if not jstar.feasible:
            raise PreconditionError("demand equals the fleet sum; the oracle "
                                    "stage cannot be infeasible")
        jss = battery_exact_jss(batteries, swept)
        try:
            poc = f"{price_of_causality(jstar.cost, jss):.12g}"
        except ValueError:
            poc = "NA"
        rows.append((kappa, jstar.cost, jss, poc))

    _emit_csv(["kappa", "jstar", "jss", "poc"], rows, args.out)
    return EXIT_OK


def cmd_causal_check(args):
    started = time.perf_counter()
    resources = resources_from_json(_load_json(args.instance))
    signals = read_signals(args.scenarios)
    if args.alpha is None:
        raise UsageError("--alpha is required (one value per resource)")
    if len(args.alpha) != len(resources):
        raise UsageError(f"{len(resources)} resources need {len(resources)} "
                         "alpha values")
    tree = build_scenario_tree(signals)
    check = causal_feasibility(tree, resources, args.alpha)
    results = {"verdict": "feasible" if check.feasible else "infeasible",
               "n_scenarios": tree.n_scenarios,
               "n_nodes": tree.n_nodes}
    if check.feasible:
        results["nodes"] = {
            str(node.node_id): {"depth": node.depth, "value": node.value,
                                "outputs": check.node_outputs[node.node_id]}
            for node in tree.nodes[1:]
        }
    _report("causal-check", _digest(args.instance), results, started, args.out)
    return EXIT_OK if check.feasible else EXIT_INFEASIBLE


def cmd_cost_alloc(args):
    started = time.perf_counter()
    participants = _read_csv(args.participants)
    if args.aggregate:
        e = _read_csv(args.aggregate).ravel()
    else:
        e = participants.sum(axis=0)
    shares = allocate_cost(participants, e, args.jss)
    results = {"shares": shares.shares, "total": shares.total,
               "aggregate": e, "axioms": shares.axioms}
    _report("cost-alloc", _digest(args.participants), results, started,
            args.out)
    return EXIT_OK


def _load_dataset(args):
    if args.window < 0:
        raise UsageError("--window must not be negative")
    table = _read_csv(args.data)
    if table.shape[1] == 1:
        series = table.ravel()
        if args.window > 1:
            series = window_average(series, args.window)
        if not args.horizon:
            raise UsageError("--T is required for single-column data")
        return segment(series, args.horizon, provenance=args.data)
    if args.window > 1:
        raise UsageError(f"--window averages single-column data; this data has "
                         f"{table.shape[1]} columns")
    if args.horizon and table.shape[1] != args.horizon:
        raise UsageError(f"data has {table.shape[1]} columns but --T "
                         f"is {args.horizon}")
    return SignalDataset(table, provenance=args.data)


def cmd_demand(args):
    started = time.perf_counter()
    ds = _load_dataset(args)
    if not 0 < args.train < ds.n_samples:
        raise UsageError("--train must leave both splits nonempty")
    train, val = split(ds, args.train)
    model = build_model(train, delta=args.delta, center=args.center)

    if args.mode == "build":
        results = {"n_train": train.n_samples, "n_validation": val.n_samples,
                   "center": model.center, "delta": model.delta,
                   "vertices": model.vertices.vertices}
        _report("demand-build", _digest(args.data), results, started, args.out)
        return EXIT_OK

    grid = _parse_grid(args.delta_grid) if args.delta_grid else [model.delta]
    if grid[0] < 1.0:
        raise UsageError("inflation grid must start at 1.0 or above")
    curve = coverage_curve(model, val, grid)
    _emit_csv(["delta", "coverage"], curve, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="polyprocure",
                     description="Forward procurement of polytopic resources "
                                 "under demand uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jstar", help="clairvoyant procurement cost")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=cmd_jstar)

    p = sub.add_parser("bounds", help="causal policy cost bounds")
    p.add_argument("instance")
    p.add_argument("--policy", choices=["prop", "tv", "affine", "all"],
                   default="all")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("poc-sweep",
                       help="price sweep CSV: kappa,jstar,jss,poc")
    p.add_argument("sweep", help="sweep spec JSON (batteries, prices, "
                                 "kappa_index)")
    p.add_argument("--kappa", required=True, metavar="A:B:STEP",
                   help="closed grid of swept prices")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poc_sweep)

    p = sub.add_parser("causal-check",
                       help="scenario-tree causal coverage verdict")
    p.add_argument("instance", help="instance JSON (resources are used)")
    p.add_argument("scenarios", help="signals as CSV rows or a JSON array")
    p.add_argument("--alpha", type=float, nargs="+",
                   help="procured amount per resource")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_causal_check)

    p = sub.add_parser("cost-alloc", help="allocate a cost across consumers")
    p.add_argument("participants", help="CSV, one trajectory per row")
    p.add_argument("--jss", type=float, required=True,
                   help="total cost to allocate")
    p.add_argument("--aggregate", help="CSV with the aggregate signal "
                                       "(default: sum of participants)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cost_alloc)

    p = sub.add_parser("demand", help="build a demand set or sweep coverage")
    p.add_argument("mode", choices=["build", "coverage"])
    p.add_argument("data", help="CSV: one raw column or one sample per row")
    p.add_argument("--T", dest="horizon", type=int, default=0,
                   help="segment length for single-column data")
    p.add_argument("--train", type=int, required=True,
                   help="number of leading samples used for the hull")
    p.add_argument("--window", type=int, default=0,
                   help="pre-average the raw series over this many points")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--delta-grid", metavar="A:B:STEP")
    p.add_argument("--center", choices=["centroid", "origin"],
                   default="centroid")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_demand)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        if isinstance(exc, PreconditionError):
            print(f"precondition failed: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IterationLimitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
