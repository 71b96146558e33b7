"""Batch command line front-end.

Subcommands wrap the library computations with JSON/CSV input and output.
Exit codes: 0 success, 1 usage or input error, 2 infeasible verdict,
3 precondition error, 4 numerical failure in the solver.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .causal import build_scenario_tree, causal_feasibility
from .costalloc import allocate_cost
from .demandset import (
    SignalDataset,
    build_model,
    coverage_curve,
    segment,
    split,
    window_average,
)
from .inputs import (
    instance_from_json,
    load_json,
    read_csv,
    read_signals,
    resources_from_json,
    sweep_from_json,
)
from .lp import NumericalError
from .polytope import battery_set
from .procurement import (
    PreconditionError,
    ProcurementInstance,
    Resource,
    affine_bound,
    battery_exact_procurement,
    minkowski_demand,
    oracle_sweep,
    price_of_causality,
    proportional_bound,
    solve_oracle,
    tv_proportional_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

# Most points a start:stop:step grid option may ask for.
MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    pass


@dataclass
class RunReport:
    command: str
    digest: str
    results: dict
    wall_time: float

    def to_json(self):
        return json.dumps(vars(self), sort_keys=True, indent=2)

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


def _bound_entry(result):
    if not result.feasible:
        return {"status": "infeasible"}
    return {"status": "optimal", "cost": result.cost,
            "alphas": result.alphas}


def cmd_jstar(args):
    started = time.perf_counter()
    inst = instance_from_json(load_json(args.instance))
    res = solve_oracle(inst)
    results = _bound_entry(res)
    _report("jstar", _digest(args.instance), results, started, args.out)
    return EXIT_OK if res.feasible else EXIT_INFEASIBLE


def cmd_bounds(args):
    started = time.perf_counter()
    inst = instance_from_json(load_json(args.instance))
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
    if not np.all(np.isfinite([lo, hi, step])):
        raise UsageError(f"grid {spec} must have a finite start, stop and step")
    if step <= 0:
        raise UsageError("grid step must be positive")
    if hi < lo:
        raise UsageError("grid stop must be >= start")
    n = np.floor((hi - lo) / step + 1e-9) + 1  # inf when hi - lo overflows
    if not n <= MAX_GRID_POINTS:
        raise UsageError(f"grid {spec} has {n:.0f} points, more than {MAX_GRID_POINTS}")
    return [lo + i * step for i in range(int(n))]


def cmd_poc_sweep(args):
    batteries, prices, kappa_index = sweep_from_json(load_json(args.sweep))
    kappas = _parse_grid(args.kappa)
    base = [Resource(battery_set(b), p) for b, p in zip(batteries, prices)]
    demand = minkowski_demand(base)  # prices don't move the demand set

    price_rows = []
    for kappa in kappas:
        swept = list(prices)
        swept[kappa_index] = kappa
        price_rows.append(swept)
    # One oracle LP for the whole sweep: prices move only its objective.
    oracle = oracle_sweep(ProcurementInstance(base, demand), price_rows)
    if not all(jstar.feasible for jstar in oracle):
        raise PreconditionError("demand equals the fleet sum; the oracle "
                                "stage cannot be infeasible")

    rows = []
    for kappa, swept, jstar in zip(kappas, price_rows, oracle):
        jss = battery_exact_procurement(batteries, swept).cost
        try:
            poc = f"{price_of_causality(jstar.cost, jss):.12g}"
        except ValueError:
            poc = "NA"
        rows.append((kappa, jstar.cost, jss, poc))

    _emit_csv(["kappa", "jstar", "jss", "poc"], rows, args.out)
    return EXIT_OK


def cmd_causal_check(args):
    started = time.perf_counter()
    resources = resources_from_json(load_json(args.instance))
    signals = read_signals(args.scenarios)
    tree = build_scenario_tree(signals)
    check = causal_feasibility(tree, resources, args.alpha)
    results = {"verdict": "feasible" if check.feasible else "infeasible",
               "n_scenarios": tree.n_scenarios,
               "n_nodes": tree.n_nodes}
    if check.feasible:
        results["nodes"] = {
            str(j): {"depth": tree.depth[j], "value": tree.value[j],
                     "outputs": check.node_outputs[j]}
            for j in range(1, tree.n_nodes)
        }
    _report("causal-check", _digest(args.instance), results, started, args.out)
    return EXIT_OK if check.feasible else EXIT_INFEASIBLE


def cmd_cost_alloc(args):
    started = time.perf_counter()
    participants = read_csv(args.participants)
    if args.aggregate:
        e = read_csv(args.aggregate).ravel()
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
    table = read_csv(args.data)
    if table.shape[1] == 1:
        series = table.ravel()
        if args.window > 1:
            series = window_average(series, args.window)
        if not args.horizon:
            raise UsageError("--T is required for single-column data")
        return segment(series, args.horizon)
    if args.window > 1:
        raise UsageError(f"--window averages single-column data; this data has "
                         f"{table.shape[1]} columns")
    if args.horizon and table.shape[1] != args.horizon:
        raise UsageError(f"data has {table.shape[1]} columns but --T "
                         f"is {args.horizon}")
    return SignalDataset(table)


def cmd_demand(args):
    started = time.perf_counter()
    train, val = split(_load_dataset(args), args.train)
    model = build_model(train, delta=args.delta, center=args.center)

    if args.mode == "build":
        results = {"n_train": train.n_samples, "n_validation": val.n_samples,
                   "center": model.center, "delta": model.delta,
                   "vertices": model.vertices.vertices}
        _report("demand-build", _digest(args.data), results, started, args.out)
        return EXIT_OK

    grid = _parse_grid(args.delta_grid) if args.delta_grid else [model.delta]
    curve = coverage_curve(model, val, grid)
    _emit_csv(["delta", "coverage"], curve, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # built once per process; parse_args keeps no state in it
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
    p.add_argument("--alpha", type=float, nargs="+", required=True,
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
