"""Answers checked against computations that do not use polyprocure.

Every LP here is assembled from the job's input files by this module and
solved by SciPy's HiGHS; vertex sets come from scipy.spatial.  Each check
raises CheckError with the first discrepancy it finds.
"""

import csv
import itertools
import json

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from workloads import PB_POLICIES

COST_RTOL = 1e-6      # reported cost against HiGHS, relative
SHARE_TOL = 1e-9      # cost shares against NumPy, absolute per unit of jss
FEAS_TOL = 1e-7       # replayed dispatch rows
GAUGE_MARGIN = 1e-6   # validation samples this close to a grid point count either way


class CheckError(AssertionError):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(a, b, rtol=COST_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_rows(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh) if row]


def _highs(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    _require(res.status == 0, f"HiGHS failed: {res.message}")
    return res


def _grid(spec):
    lo, hi, step = (float(v) for v in spec.split(":"))
    return np.arange(lo, hi + step / 2, step)


# -- resource rows --------------------------------------------------------
# A unit resource is a pair (a, b): its trajectories x satisfy a x <= b, and
# alpha units of it satisfy a x <= alpha b.

def battery_rows(capacity, rate, soc, horizon):
    eye, cum = np.eye(horizon), np.tril(np.ones((horizon, horizon)))
    stored = soc * capacity
    return (np.vstack([eye, -eye, cum, -cum]),
            np.repeat([rate, rate, capacity - stored, stored], horizon))


def box_rows(horizon):
    eye = np.eye(horizon)
    return np.vstack([eye, -eye]), np.repeat([1.0, 0.0], horizon)


def instance_rows(inst):
    """(rows, price, scalable) per resource of an instance file."""
    t = inst["horizon"]
    out = []
    for res in inst["resources"]:
        if "battery" in res:
            b = res["battery"]
            rows = battery_rows(b["capacity"], b["rate"], b.get("soc", 0.0), t)
        elif "instances" in res:
            rows = box_rows(t)
        else:
            raise ValueError(f"no reference rows for resource {sorted(res)}")
        out.append((rows, float(res["price"]), res.get("scalable", True)))
    return out


def oracle_cost(resources, vertices):
    """Clairvoyant cost: alpha per scalable resource and a free trajectory
    per resource and vertex, summing to the vertex, each inside its
    alpha-scaled (or unit) set."""
    verts = np.atleast_2d(vertices)
    k, t = verts.shape
    n = len(resources)
    n_alpha = sum(scalable for _, _, scalable in resources)
    cols = n_alpha + n * k * t

    def q(i, kk):  # columns of resource i's trajectory for vertex kk
        start = n_alpha + (i * k + kk) * t
        return slice(start, start + t)

    c = np.zeros(cols)
    a_ub, b_ub, fixed, alpha = [], [], 0.0, 0
    for i, ((a, b), price, scalable) in enumerate(resources):
        if scalable:
            c[alpha] = price
        else:
            fixed += price
        for kk in range(k):
            block = np.zeros((len(b), cols))
            block[:, q(i, kk)] = a
            if scalable:
                block[:, alpha] = -b
            a_ub.append(block)
            b_ub.append(np.zeros(len(b)) if scalable else b)
        alpha += scalable
    a_eq = np.zeros((k * t, cols))
    for kk in range(k):
        for i in range(n):
            a_eq[kk * t:(kk + 1) * t, q(i, kk)] = np.eye(t)
    bounds = [(0, None)] * n_alpha + [(None, None)] * (cols - n_alpha)
    res = _highs(c, np.vstack(a_ub), np.concatenate(b_ub), a_eq, verts.ravel(), bounds)
    return np.inf if res is None else res.fun + fixed


# -- policy-bounds --------------------------------------------------------

def check_policy_bounds(job, exit_codes):
    inst = _read_json(job.files["instance"])
    resources = instance_rows(inst)
    prices = np.array([price for _, price, _ in resources])

    costs = {}
    for name, code in zip(PB_POLICIES, exit_codes):
        entry = _read_json(job.files[name])["results"]
        if name != "jstar":
            entry = entry[name]
        _require(code == (2 if entry["status"] == "infeasible" else 0),
                 f"{name}: exit code {code} with status {entry['status']}")
        if entry["status"] == "infeasible":
            costs[name] = np.inf
            continue
        _require(entry["status"] == "optimal", f"{name}: status {entry['status']}")
        alphas = np.asarray(entry["alphas"], dtype=float)
        for alpha, (_, _, scalable) in zip(alphas, resources):
            _require(scalable or alpha == 1.0, f"{name}: fixed resource bought {alpha}")
            _require(alpha >= -FEAS_TOL, f"{name}: negative amount {alpha}")
        _require(_close(entry["cost"], float(prices @ alphas), 1e-9),
                 f"{name}: cost {entry['cost']} is not sum p.alpha {prices @ alphas}")
        costs[name] = entry["cost"]

    truth = oracle_cost(resources, inst["demand"]["vrep"]["vertices"])
    _require(_close(costs["jstar"], truth),
             f"jstar {costs['jstar']} differs from HiGHS {truth}")
    for lo_name, hi_name in itertools.pairwise(PB_POLICIES):
        lo, hi = costs[lo_name], costs[hi_name]
        _require(lo <= hi + COST_RTOL * max(1.0, abs(lo)),
                 f"{lo_name} {lo} exceeds {hi_name} {hi}")


# -- causal-check ---------------------------------------------------------

def _tree(signals):
    """Prefix tree keyed by exact prefixes: node -> (depth, value), leaf paths."""
    nodes = {}
    paths = []
    for row in signals:
        path = []
        for depth in range(1, len(row) + 1):
            key = tuple(row[:depth])
            nodes.setdefault(key, len(nodes))
            path.append(nodes[key])
        paths.append(path)
    values = np.zeros(len(nodes))
    depths = np.zeros(len(nodes), dtype=int)
    for key, idx in nodes.items():
        values[idx], depths[idx] = key[-1], len(key)
    return values, depths, paths


def tree_scale(batteries, alphas, signals):
    """Smallest common factor lambda on the procured amounts at which a
    node-shared dispatch covers every scenario (HiGHS; inf if none)."""
    values, _, paths = _tree(signals)
    n_nodes, n_bat = len(values), len(batteries)
    leaves = {tuple(p): p for p in paths}.values()
    cols = 1 + n_bat * n_nodes      # lambda, then s[i, node]

    def col(i, node):
        return 1 + i * n_nodes + node

    a_ub = []
    for path in leaves:
        for i, ((cap, rate, soc), alpha) in enumerate(zip(batteries, alphas)):
            a, b = battery_rows(cap, rate, soc, len(path))
            block = np.zeros((len(b), cols))
            block[:, [col(i, node) for node in path]] = a
            block[:, 0] = -alpha * b
            a_ub.append(block)
    a_eq = np.zeros((n_nodes, cols))
    for node in range(n_nodes):
        for i in range(n_bat):
            a_eq[node, col(i, node)] = 1.0
    c = np.zeros(cols)
    c[0] = 1.0
    bounds = [(0, None)] + [(None, None)] * (cols - 1)
    a_ub = np.vstack(a_ub)
    res = _highs(c, a_ub, np.zeros(len(a_ub)), a_eq, values, bounds)
    return np.inf if res is None else res.fun


def check_causal(job, exit_codes):
    inst = _read_json(job.files["instance"])
    batteries = [(r["battery"]["capacity"], r["battery"]["rate"],
                  r["battery"].get("soc", 0.0)) for r in inst["resources"]]
    signals = [tuple(float(v) for v in row) for row in _read_rows(job.files["scenarios"])]
    for k, (alphas, code) in enumerate(zip(job.params["alphas"], exit_codes)):
        report = _read_json(job.files[f"report{k}"])["results"]
        check_verdict(batteries, alphas, signals, report, code)


def check_verdict(batteries, alphas, signals, report, exit_code):
    verdict = report["verdict"]
    _require(verdict in ("feasible", "infeasible"), f"verdict {verdict!r}")
    _require(exit_code == (0 if verdict == "feasible" else 2),
             f"exit code {exit_code} with verdict {verdict}")
    if all(a == 1.0 for a in alphas):
        _require(verdict == "feasible",
                 "the unit fleet's own dispatch tree was judged infeasible")

    lam = tree_scale(batteries, alphas, signals)
    if abs(lam - 1.0) > GAUGE_MARGIN:
        expected = "feasible" if lam < 1.0 else "infeasible"
        _require(verdict == expected,
                 f"verdict {verdict} at alpha {alphas[0]}, HiGHS scale {lam} says {expected}")
    values, depths, paths = _tree(signals)
    _require(report["n_scenarios"] == len(signals), "scenario count differs")
    _require(report["n_nodes"] == len(values) + 1, "node count differs")
    if verdict == "infeasible":
        return

    # Match reported nodes to this tree's nodes by (depth, value).
    by_key = {(int(n["depth"]), n["value"]): n["outputs"]
              for n in report["nodes"].values()}
    _require(len(by_key) == len(values), "reported nodes are not distinct")
    outputs = np.zeros((len(values), len(batteries)))
    for node, (d, v) in enumerate(zip(depths, values)):
        got = by_key.get((int(d), float(v)))
        _require(got is not None, f"node at depth {d} value {v} missing")
        outputs[node] = got
        _require(abs(sum(got) - v) <= FEAS_TOL * max(1.0, abs(v)),
                 f"node outputs {got} do not sum to {v}")
    for path in paths:
        for i, ((cap, rate, soc), alpha) in enumerate(zip(batteries, alphas)):
            a, b = battery_rows(cap, rate, soc, len(path))
            excess = np.max(a @ outputs[path, i] - alpha * b)
            _require(excess <= FEAS_TOL,
                     f"battery {i} breaks a rate or energy row by {excess}")


# -- sweep-data: demand coverage and cost shares ---------------------------

def gauges(train, validation):
    """delta*(x) = min sum(mu) s.t. (V - c)' mu = x - c, mu >= 0, with c the
    training centroid: the least inflation of the hull that covers x.

    All samples go into one block-diagonal LP, whose optimum is optimal in
    every block."""
    c = train.mean(axis=0)
    n = len(train)
    blocks = _highs(np.ones(n * len(validation)),
                    a_eq=sparse.block_diag([(train - c).T] * len(validation)),
                    b_eq=(validation - c).ravel(), bounds=(0, None))
    _require(blocks is not None,
             "a validation sample lies outside every inflation of the hull")
    return blocks.x.reshape(len(validation), n).sum(axis=1)


def check_coverage(job):
    horizon, window, n_train = (job.params[k] for k in ("horizon", "window", "train"))
    series = np.array([float(r[0]) for r in _read_rows(job.files["history"])])
    series = series[:series.size // window * window].reshape(-1, window).mean(axis=1)
    samples = series[:series.size // horizon * horizon].reshape(-1, horizon)
    train, validation = samples[:n_train], samples[n_train:]
    star = gauges(train, validation)

    rows = _read_rows(job.files["coverage"])
    _require(rows[0] == ["delta", "coverage"], f"header {rows[0]}")
    curve = np.array([[float(d), float(c)] for d, c in rows[1:]])
    grid = _grid(job.params["grid"])
    _require(curve.shape == (grid.size, 2)
             and np.allclose(curve[:, 0], grid, rtol=0, atol=1e-9),
             "delta grid differs")
    n_val = len(validation)
    for delta, cov in curve:
        hits = cov * n_val
        _require(abs(hits - round(hits)) <= 1e-6, f"coverage {cov} is not k/{n_val}")
        lo = int(np.sum(star <= delta - GAUGE_MARGIN))
        hi = int(np.sum(star <= delta + GAUGE_MARGIN))
        _require(lo <= round(hits) <= hi,
                 f"coverage at {delta}: {round(hits)} samples, HiGHS gauges give {lo}..{hi}")
    _require(np.all(np.diff(curve[:, 1]) >= 0), "coverage curve decreases")
    _require(curve[-1, 1] > curve[0, 1], "coverage curve is flat across the grid")


def check_shares(job):
    d = np.array([[float(v) for v in r] for r in _read_rows(job.files["participants"])])
    jss = job.params["jss"]
    report = _read_json(job.files["shares"])["results"]
    e = d.sum(axis=0)
    expected = (d @ e) / (e @ e) * jss
    shares = np.asarray(report["shares"], dtype=float)
    _require(shares.shape == expected.shape, "one share per participant expected")
    worst = np.max(np.abs(shares - expected))
    _require(worst <= SHARE_TOL * max(1.0, jss), f"shares off by {worst}")
    _require(abs(shares.sum() - jss) <= SHARE_TOL * max(1.0, jss),
             f"shares sum to {shares.sum()}, not {jss}")
    _require(report["total"] == jss, "total differs from --jss")
    for name, ok in report["axioms"].items():
        _require(ok == 1, f"axiom {name} reported as failing")


# -- sweep-data: price sweep ---------------------------------------------

def _vertices(rows):
    """Vertices of {x : a x <= b} via an interior point and Qhull."""
    a, b = rows
    norms = np.linalg.norm(a, axis=1)
    dim = a.shape[1]
    centre = _highs(np.r_[np.zeros(dim), -1.0],
                    np.column_stack([a, norms]), b,
                    bounds=[(None, None)] * dim + [(0, None)])
    hs = HalfspaceIntersection(np.column_stack([a, -b]), centre.x[:dim])
    return hs.intersections


def minkowski_vertices(vertex_sets):
    sums = vertex_sets[0]
    for v in vertex_sets[1:]:
        sums = (sums[:, None, :] + v[None, :, :]).reshape(-1, sums.shape[1])
    hull = ConvexHull(sums)
    return sums[hull.vertices]


def exact_jss(batteries, prices):
    """Two-row aggregate LP: sum a_i r_i >= sum r_i, sum a_i min(2 r_i, C_i) >= sum C_i."""
    rates = np.array([b["rate"] for b in batteries])
    caps = np.array([b["capacity"] for b in batteries])
    a_ub = -np.vstack([rates, np.minimum(2 * rates, caps)])
    b_ub = -np.array([rates.sum(), caps.sum()])
    return _highs(prices, a_ub, b_ub, bounds=(0, None)).fun


def check_poc_sweep(job):
    spec = _read_json(job.files["spec"])
    t = spec["horizon"]
    units = [battery_rows(b["capacity"], b["rate"], b.get("soc", 0.0), t)
             for b in spec["batteries"]]
    demand = minkowski_vertices([_vertices(r) for r in units])
    rows = _read_rows(job.files["sweep"])
    _require(rows[0] == ["kappa", "jstar", "jss", "poc"], f"header {rows[0]}")
    grid = _grid(job.params["kappa"])
    _require(len(rows) - 1 == grid.size, "kappa grid differs")
    for (kappa, jstar, jss, poc), want_kappa in zip(rows[1:], grid):
        kappa, jstar, jss = float(kappa), float(jstar), float(jss)
        _require(abs(kappa - want_kappa) <= 1e-9, f"kappa {kappa} off the grid")
        prices = np.array(spec["prices"], dtype=float)
        prices[spec["kappa_index"]] = kappa
        resources = [(r, p, True) for r, p in zip(units, prices)]
        want_star = oracle_cost(resources, demand)
        want_jss = exact_jss(spec["batteries"], prices)
        _require(_close(jstar, want_star), f"jstar {jstar} at kappa {kappa}, HiGHS {want_star}")
        _require(_close(jss, want_jss), f"jss {jss} at kappa {kappa}, HiGHS {want_jss}")
        _require(jstar <= jss + COST_RTOL * max(1.0, jss),
                 f"jstar {jstar} exceeds jss {jss}")
        _require(_close(float(poc), jss / jstar, 1e-9), f"poc {poc} is not jss/jstar")


def check(job, exit_codes):
    if job.workload == "policy-bounds":
        check_policy_bounds(job, exit_codes)
    elif job.workload == "causal-check":
        check_causal(job, exit_codes)
    else:
        check_poc_sweep(job)
        check_coverage(job)
        check_shares(job)
