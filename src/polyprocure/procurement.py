"""Procurement cost computations.

The oracle cost solves the vertex-factorization LP: every demand vertex
splits into per-resource trajectories inside the scaled unit sets.  The
causal side is approached from above by three policy classes (fixed
proportions, time-varying proportions, causal-affine) and, for battery
fleets, computed exactly by a two-row aggregate LP.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpStatus, NumericalError, solve_lp, solve_lp_costs
from .polytope import (HPolytope, VPolytope, extreme_points, hrep_to_vrep,
                       minkowski_candidate_vertices)


class PreconditionError(ValueError):
    """A documented precondition failed; distinct from an infeasible verdict."""


@dataclass(frozen=True, eq=False)
class Resource:
    """A unit resource set offered at a price; scalable means the bought
    amount alpha_i is a decision, otherwise exactly one unit is procured."""

    set: HPolytope
    price: float
    scalable: bool = True

    def __post_init__(self):
        if not np.isfinite(self.price):
            raise ValueError("price must be finite")
        if self.price < 0:
            raise ValueError("price must be nonnegative")


@dataclass(frozen=True, eq=False)
class ProcurementInstance:
    resources: tuple
    demand: VPolytope

    def __post_init__(self):
        resources = tuple(self.resources)
        if not resources:
            raise ValueError("need at least one resource")
        t = self.demand.horizon
        for res in resources:
            if res.set.horizon != t:
                raise ValueError("resource and demand horizons differ")
        object.__setattr__(self, "resources", resources)

    @property
    def horizon(self):
        return self.demand.horizon

    @property
    def n_resources(self):
        return len(self.resources)


@dataclass
class ProcurementResult:
    """Verdict plus, when optimal, the bought amounts and a replayable certificate."""

    status: LpStatus
    alphas: np.ndarray = None
    cost: float = None
    certificate: dict = None

    @property
    def feasible(self):
        return self.status is LpStatus.OPTIMAL


def _infeasible():
    return ProcurementResult(LpStatus.INFEASIBLE)


# Column plan of an assembled coverage LP: alpha column per resource (absent
# when fixed), the policy parameters, and each resource's aux columns as a
# (scenario, aux coordinate) index array.
_Columns = namedtuple("_Columns", "alpha theta aux")


def _coverage_lp(resources, nodes, n_theta, trajectory, links=None,
                 theta_cost=0.0, theta_lower=-np.inf, theta_upper=np.inf):
    """The coverage LP shared by the oracle, every policy class and the
    scenario-tree check: resource i's trajectory on scenario k lies in its
    alpha_i-scaled unit set, a_out q_ik + a_aux w_ik <= alpha_i b.

    nodes[k, t] names the information state of scenario k at period t; an
    aux coordinate annotated with period tau is shared by the scenarios
    whose nodes agree at tau, the others are free per scenario.  The policy
    class is the parameter count n_theta, the map trajectory(i, k) ->
    (columns, block) giving q_ik = block @ theta[columns] from the parameters
    it depends on, and equality rows `links` = (a, b) with bounds and a
    linear objective on theta.  alpha_i is a decision priced at resource
    i's price for a scalable resource and pinned to 1 for the others; a
    caller fixes a scale by passing the scaled set, not scalable.

    Columns are alpha, theta, then aux per resource, scenario and aux
    coordinate; rows are the links, then the resource rows resource-major.
    """
    k, t = nodes.shape
    priced = [i for i, res in enumerate(resources) if res.scalable]
    alpha_col = {i: col for col, i in enumerate(priced)}
    theta = slice(len(priced), len(priced) + n_theta)

    nv = theta.stop
    shared = {}
    aux_cols = []
    for i, res in enumerate(resources):
        periods = res.set.aux_periods or (None,) * res.set.n_aux
        cols = np.zeros((k, res.set.n_aux), dtype=int)
        for kk in range(k):
            for j, period in enumerate(periods):
                key = (i, j, ("scenario", kk) if period is None
                       else nodes[kk, period - 1])
                if key not in shared:
                    shared[key] = nv
                    nv += 1
                cols[kk, j] = shared[key]
        aux_cols.append(cols)

    a_link, b_link = links if links is not None else (np.zeros((0, n_theta)), np.zeros(0))
    a_eq = np.zeros((len(b_link), nv))
    a_eq[:, theta] = a_link

    m_total = sum(res.set.n_rows for res in resources) * k
    a_le = np.zeros((m_total, nv))
    b_le = np.zeros(m_total)
    row = 0
    for i, res in enumerate(resources):
        p = res.set
        m = p.n_rows
        a_out, a_aux = p.a[:, :t], p.a[:, t:]
        for kk in range(k):
            rows = slice(row, row + m)
            columns, block = trajectory(i, kk)
            a_le[rows, theta.start + np.asarray(columns)] = a_out @ block
            if p.n_aux:
                a_le[rows, aux_cols[i][kk]] = a_aux
            if i in alpha_col:
                a_le[rows, alpha_col[i]] = -p.b
            else:
                b_le[rows] = p.b
            row += m

    c = np.zeros(nv)
    lower = np.full(nv, -np.inf)
    upper = np.full(nv, np.inf)
    c[:theta.start] = [resources[i].price for i in priced]
    lower[:theta.start] = 0.0
    c[theta] = theta_cost
    lower[theta] = theta_lower
    upper[theta] = theta_upper
    lp = LinearProgram(c=c, a_eq=a_eq, b_eq=b_link, a_le=a_le, b_le=b_le,
                       lower=lower, upper=upper)
    return lp, _Columns(alpha_col, theta, aux_cols)


def _private_nodes(verts):
    """Node ids for free per-vertex factorization: no two scenarios share one."""
    k, t = verts.shape
    return np.arange(k * t).reshape(k, t)


def _policy_result(inst, what, sol, cols, readout):
    """The procurement that a policy LP's solution buys, at inst's prices:
    alpha is priced and the non-scalable resources add their fixed price."""
    if sol.status is LpStatus.INFEASIBLE:
        return _infeasible()
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalError(f"{what} LP became unbounded")
    x = sol.point
    const = sum(res.price for res in inst.resources if not res.scalable)
    alphas = np.array([x[cols.alpha[i]] if i in cols.alpha else 1.0
                       for i in range(inst.n_resources)])
    return ProcurementResult(LpStatus.OPTIMAL, alphas,
                             float(sol.objective_value + const),
                             readout(x[cols.theta], x, cols))


def _solve_policy(inst, what, readout, n_theta, trajectory, links, **bounds):
    """Cheapest procurement within a policy class."""
    lp, cols = _coverage_lp(inst.resources, _private_nodes(inst.demand.vertices),
                            n_theta, trajectory, links, **bounds)
    return _policy_result(inst, what, solve_lp(lp), cols, readout)


def _oracle_lp(inst):
    """The oracle LP, its column plan and its certificate readout.

    The parameters are a free trajectory per resource per demand vertex
    (resource-major); conservation ties the trajectories to the vertex.
    """
    verts = inst.demand.vertices
    k, t = verts.shape
    n = inst.n_resources

    def trajectory(i, kk):
        return (i * k + kk) * t + np.arange(t), np.eye(t)

    def readout(theta, x, cols):
        return {"q": theta.reshape(n, k, t), "aux": [x[a] for a in cols.aux]}

    links = (np.tile(np.eye(k * t), (1, n)), verts.ravel())
    lp, cols = _coverage_lp(inst.resources, _private_nodes(verts), n * k * t,
                            trajectory, links)
    return lp, cols, readout


def solve_oracle(inst):
    """Minimum cost when each demand vertex may be factorized independently."""
    lp, cols, readout = _oracle_lp(inst)
    return _policy_result(inst, "oracle", solve_lp(lp), cols, readout)


def oracle_sweep(inst, price_rows):
    """solve_oracle at each row of resource prices (one price per resource),
    in order; the instance's own prices are not used.

    Prices do not move the oracle's rows, so its LP is assembled once and
    solved under one objective per row with lp.solve_lp_costs.
    """
    swept = []
    for row in price_rows:
        if len(row) != inst.n_resources:
            raise ValueError(f"each price row needs {inst.n_resources} prices")
        resources = tuple(Resource(res.set, price, res.scalable)
                          for res, price in zip(inst.resources, row))
        swept.append(ProcurementInstance(resources, inst.demand))
    lp, cols, readout = _oracle_lp(inst)
    costs = []
    for priced in swept:
        c = lp.c.copy()
        for i, col in cols.alpha.items():
            c[col] = priced.resources[i].price
        costs.append(c)
    return [_policy_result(priced, "oracle", sol, cols, readout)
            for priced, sol in zip(swept, solve_lp_costs(lp, costs))]


def _proportions(resources, verts, **bounds):
    """The fixed-proportion LP, resource i's trajectory at vertex k being
    theta_i * v_k: its optimal point (None if there is none) and column plan."""
    lp, cols = _coverage_lp(resources, _private_nodes(verts), len(resources),
                            lambda i, kk: ([i], verts[kk][:, None]), **bounds)
    sol = solve_lp(lp)
    return (sol.point if sol.status is LpStatus.OPTIMAL else None), cols


def cover_scale(p, verts):
    """k_i: the smallest alpha with every vertex inside alpha * S_i, or None."""
    verts = np.asarray(verts, dtype=float)
    if p.n_aux == 0 and np.all(p.b > 0):
        ratios = (p.a @ verts.T) / p.b[:, None]
        return float(max(0.0, ratios.max()))
    # The whole signal on one priced resource: a proportion pinned to 1.
    point, cols = _proportions([Resource(p, 1.0)], verts,
                               theta_lower=1.0, theta_upper=1.0)
    return None if point is None else float(point[cols.alpha[0]])


def proportional_bound(inst):
    """Fixed-proportion policy cost: non-scalables take their largest workable
    proportions; one scalable resource (cheapest by virtual price k_i p_i)
    absorbs the remainder."""
    verts = inst.demand.vertices
    n = inst.n_resources
    non_idx = [i for i, r in enumerate(inst.resources) if not r.scalable]
    sc_idx = [i for i, r in enumerate(inst.resources) if r.scalable]

    beta = np.zeros(n)
    alphas = np.zeros(n)
    for i in non_idx:
        # the largest beta in [0, 1] with beta * v_k inside the unit set for all k
        point, _ = _proportions([inst.resources[i]], verts, theta_cost=-1.0,
                                theta_lower=0.0, theta_upper=1.0)
        if point is None:
            return _infeasible()  # no fixed proportion keeps this resource feasible
        beta[i] = point[0]
        alphas[i] = 1.0
    total_bar = sum(beta[non_idx])
    non_cost = sum(inst.resources[i].price for i in non_idx)

    if non_idx and total_bar >= 1.0:
        # proportions for the non-scalables alone: sum to one, each feasible
        point, cols = _proportions([inst.resources[i] for i in non_idx], verts,
                                   links=(np.ones((1, len(non_idx))), [1.0]),
                                   theta_lower=0.0, theta_upper=1.0)
        if point is None:
            return _infeasible()
        beta[non_idx] = point[cols.theta]
        return ProcurementResult(LpStatus.OPTIMAL, alphas, float(non_cost),
                                 {"beta": beta, "virtual_prices": {}})

    residual = 1.0 - total_bar

    virtual = {}
    candidates = []
    for i in sc_idx:
        ki = cover_scale(inst.resources[i].set, verts)
        if ki is None:
            continue  # cannot cover the demand at any scale; out of the pool
        virtual[i] = ki * inst.resources[i].price
        candidates.append((virtual[i], i, ki))
    if not candidates:
        return _infeasible()
    _, winner, k_win = min(candidates)
    beta[winner] = residual
    alphas[winner] = k_win * residual
    cost = non_cost + inst.resources[winner].price * alphas[winner]
    return ProcurementResult(LpStatus.OPTIMAL, alphas, float(cost),
                             {"beta": beta, "virtual_prices": virtual})


def tv_proportional_bound(inst):
    """Time-varying proportions: beta_i^t >= 0 summing to one per period."""
    verts = inst.demand.vertices
    t = inst.horizon
    n = inst.n_resources

    def trajectory(i, kk):
        return i * t + np.arange(t), np.diag(verts[kk])

    links = (np.tile(np.eye(t), (1, n)), np.ones(t))
    return _solve_policy(inst, "time-varying proportion",
                         lambda theta, x, cols: {"beta": theta.reshape(n, t)},
                         n * t, trajectory, links, theta_lower=0.0)


def affine_bound(inst):
    """Causal-affine policies phi_i(e) = F_i e + D_i with lower-triangular F_i,
    sum F_i = I and sum D_i = 0; cost of the cheapest feasible policy.

    The parameters are every packed lower triangle F_i, then every D_i.
    """
    verts = inst.demand.vertices
    t = inst.horizon
    n = inst.n_resources
    tri_r, tri_c = np.tril_indices(t)
    ntri = tri_r.size

    def trajectory(i, kk):
        # F_i's packed lower triangle to F_i @ v_k, entry (r, (r, c)) = v_k[c]; D_i
        block = np.zeros((t, ntri + t))
        block[tri_r, np.arange(ntri)] = verts[kk][tri_c]
        block[:, ntri:] = np.eye(t)
        return (np.r_[i * ntri + np.arange(ntri), n * ntri + i * t + np.arange(t)],
                block)

    def readout(theta, x, cols):
        f = np.zeros((n, t, t))
        f[:, tri_r, tri_c] = theta[:n * ntri].reshape(n, ntri)
        return {"F": f, "D": theta[n * ntri:].reshape(n, t)}

    a_link = np.zeros((ntri + t, n * (ntri + t)))
    a_link[:ntri, :n * ntri] = np.tile(np.eye(ntri), (1, n))
    a_link[ntri:, n * ntri:] = np.tile(np.eye(t), (1, n))
    b_link = np.concatenate([(tri_r == tri_c).astype(float), np.zeros(t)])
    return _solve_policy(inst, "affine policy", readout, n * (ntri + t),
                         trajectory, (a_link, b_link))


def battery_exact_procurement(batteries, prices):
    """The aggregate two-row LP whose value is the exact causal cost for
    battery fleets whose demand is the full Minkowski sum (long horizons).

    Requires zero initial charge and sum C_i <= 2 sum r_i.  The horizon must
    also be long enough for the adversarial charge/discharge cycles to fit
    (always true for fleets with r_i <= C_i <= 2 r_i and horizon >= 2); that
    condition is the caller's responsibility.
    """
    batteries = list(batteries)
    prices = np.asarray(prices, dtype=float)
    if prices.size != len(batteries):
        raise ValueError("one price per battery required")
    if np.any(prices < 0):
        raise ValueError("prices must be nonnegative")
    charged = [i for i, b in enumerate(batteries) if b.soc != 0]
    if charged:
        raise PreconditionError(
            f"battery {charged[0]} has initial charge {batteries[charged[0]].soc}; "
            "the exact causal cost needs every battery empty")
    caps = np.array([b.capacity for b in batteries])
    rates = np.array([b.rate for b in batteries])
    if caps.sum() > 2 * rates.sum() + 1e-9:
        raise PreconditionError(
            f"total capacity {caps.sum()} exceeds twice the total rate {2 * rates.sum()}")
    swing = np.minimum(2 * rates, caps)
    a_le = -np.vstack([rates, swing])
    b_le = -np.array([rates.sum(), caps.sum()])
    sol = solve_lp(LinearProgram(c=prices, a_le=a_le, b_le=b_le,
                                 lower=np.zeros(len(batteries))))
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalError(f"aggregate battery LP came back {sol.status.value}")
    return ProcurementResult(LpStatus.OPTIMAL, sol.point.copy(),
                             float(sol.objective_value),
                             {"rate_need": float(rates.sum()),
                              "energy_need": float(caps.sum())})


def price_of_causality(jstar, jss):
    """Cost premium of causal allocation: jss / jstar."""
    if jstar <= FEAS_TOL:
        raise ValueError("price of causality undefined for zero-cost instances")
    return jss / jstar


def minkowski_demand(resources):
    """Demand equal to the Minkowski sum of the resources' unit sets,
    reduced to its extreme points after each addition: every vertex of a sum
    is a sum of vertices of its summands that maximize a common direction
    (Gritzmann & Sturmfels 1993), so pruning loses none."""
    hulls = [hrep_to_vrep(res.set) for res in resources]
    demand = extreme_points(minkowski_candidate_vertices(hulls[:2]))
    for hull in hulls[2:]:
        demand = extreme_points(minkowski_candidate_vertices([demand, hull]))
    return demand
