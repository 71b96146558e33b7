"""Causal feasibility over finite scenario sets and constructive dispatch.

A finite set of demand signals becomes a prefix tree; a causal dispatch must
make identical decisions on identical prefixes, so per-resource outputs
attach to tree nodes rather than scenarios.  Lifted coordinates carrying a
period annotation (e.g. per-job schedules) share variables the same way;
unannotated lifts are free per scenario.

Also here: affine policy dispatch and the alternating capacity-block policy
for battery fleets procured at the aggregate two-row LP optimum.
"""

from dataclasses import dataclass

import numpy as np

from .lp import FEAS_TOL, LpStatus, check_feasible
from .polytope import contains_point, scale
from .procurement import PreconditionError, Resource, _coverage_lp

PREFIX_TOL = 1e-9
REPLAY_TOL = 1e-7  # slack of a replayed dispatch: signal sum, unprocured output
PROCURED_TOL = 1e-6  # slack of the aggregate rows a block policy needs


class ScenarioTree:
    """Prefix tree of equal-length signals, held as arrays.

    Node 0 is the virtual root.  ``paths[k, t]`` is the id of scenario k's
    node at period t + 1; ``depth`` and ``value`` hold one entry per node.
    Ids are numbered in first-seen order, scenario by scenario, and a child
    matches a signal value within PREFIX_TOL.
    """

    def __init__(self, signals):
        signals = np.atleast_2d(np.asarray(signals, dtype=float))
        if signals.size == 0:
            raise ValueError("need at least one scenario")
        if not np.all(np.isfinite(signals)):
            raise ValueError("scenario values must be finite")
        depth, value, children = [0], [0.0], [[]]
        self.paths = np.zeros(signals.shape, dtype=int)
        for k, row in enumerate(signals):
            cur = 0
            for t, v in enumerate(row):
                nxt = next((c for c in children[cur]
                            if abs(value[c] - v) <= PREFIX_TOL), None)
                if nxt is None:
                    nxt = len(value)
                    depth.append(t + 1)
                    value.append(float(v))
                    children.append([])
                    children[cur].append(nxt)
                self.paths[k, t] = cur = nxt
        self.depth = np.array(depth)
        self.value = np.array(value)

    @property
    def n_scenarios(self):
        return len(self.paths)

    @property
    def n_nodes(self):
        return len(self.value)


def build_scenario_tree(signals):
    return ScenarioTree(signals)


@dataclass
class CausalCheck:
    feasible: bool
    node_outputs: np.ndarray = None  # (n_nodes, n_resources); the root row is 0
    trajectories: np.ndarray = None  # (n_scenarios, n_resources, T)


def causal_feasibility(tree, resources, alphas):
    """Can outputs attached to tree nodes cover every scenario within the
    alpha-scaled unit sets?

    Output variables live on nodes.  A lifted coordinate annotated with
    period tau lives on the depth-tau node of each scenario path (so it is
    committed when that period's signal is revealed); unannotated lifts stay
    per leaf.
    """
    resources = list(resources)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size != len(resources):
        raise ValueError("one alpha per resource required")
    if not np.all((alphas >= 0) & np.isfinite(alphas)):
        raise ValueError(f"alphas must be finite and nonnegative, got {alphas.tolist()}")
    t = tree.paths.shape[1]
    for res in resources:
        if res.set.horizon != t:
            raise ValueError("resource horizon differs from scenario length")

    # Node-major outputs: parameter (node_id - 1) * n + i is resource i's
    # output at that node.  The LP has one scenario per distinct leaf, in
    # ascending leaf id.
    n = len(resources)
    paths = tree.paths[np.unique(tree.paths[:, -1], return_index=True)[1]]

    def trajectory(i, kk):
        return (paths[kk] - 1) * n + i, np.eye(t)

    links = (np.kron(np.eye(tree.n_nodes - 1), np.ones((1, n))), tree.value[1:])
    pinned = [Resource(scale(res.set, a), 0.0, False) for res, a in zip(resources, alphas)]
    lp, cols = _coverage_lp(pinned, paths, (tree.n_nodes - 1) * n, trajectory, links)
    res = check_feasible(lp)
    if res.status is not LpStatus.OPTIMAL:
        return CausalCheck(False)

    node_outputs = np.zeros((tree.n_nodes, n))
    node_outputs[1:] = res.point[cols.theta].reshape(tree.n_nodes - 1, n)
    return CausalCheck(True, node_outputs,
                       node_outputs[tree.paths].transpose(0, 2, 1))


def verify_dispatch(trajectories, resources, alphas, signal=None):
    """Replay check: each per-resource trajectory lies in its scaled set and,
    when the signal is given, the trajectories sum to it."""
    trajectories = np.asarray(trajectories, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if signal is not None:
        if not np.allclose(trajectories.sum(axis=0), signal, atol=REPLAY_TOL):
            return False
    for i, res in enumerate(resources):
        if alphas[i] > 1e-12:
            if not contains_point(res.set, trajectories[i], delta=float(alphas[i])):
                return False
        elif np.max(np.abs(trajectories[i])) > REPLAY_TOL:
            return False
    return True


@dataclass(frozen=True)
class AffinePolicy:
    """Dispatch e -> F_i e + D_i; lower-triangular F_i makes it causal."""

    f: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if f.ndim != 3 or f.shape[1] != f.shape[2]:
            raise ValueError("f must be (n_resources, T, T)")
        if d.shape != f.shape[:2]:
            raise ValueError("d must be (n_resources, T)")
        for i in range(f.shape[0]):
            if np.any(np.triu(f[i], 1) != 0.0):
                raise ValueError("gain matrices must be lower triangular")
        if not np.allclose(f.sum(axis=0), np.eye(f.shape[1]), atol=FEAS_TOL):
            raise ValueError("gains must sum to the identity")
        if not np.allclose(d.sum(axis=0), 0.0, atol=FEAS_TOL):
            raise ValueError("offsets must sum to zero")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "d", d)

    @property
    def n_resources(self):
        return self.f.shape[0]

    @property
    def horizon(self):
        return self.f.shape[1]


def dispatch_affine(policy, signal):
    """Per-resource outputs for one signal; rows sum to the signal exactly."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (policy.horizon,):
        raise ValueError("signal length differs from policy horizon")
    return policy.f @ signal + policy.d


class DispatchRangeError(RuntimeError):
    """The running signal total left the range the schedule can cover."""

    def __init__(self, period, fill):
        super().__init__(
            f"aggregate fill {fill} leaves the covered range at period {period}")
        self.period = period
        self.fill = fill


@dataclass(frozen=True)
class BlockSchedule:
    """Blocks along the aggregate fill axis, one array entry per block:
    block k belongs to battery ``owner[k]`` and covers fills
    [start[k], start[k] + size[k]]."""

    owner: np.ndarray
    start: np.ndarray
    size: np.ndarray
    batteries: tuple
    alphas: np.ndarray
    initial_fill: float
    total: float

    def fills(self, x):
        """Per-battery share of the aggregate fill x."""
        return np.bincount(self.owner, np.clip(x - self.start, 0.0, self.size),
                           minlength=len(self.batteries))

    def required_soc(self):
        """Initial state of charge (fraction of procured capacity) each
        battery must start at for the schedule to work from initial_fill."""
        caps = self.alphas * np.array([b.capacity for b in self.batteries])
        return np.divide(self.fills(self.initial_fill), caps,
                         out=np.zeros(caps.size), where=caps > 1e-12)


def build_block_policy(batteries, alphas):
    """Lay out the procured capacities as blocks along the aggregate fill
    axis: batteries with capacity >= twice the rate contribute two rate-sized
    blocks bracketing everything else, intermediate batteries are split into
    a balanced part and a two-block part, and the rest sit in the middle.
    The gap between any battery's two blocks then exceeds the other
    batteries' total per-step rate, which keeps every step's share within
    each battery's power limit.

    Preconditions: the two aggregate procurement rows hold at these alphas,
    and every battery with positive alpha has capacity >= rate.
    """
    batteries = tuple(batteries)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size != len(batteries):
        raise ValueError("one alpha per battery required")
    if np.any(alphas < -1e-12):
        raise PreconditionError("alphas must be nonnegative")
    alphas = np.clip(alphas, 0.0, None)
    caps = np.array([b.capacity for b in batteries])
    rates = np.array([b.rate for b in batteries])
    if alphas @ rates < rates.sum() - PROCURED_TOL:
        raise PreconditionError("procured rate below the fleet's total rate")
    if alphas @ np.minimum(2 * rates, caps) < caps.sum() - PROCURED_TOL:
        raise PreconditionError("procured swing below the fleet's total capacity")
    for i, b in enumerate(batteries):
        if alphas[i] > 1e-9 and b.capacity < b.rate - 1e-12:
            raise PreconditionError(
                f"battery {i} has rate above capacity; its two-pass gap "
                "argument fails")

    # Unit-alpha parts: cap <= rate is one block of cap; cap >= 2 * rate is
    # two blocks of rate; in between, a block of 2 * rate - cap plus two
    # blocks of cap - rate.  Two-block parts sort by falling cap / rate
    # (2 for a split battery), then by index.
    single = caps <= rates + 1e-12
    double = ~single & (caps >= 2 * rates - 1e-12)
    procured = alphas > 1e-12
    ones = np.flatnonzero(procured & ~double)
    twos = np.flatnonzero(procured & ~single)
    ones_part = np.where(single, caps, 2 * rates - caps)[ones]
    twos_part = np.where(double, rates, caps - rates)[twos]
    order = np.argsort(-np.where(double, caps / rates, 2.0)[twos], kind="stable")
    twos, twos_part = twos[order], twos_part[order]

    owner = np.concatenate([twos, ones, twos])
    size = alphas[owner] * np.concatenate([twos_part, ones_part, twos_part])
    cursor = np.concatenate([[0.0], np.cumsum(size)])
    initial_fill = float(sum(b.soc * b.capacity for b in batteries))
    return BlockSchedule(owner, cursor[:-1], size, batteries, alphas,
                         initial_fill, float(cursor[-1]))


def dispatch_block(schedule, signal):
    """Dispatch one signal through the block schedule.

    Returns per-battery powers (n_batteries, T).  Raises DispatchRangeError
    when the running total leaves [0, total]; power limits are asserted,
    since the layout guarantees them for any in-range signal.
    """
    signal = np.asarray(signal, dtype=float)
    limits = schedule.alphas * np.array([b.rate for b in schedule.batteries])
    powers = np.zeros((limits.size, signal.size))
    x = schedule.initial_fill
    fills = schedule.fills(x)
    for t, e in enumerate(signal):
        x_new = x + e
        if x_new < -FEAS_TOL or x_new > schedule.total + FEAS_TOL:
            raise DispatchRangeError(t + 1, x_new)
        x_new = min(max(x_new, 0.0), schedule.total)
        new_fills = schedule.fills(x_new)
        powers[:, t] = step = new_fills - fills
        assert np.all(np.abs(step) <= limits + 1e-7), \
            f"steps {step} exceed the rate limits {limits}"
        fills = new_fills
        x = x_new
    return powers
