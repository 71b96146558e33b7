"""Causal feasibility over finite scenario sets and constructive dispatch.

A finite set of demand signals becomes a prefix tree; a causal dispatch must
make identical decisions on identical prefixes, so per-resource outputs
attach to tree nodes rather than scenarios.  Lifted coordinates carrying a
period annotation (e.g. per-job schedules) share variables the same way;
unannotated lifts are free per scenario.

Also here: affine policy dispatch and the alternating capacity-block policy
for battery fleets procured at the aggregate two-row LP optimum.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .lp import FEAS_TOL, check_feasible
from .polytope import contains_point
from .procurement import PreconditionError, _coverage_lp

PREFIX_TOL = 1e-9
REPLAY_TOL = 1e-7  # slack of a replayed dispatch: signal sum, unprocured output
PROCURED_TOL = 1e-6  # slack of the aggregate rows a block policy needs


@dataclass
class TreeNode:
    node_id: int
    parent: int
    depth: int
    value: float
    children: list = field(default_factory=list)


class ScenarioTree:
    """Prefix tree of equal-length signals; node 0 is the virtual root."""

    def __init__(self, signals):
        signals = np.atleast_2d(np.asarray(signals, dtype=float))
        if signals.size == 0:
            raise ValueError("need at least one scenario")
        if not np.all(np.isfinite(signals)):
            raise ValueError("scenario values must be finite")
        self.signals = signals
        self.horizon = signals.shape[1]
        self.nodes = [TreeNode(0, -1, 0, 0.0)]
        self.scenario_leaves = []
        for row in signals:
            cur = self.nodes[0]
            for value in row:
                nxt = None
                for cid in cur.children:
                    if abs(self.nodes[cid].value - value) <= PREFIX_TOL:
                        nxt = self.nodes[cid]
                        break
                if nxt is None:
                    nxt = TreeNode(len(self.nodes), cur.node_id,
                                   cur.depth + 1, float(value))
                    self.nodes.append(nxt)
                    cur.children.append(nxt.node_id)
                cur = nxt
            self.scenario_leaves.append(cur.node_id)

    @property
    def n_scenarios(self):
        return len(self.scenario_leaves)

    @property
    def n_nodes(self):
        return len(self.nodes)

    def leaves(self):
        return sorted(set(self.scenario_leaves))

    def path(self, leaf_id):
        """Node ids along the root-to-leaf path, depths 1..T."""
        out = []
        node = self.nodes[leaf_id]
        while node.depth > 0:
            out.append(node.node_id)
            node = self.nodes[node.parent]
        return out[::-1]


def build_scenario_tree(signals):
    return ScenarioTree(signals)


@dataclass
class CausalCheck:
    feasible: bool
    node_outputs: dict = None       # node_id -> per-resource output at that step
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
    if np.any(alphas < 0):
        raise ValueError("alphas must be nonnegative")
    t = tree.horizon
    for res in resources:
        if res.set.horizon != t:
            raise ValueError("resource horizon differs from scenario length")

    # Node-major outputs: parameter (node_id - 1) * n + i is resource i's
    # output at that node.
    n = len(resources)
    paths = np.array([tree.path(leaf) for leaf in tree.leaves()])

    def trajectory(i, kk):
        m = np.zeros((t, (tree.n_nodes - 1) * n))
        m[np.arange(t), (paths[kk] - 1) * n + i] = 1.0
        return m

    values = np.array([node.value for node in tree.nodes[1:]])
    links = (np.kron(np.eye(tree.n_nodes - 1), np.ones((1, n))), values)
    lp, cols = _coverage_lp(resources, paths, (tree.n_nodes - 1) * n,
                            trajectory, links, alphas=alphas)
    res = check_feasible(lp)
    if not res.feasible:
        return CausalCheck(False)

    outputs = res.point[cols.theta].reshape(tree.n_nodes - 1, n)
    node_outputs = {node.node_id: outputs[node.node_id - 1]
                    for node in tree.nodes[1:]}
    scenario_paths = np.array([tree.path(leaf) for leaf in tree.scenario_leaves])
    traj = outputs[scenario_paths - 1].transpose(0, 2, 1)
    return CausalCheck(True, node_outputs, traj)


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
class Block:
    owner: int      # original battery index
    start: float
    size: float
    kind: str       # "single", "first", "second"


@dataclass(frozen=True)
class BlockSchedule:
    blocks: tuple
    batteries: tuple
    alphas: np.ndarray
    initial_fill: float
    total: float
    split_ledger: tuple

    def required_soc(self):
        """Initial state of charge (fraction of procured capacity) each
        battery must start at for the schedule to work from initial_fill."""
        fills = self._fills(self.initial_fill)
        out = np.zeros(len(self.batteries))
        for i, (spec, a) in enumerate(zip(self.batteries, self.alphas)):
            cap = a * spec.capacity
            out[i] = fills[i] / cap if cap > 1e-12 else 0.0
        return out

    def _fills(self, x):
        fills = np.zeros(len(self.batteries))
        for blk in self.blocks:
            fills[blk.owner] += np.clip(x - blk.start, 0.0, blk.size)
        return fills


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

    # virtual parts: (owner, cap, rate, part kind) at unit alpha
    singles = []    # cap <= rate: one block of cap
    doubles = []    # cap >= 2 * rate: two blocks of rate
    split_ledger = []
    for i, b in enumerate(batteries):
        if alphas[i] <= 1e-12:
            continue
        c, r = b.capacity, b.rate
        if c <= r + 1e-12:
            singles.append((i, c, "single"))
        elif c >= 2 * r - 1e-12:
            doubles.append((i, r, c / r, "first"))
        else:
            balanced = 2 * r - c     # part with cap = rate
            rest_rate = c - r        # part with cap = 2 * rate
            singles.append((i, balanced, "single"))
            doubles.append((i, rest_rate, 2.0, "first"))
            split_ledger.append({"battery": i,
                                 "balanced_capacity": balanced,
                                 "double_rate": rest_rate})
    doubles.sort(key=lambda d: (-d[2], d[0]))

    blocks = []
    cursor = 0.0

    def push(owner, size, kind):
        nonlocal cursor
        blocks.append(Block(owner, cursor, size, kind))
        cursor += size

    for owner, rate, _, _ in doubles:
        push(owner, alphas[owner] * rate, "first")
    for owner, cap, kind in singles:
        push(owner, alphas[owner] * cap, kind)
    for owner, rate, _, _ in doubles:
        push(owner, alphas[owner] * rate, "second")

    initial_fill = float(sum(b.soc * b.capacity for b in batteries))
    return BlockSchedule(tuple(blocks), batteries, alphas, initial_fill,
                         float(cursor), tuple(split_ledger))


def dispatch_block(schedule, signal):
    """Dispatch one signal through the block schedule.

    Returns per-battery powers (n_batteries, T).  Raises DispatchRangeError
    when the running total leaves [0, total]; power limits are asserted,
    since the layout guarantees them for any in-range signal.
    """
    signal = np.asarray(signal, dtype=float)
    n = len(schedule.batteries)
    powers = np.zeros((n, signal.size))
    x = schedule.initial_fill
    fills = schedule._fills(x)
    for t, e in enumerate(signal):
        x_new = x + e
        if x_new < -FEAS_TOL or x_new > schedule.total + FEAS_TOL:
            raise DispatchRangeError(t + 1, x_new)
        x_new = min(max(x_new, 0.0), schedule.total)
        new_fills = schedule._fills(x_new)
        step = new_fills - fills
        for i in range(n):
            limit = schedule.alphas[i] * schedule.batteries[i].rate
            assert abs(step[i]) <= limit + 1e-7, \
                f"battery {i} asked for {step[i]} against rate {limit}"
        powers[:, t] = step
        fills = new_fills
        x = x_new
    return powers


def read_signals(path):
    """Scenario list from a .json file (array of arrays) or a .csv file
    (optional header row, one signal per row)."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            return np.atleast_2d(np.asarray(json.load(fh), dtype=float))
    return _read_csv(path)


def _read_csv(path):
    """Numeric rows of a CSV file whose first row may be a header.

    Empty, header-only, ragged and non-numeric files raise ValueError with
    a one-line message.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise ValueError(f"cannot read CSV from {path}: {exc}")
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
        raise ValueError(f"non-numeric cell in {path}: {exc}")
