"""Scenario-tree causal checks, dispatch replay, and the block policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprocure.causal import (
    DispatchRangeError,
    build_block_policy,
    build_scenario_tree,
    causal_feasibility,
    dispatch_block,
    verify_dispatch,
)
from polyprocure.inputs import read_signals
from polyprocure.lp import FEAS_TOL, LpStatus
from polyprocure.polytope import (
    BatchJob,
    BatterySpec,
    VPolytope,
    batch_workload_set,
    battery_set,
    instance_set,
    scale,
)
from polyprocure.procurement import (
    PreconditionError,
    ProcurementInstance,
    Resource,
    battery_exact_procurement,
    solve_oracle,
)

from _fleets import (
    exact_regime_fleet,
    random_battery,
    sample_battery_trajectory,
)

FAST = battery_set(BatterySpec(3, 3, 0, 3))
SLOW = battery_set(BatterySpec(3, 1, 0, 3))
BATTERY_RESOURCES = (Resource(FAST, 3.0), Resource(SLOW, 1.0))

CLOUD_RESOURCES = (
    Resource(instance_set(4), 1.0),
    Resource(batch_workload_set([BatchJob(1, 2, 1), BatchJob(1, 4, 2)], 4), 0.0,
             scalable=False),
)


def point_coverable(resources, alphas, e):
    """Non-causal factorization check for a single signal."""
    scaled = tuple(Resource(scale(r.set, float(a)), 0.0, scalable=False)
                   for r, a in zip(resources, alphas))
    inst = ProcurementInstance(scaled, VPolytope([e]))
    return solve_oracle(inst).feasible


class TestTree:
    def test_shared_prefix_merges(self):
        tree = build_scenario_tree([[1, 1, -2], [1, 1, 4]])
        assert tree.n_nodes == 5  # root + two shared + two leaves
        assert tree.n_scenarios == 2
        assert len(set(tree.paths[:, -1])) == 2
        assert tree.depth.tolist() == [0, 1, 2, 3, 3]

    def test_tolerance_merging(self):
        tree = build_scenario_tree([[1.0, 2.0], [1.0 + 1e-12, 2.5]])
        assert np.sum(tree.depth == 1) == 1
        assert tree.paths[0, 0] == tree.paths[1, 0]

    def test_distinct_first_step_branches(self):
        tree = build_scenario_tree([[1.0, 2.0], [2.0, 2.0]])
        assert np.sum(tree.depth == 1) == 2
        assert len(set(tree.paths[:, -1])) == 2

    def test_path_reconstructs_signal(self):
        signals = [[1, 1, -2], [1, 1, 4], [0, 0, 0]]
        tree = build_scenario_tree(signals)
        assert tree.value[tree.paths].tolist() == np.asarray(signals, float).tolist()
        assert np.all(tree.depth[tree.paths] == np.arange(1, 4))

    def test_duplicate_signal_shares_leaf(self):
        tree = build_scenario_tree([[1, 2], [1, 2]])
        assert tree.n_scenarios == 2
        assert tree.paths[0].tolist() == tree.paths[1].tolist()
        assert tree.n_nodes == 3

    def test_first_seen_numbering(self):
        # Ids follow the scenarios in order, depth by depth within each;
        # the causal-check report keys its nodes by these ids.
        tree = build_scenario_tree([[1, 2, 3], [1, 5, 6], [0, 2, 3], [1, 2, 7]])
        assert tree.paths.tolist() == [[1, 2, 3], [1, 4, 5], [6, 7, 8], [1, 2, 9]]
        assert tree.value.tolist() == [0, 1, 2, 3, 5, 6, 0, 2, 3, 7]
        assert tree.depth.tolist() == [0, 1, 2, 3, 2, 3, 1, 2, 3, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_scenario_tree(np.zeros((0, 3)))


class TestCausalFeasibility:
    def test_battery_counterexample(self):
        tree = build_scenario_tree([[1, 1, -2], [1, 1, 4]])
        check = causal_feasibility(tree, BATTERY_RESOURCES, [1.0, 1.0])
        assert not check.feasible

    def test_each_battery_scenario_alone_works(self):
        for sig in ([[1, 1, -2]], [[1, 1, 4]]):
            check = causal_feasibility(build_scenario_tree(sig),
                                       BATTERY_RESOURCES, [1.0, 1.0])
            assert check.feasible

    def test_battery_pair_feasible_with_more_budget(self):
        tree = build_scenario_tree([[1, 1, -2], [1, 1, 4]])
        check = causal_feasibility(tree, BATTERY_RESOURCES, [2.0, 2.0])
        assert check.feasible

    def test_cloud_counterexample(self):
        tree = build_scenario_tree([[1, 2, 1, 1], [1, 0.5, 1.5, 2]])
        check = causal_feasibility(tree, CLOUD_RESOURCES, [2.0, 1.0])
        assert not check.feasible

    def test_each_cloud_scenario_alone_works(self):
        for sig in ([[1, 2, 1, 1]], [[1, 0.5, 1.5, 2]]):
            check = causal_feasibility(build_scenario_tree(sig),
                                       CLOUD_RESOURCES, [2.0, 1.0])
            assert check.feasible

    def test_feasible_certificate_replays(self):
        signals = [[1, 1, -2], [0.5, -0.5, 1], [1, 1, 4]]
        tree = build_scenario_tree(signals)
        check = causal_feasibility(tree, BATTERY_RESOURCES, [2.0, 2.0])
        assert check.feasible
        for s, sig in enumerate(signals):
            assert verify_dispatch(check.trajectories[s], BATTERY_RESOURCES,
                                   [2.0, 2.0], signal=sig)

    def test_trajectories_read_node_outputs(self):
        signals = [[1, 1, -2], [0.5, -0.5, 1], [1, 1, 4], [1, 1, -2]]
        tree = build_scenario_tree(signals)
        check = causal_feasibility(tree, BATTERY_RESOURCES, [2.0, 2.0])
        assert check.feasible
        assert check.node_outputs.shape == (tree.n_nodes, 2)
        assert np.all(check.node_outputs[0] == 0.0)
        assert np.array_equal(check.trajectories,
                              check.node_outputs[tree.paths].transpose(0, 2, 1))
        # Outputs at each node split that node's signal value, so each
        # scenario's trajectories add up to its signal.
        assert np.allclose(check.node_outputs[1:].sum(axis=1), tree.value[1:])
        assert np.allclose(check.trajectories.sum(axis=1), signals)

    def test_shared_prefix_shares_outputs(self):
        tree = build_scenario_tree([[1, 1, -2], [1, 1, 4]])
        check = causal_feasibility(tree, BATTERY_RESOURCES, [2.0, 2.0])
        traj = check.trajectories
        assert np.allclose(traj[0, :, :2], traj[1, :, :2])

    def test_single_scenario_matches_factorization(self):
        rng = np.random.default_rng(5)
        agree = 0
        for _ in range(30):
            specs = [random_battery(rng, 3) for _ in range(2)]
            resources = tuple(Resource(battery_set(s), 1.0) for s in specs)
            alphas = rng.uniform(0.3, 1.5, size=2)
            if rng.random() < 0.5:
                e = sum(sample_battery_trajectory(rng, s) for s in specs)
            else:
                e = rng.uniform(-2, 2, size=3)
            tree = build_scenario_tree([e])
            causal = causal_feasibility(tree, resources, alphas).feasible
            direct = point_coverable(resources, alphas, e)
            assert causal == direct
            agree += causal
        assert 0 < agree < 30  # both verdicts appeared

    def test_adding_scenarios_never_helps(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            specs = [random_battery(rng, 3) for _ in range(2)]
            resources = tuple(Resource(battery_set(s), 1.0) for s in specs)
            alphas = rng.uniform(0.4, 1.2, size=2)
            base = [sample_battery_trajectory(rng, specs[0])
                    + sample_battery_trajectory(rng, specs[1]) for _ in range(2)]
            extra = base + [rng.uniform(-1, 1, size=3)]
            small = causal_feasibility(build_scenario_tree(base),
                                       resources, alphas).feasible
            large = causal_feasibility(build_scenario_tree(extra),
                                       resources, alphas).feasible
            assert not (large and not small)

    def test_doubling_budget_preserves_feasibility(self):
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(10):
            specs = [random_battery(rng, 3) for _ in range(2)]
            resources = tuple(Resource(battery_set(s), 1.0) for s in specs)
            signals = [sample_battery_trajectory(rng, specs[0])
                       + sample_battery_trajectory(rng, specs[1])
                       for _ in range(3)]
            tree = build_scenario_tree(signals)
            if causal_feasibility(tree, resources, [1.0, 1.0]).feasible:
                found += 1
                assert causal_feasibility(tree, resources, [2.0, 2.0]).feasible
        assert found > 0

    def test_bad_inputs(self):
        tree = build_scenario_tree([[1, 1, -2]])
        with pytest.raises(ValueError):
            causal_feasibility(tree, BATTERY_RESOURCES, [1.0])
        with pytest.raises(ValueError):
            causal_feasibility(tree, BATTERY_RESOURCES, [-1.0, 1.0])
        short = build_scenario_tree([[1, 1]])
        with pytest.raises(ValueError):
            causal_feasibility(short, BATTERY_RESOURCES, [1.0, 1.0])


class TestVerifyDispatch:
    def test_accepts_oracle_certificate(self):
        inst = ProcurementInstance(
            BATTERY_RESOURCES, VPolytope([[0, 0, 0], [1, 1, -2], [1, 1, 4]]))
        res = solve_oracle(inst)
        for kk, v in enumerate(inst.demand.vertices):
            traj = res.certificate["q"][:, kk, :]
            assert verify_dispatch(traj, inst.resources, res.alphas, signal=v)

    def test_rejects_wrong_sum(self):
        traj = np.array([[1.0, 0, 0], [0, 0, 0]])
        assert not verify_dispatch(traj, BATTERY_RESOURCES, [1, 1],
                                   signal=[2.0, 0, 0])

    def test_rejects_out_of_set(self):
        traj = np.array([[4.0, 0, 0], [0, 0, 0]])  # rate 4 > 3
        assert not verify_dispatch(traj, BATTERY_RESOURCES, [1, 1])


def reference_layout(batteries, alphas):
    """The per-block loop the array layout replaced: (owner, start, size)
    triples in fill order, and the total."""
    singles, doubles = [], []
    for i, b in enumerate(batteries):
        if alphas[i] <= 1e-12:
            continue
        c, r = b.capacity, b.rate
        if c <= r + 1e-12:
            singles.append((i, c))
        elif c >= 2 * r - 1e-12:
            doubles.append((i, r, c / r))
        else:
            singles.append((i, 2 * r - c))
            doubles.append((i, c - r, 2.0))
    doubles.sort(key=lambda d: (-d[2], d[0]))
    parts = [d[:2] for d in doubles] + singles + [d[:2] for d in doubles]
    blocks, cursor = [], 0.0
    for owner, part in parts:
        size = alphas[owner] * part
        blocks.append((owner, cursor, size))
        cursor += size
    return blocks, cursor


def reference_fills(blocks, n, x):
    fills = np.zeros(n)
    for owner, start, size in blocks:
        fills[owner] += np.clip(x - start, 0.0, size)
    return fills


def reference_dispatch(blocks, total, n, initial_fill, signal):
    """Powers of the per-block loop; a range exit raises as dispatch_block."""
    powers = np.zeros((n, len(signal)))
    x = initial_fill
    fills = reference_fills(blocks, n, x)
    for t, e in enumerate(signal):
        x_new = x + e
        if x_new < -FEAS_TOL or x_new > total + FEAS_TOL:
            raise DispatchRangeError(t + 1, x_new)
        x_new = min(max(x_new, 0.0), total)
        new_fills = reference_fills(blocks, n, x_new)
        powers[:, t] = new_fills - fills
        fills = new_fills
        x = x_new
    return powers


def random_block_fleet(rng):
    """1-4 batteries over every capacity regime (cap = rate, cap >= 2 rate,
    in between, and cap < rate left unprocured), soc 0 or 0.5, with alphas
    scaled up until both aggregate rows hold."""
    specs, alphas = [], []
    for _ in range(int(rng.integers(1, 5))):
        rate = float(rng.uniform(0.5, 2.0))
        regime = rng.integers(4)
        cap = rate * float([1.0, rng.uniform(2.0, 4.0), rng.uniform(1.0, 2.0),
                            rng.uniform(0.3, 0.9)][regime])
        specs.append(BatterySpec(cap, rate, float(rng.choice([0.0, 0.5])), 3))
        alphas.append(0.0 if regime == 3 or rng.random() < 0.2
                      else float(rng.uniform(0.5, 3.0)))
    alphas = np.array(alphas)
    if not alphas.any():
        specs[0] = BatterySpec(2 * specs[0].rate, specs[0].rate, 0.0, 3)
        alphas[0] = 1.0
    caps = np.array([s.capacity for s in specs])
    rates = np.array([s.rate for s in specs])
    grow = max(1.0, rates.sum() / (alphas @ rates),
               caps.sum() / (alphas @ np.minimum(2 * rates, caps)))
    return specs, alphas * grow


class TestBlockSchedule:
    def worked_fleet(self):
        return [BatterySpec(1.5, 1, 0, 4),   # split: balanced 0.5 + double
                BatterySpec(2, 1, 0, 4),     # two rate blocks
                BatterySpec(1, 1, 0, 4)]     # one balanced block

    def test_worked_layout(self):
        sched = build_block_policy(self.worked_fleet(), [1.0, 1.0, 1.0])
        # split double part of battery 0 sorts before battery 1 (ratio tie);
        # the balanced blocks sit between the two passes
        assert sched.owner.tolist() == [0, 1, 0, 2, 0, 1]
        assert sched.size.tolist() == [0.5, 1.0, 0.5, 1.0, 0.5, 1.0]
        assert sched.total == pytest.approx(4.5)
        assert sched.start == pytest.approx([0.0, 0.5, 1.5, 2.0, 3.0, 3.5])
        assert sched.initial_fill == 0.0
        assert np.allclose(sched.required_soc(), 0.0)

    def test_preconditions(self):
        fleet = self.worked_fleet()
        with pytest.raises(PreconditionError):
            build_block_policy(fleet, [0.1, 0.1, 0.1])  # rate row fails
        with pytest.raises(PreconditionError):
            build_block_policy([BatterySpec(1, 2, 0, 3)], [2.0])  # cap < rate
        # a capacity-short battery is fine when it is not procured
        mixed = [BatterySpec(1, 2, 0, 3), BatterySpec(4, 2, 0, 3)]
        sched = build_block_policy(mixed, [0.0, 2.5])
        assert sched.owner.tolist() == [1, 1]
        assert sched.size.tolist() == [5.0, 5.0]
        assert sched.total == 10.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_per_block_loop(self, seed):
        rng = np.random.default_rng(seed)
        specs, alphas = random_block_fleet(rng)
        sched = build_block_policy(specs, alphas)
        blocks, total = reference_layout(specs, sched.alphas)
        assert sched.owner.tolist() == [b[0] for b in blocks]
        assert np.array_equal(sched.start, [b[1] for b in blocks])
        assert np.array_equal(sched.size, [b[2] for b in blocks])
        assert sched.total == total
        n = len(specs)
        caps = sched.alphas * np.array([s.capacity for s in specs])
        fills = reference_fills(blocks, n, sched.initial_fill)
        assert np.array_equal(sched.required_soc(),
                              [f / c if c > 1e-12 else 0.0
                               for f, c in zip(fills, caps)])
        rate = sum(s.rate for s in specs)
        for k in range(6):
            # odd k: a walk kept inside [0, total]; even k: a free walk
            signal = rng.uniform(-rate, rate, size=4)
            if k % 2:
                x = np.clip(sched.initial_fill + np.cumsum(signal), 0.0, total)
                signal = np.diff(x, prepend=sched.initial_fill)
            try:
                want = reference_dispatch(blocks, total, n,
                                          sched.initial_fill, signal)
            except DispatchRangeError as err:
                with pytest.raises(DispatchRangeError) as got:
                    dispatch_block(sched, signal)
                assert got.value.period == err.period
            else:
                assert np.array_equal(dispatch_block(sched, signal), want)

    def test_required_soc_half(self):
        sched = build_block_policy([BatterySpec(2, 1, 0.5, 3)], [1.0])
        assert sched.initial_fill == pytest.approx(1.0)
        assert sched.required_soc() == pytest.approx([0.5])

    def test_zero_signal_idles(self):
        sched = build_block_policy(self.worked_fleet(), [1.0, 1.0, 1.0])
        powers = dispatch_block(sched, np.zeros(4))
        assert np.allclose(powers, 0.0)

    def test_out_of_range_reports_period(self):
        sched = build_block_policy(self.worked_fleet(), [1.0, 1.0, 1.0])
        with pytest.raises(DispatchRangeError) as err:
            dispatch_block(sched, [2.0, 2.0, 0.5, -20.0])
        assert err.value.period == 4

    def test_full_swing_walk(self):
        fleet = self.worked_fleet()
        sched = build_block_policy(fleet, [1.0, 1.0, 1.0])
        # per-step moves within the fleet rate (3), staying inside [0, 4.5]
        signal = [3.0, 1.5, -3.0, 3.0]
        powers = dispatch_block(sched, signal)
        assert np.allclose(powers.sum(axis=0), signal)
        for i, spec in enumerate(fleet):
            assert np.max(np.abs(powers[i])) <= spec.rate + 1e-9
            stored = np.cumsum(powers[i])
            assert np.all(stored >= -1e-9)
            assert np.all(stored <= spec.capacity + 1e-9)

    def test_sampled_envelope_walks(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            specs, prices = exact_regime_fleet(rng, n_batteries=3, horizon=3)
            alphas = battery_exact_procurement(specs, prices).alphas
            sched = build_block_policy(specs, alphas)
            caps = sum(s.capacity for s in specs)
            rate = sum(s.rate for s in specs)
            for _ in range(40):
                x = 0.0
                signal = np.zeros(6)
                for t in range(6):
                    lo = max(-rate, -x)
                    hi = min(rate, caps - x)
                    signal[t] = rng.uniform(lo, hi)
                    x += signal[t]
                powers = dispatch_block(sched, signal)
                assert np.allclose(powers.sum(axis=0), signal, atol=1e-9)
                for i, spec in enumerate(specs):
                    limit = alphas[i] * spec.rate
                    assert np.max(np.abs(powers[i])) <= limit + 1e-7
                    stored = np.cumsum(powers[i])
                    assert np.all(stored >= -1e-7)
                    assert np.all(stored <= alphas[i] * spec.capacity + 1e-7)


class TestSignalIo:
    def test_csv_with_header(self, tmp_path):
        f = tmp_path / "sig.csv"
        f.write_text("e1,e2,e3\n1,1,-2\n1,1,4\n")
        sig = read_signals(f)
        assert sig.shape == (2, 3)
        assert sig[1, 2] == 4.0

    def test_csv_without_header(self, tmp_path):
        f = tmp_path / "sig.csv"
        f.write_text("0.5,0.25\n-1,2\n")
        assert read_signals(f).shape == (2, 2)

    def test_json_array(self, tmp_path):
        f = tmp_path / "sig.json"
        f.write_text("[[1, 2, 1, 1], [1, 0.5, 1.5, 2]]")
        assert read_signals(f).shape == (2, 4)
