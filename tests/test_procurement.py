"""Oracle LP, policy bounds, exact battery cost, and instance loading."""

import json

import numpy as np
import pytest

from polyprocure.lp import LpStatus
from polyprocure.polytope import (
    BatchJob,
    BatterySpec,
    VPolytope,
    batch_workload_set,
    battery_set,
    contains_point,
    instance_set,
    scale,
)
from polyprocure.procurement import (
    PreconditionError,
    ProcurementInstance,
    Resource,
    affine_bound,
    battery_exact_jss,
    battery_exact_procurement,
    cover_scale,
    instance_from_json,
    minkowski_demand,
    price_of_causality,
    proportional_bound,
    solve_oracle,
    tv_proportional_bound,
)

from _fleets import box_set, random_fleet_instance

FAST = battery_set(BatterySpec(3, 3, 0, 3))
SLOW = battery_set(BatterySpec(3, 1, 0, 3))


def battery_pair(p_fast=3.0, p_slow=1.0):
    return ProcurementInstance(
        (Resource(FAST, p_fast), Resource(SLOW, p_slow)),
        VPolytope([[0, 0, 0], [1, 1, -2], [1, 1, 4]]))


def cloud_instance():
    box = instance_set(4)
    batch = batch_workload_set([BatchJob(1, 2, 1), BatchJob(1, 4, 2)], 4)
    return ProcurementInstance(
        (Resource(box, 1.0), Resource(batch, 0.0, scalable=False)),
        VPolytope([[0, 0, 0, 0], [1, 0.5, 1.5, 2], [1, 2, 1, 1]]))


def audit_factorization(inst, result, tol=1e-6):
    """Re-substitute the oracle certificate: trajectories sum to each vertex
    and live inside the scaled unit sets."""
    verts = inst.demand.vertices
    q = result.certificate["q"]
    assert np.allclose(q.sum(axis=0), verts, atol=tol)
    for i, res in enumerate(inst.resources):
        a = result.alphas[i]
        assert a >= -tol
        for kk in range(verts.shape[0]):
            if a > 1e-8:
                assert contains_point(res.set, q[i, kk], delta=a)
            else:
                assert np.max(np.abs(q[i, kk])) < tol


class TestOracle:
    def test_battery_pair_worked_example(self):
        res = solve_oracle(battery_pair())
        assert res.feasible
        assert res.cost == pytest.approx(4.0, abs=1e-6)
        assert np.allclose(res.alphas, [1.0, 1.0], atol=1e-6)
        audit_factorization(battery_pair(), res)

    def test_cloud_worked_example(self):
        inst = cloud_instance()
        res = solve_oracle(inst)
        assert res.feasible
        assert res.alphas[0] == pytest.approx(2.0, abs=1e-6)
        assert res.alphas[1] == 1.0
        assert res.cost == pytest.approx(2.0, abs=1e-6)
        audit_factorization(inst, res)

    def test_zero_demand_costs_nothing(self):
        inst = ProcurementInstance(
            (Resource(FAST, 3.0), Resource(SLOW, 1.0)),
            VPolytope([[0, 0, 0]]))
        res = solve_oracle(inst)
        assert res.cost == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(res.alphas, 0.0, atol=1e-8)

    def test_nonscalable_cannot_cover(self):
        inst = ProcurementInstance(
            (Resource(SLOW, 1.0, scalable=False),),
            VPolytope([[5, 0, 0]]))
        res = solve_oracle(inst)
        assert res.status is LpStatus.INFEASIBLE
        assert not res.feasible

    def test_kappa_two_row(self):
        b1 = battery_set(BatterySpec(1, 1, 0, 3))
        b2 = battery_set(BatterySpec(3, 1, 0, 3))
        resources = (Resource(b1, 1.0), Resource(b2, 2.0))
        inst = ProcurementInstance(resources, minkowski_demand(resources))
        res = solve_oracle(inst)
        assert res.cost == pytest.approx(3.0, abs=1e-6)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProcurementInstance((Resource(FAST, 1.0),), VPolytope([[0, 0]]))

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            Resource(FAST, -1.0)
        for price in (np.nan, np.inf):
            with pytest.raises(ValueError, match="price must be finite"):
                Resource(FAST, price)


class TestCoverScale:
    def test_box_fast_path(self):
        k = cover_scale(Resource(instance_set(2), 1.0).set,
                        np.array([[2.0, 0.5]]))
        assert k == pytest.approx(2.0, abs=1e-9)

    def test_battery_scales(self):
        verts = np.array([[0, 0, 0], [1, 1, -2], [1, 1, 4]], dtype=float)
        assert cover_scale(FAST, verts) == pytest.approx(2.0, abs=1e-8)
        assert cover_scale(SLOW, verts) == pytest.approx(4.0, abs=1e-8)

    def test_uncoverable_returns_none(self):
        # prefix sums of the demand go negative; no scale of an initially
        # empty battery allows that
        verts = np.array([[-1.0, 0.0, 0.0]])
        assert cover_scale(battery_set(BatterySpec(1, 1, 0, 3)), verts) is None


class TestProportional:
    def test_battery_pair_merit_order(self):
        res = proportional_bound(battery_pair())
        assert res.feasible
        assert res.cost == pytest.approx(4.0, abs=1e-6)
        assert np.allclose(res.alphas, [0.0, 4.0], atol=1e-6)
        assert np.allclose(res.certificate["beta"], [0.0, 1.0], atol=1e-6)
        assert res.certificate["virtual_prices"][0] == pytest.approx(6.0, abs=1e-6)
        assert res.certificate["virtual_prices"][1] == pytest.approx(4.0, abs=1e-6)

    def test_cloud_batch_has_no_proportion(self):
        # the batch set excludes zero output, so no single proportion of the
        # demand hull (which contains 0) stays inside it
        res = proportional_bound(cloud_instance())
        assert res.status is LpStatus.INFEASIBLE

    def test_nonscalables_cover_everything(self):
        small = VPolytope([[0.2, 0.2, 0.2], [0.1, 0.0, -0.1]])
        inst = ProcurementInstance(
            (Resource(FAST, 3.0, scalable=False),
             Resource(SLOW, 1.0, scalable=False)),
            small)
        res = proportional_bound(inst)
        assert res.feasible
        assert res.cost == pytest.approx(4.0, abs=1e-9)
        beta = res.certificate["beta"]
        assert beta.sum() == pytest.approx(1.0, abs=1e-8)
        for i, r in enumerate(inst.resources):
            for v in small.vertices:
                if beta[i] > 1e-8:
                    assert contains_point(r.set, beta[i] * v)

    def test_single_scalable_resource(self):
        inst = ProcurementInstance(
            (Resource(FAST, 3.0),),
            VPolytope([[1, 1, -2], [1, 1, 4]]))
        res = proportional_bound(inst)
        assert res.cost == pytest.approx(6.0, abs=1e-6)
        assert res.certificate["beta"][0] == pytest.approx(1.0, abs=1e-9)

    def test_tie_breaks_to_lowest_index(self):
        inst = ProcurementInstance(
            (Resource(FAST, 1.0), Resource(FAST, 1.0)),
            VPolytope([[1, 1, -2]]))
        res = proportional_bound(inst)
        assert res.alphas[0] > 0
        assert res.alphas[1] == 0


class TestTimeVarying:
    def test_battery_pair_matches_prop_here(self):
        # oracle and proportional both cost 4, squeezing everything between
        res = tv_proportional_bound(battery_pair())
        assert res.feasible
        assert res.cost == pytest.approx(4.0, abs=1e-6)

    def test_beta_certificate(self):
        inst = battery_pair()
        res = tv_proportional_bound(inst)
        beta = res.certificate["beta"]
        assert np.all(beta >= -1e-8)
        assert np.allclose(beta.sum(axis=0), 1.0, atol=1e-8)
        for i, r in enumerate(inst.resources):
            a = res.alphas[i]
            for v in inst.demand.vertices:
                if a > 1e-8:
                    assert contains_point(r.set, beta[i] * v, delta=a)

    def test_infeasible_when_batch_fixed(self):
        res = tv_proportional_bound(cloud_instance())
        assert res.status is LpStatus.INFEASIBLE


class TestAffine:
    def test_battery_pair(self):
        res = affine_bound(battery_pair())
        assert res.feasible
        assert res.cost == pytest.approx(4.0, abs=1e-6)

    def test_certificate_structure(self):
        inst = battery_pair()
        res = affine_bound(inst)
        f, d = res.certificate["F"], res.certificate["D"]
        n, t = len(inst.resources), inst.horizon
        assert f.shape == (n, t, t) and d.shape == (n, t)
        for i in range(n):
            assert np.allclose(np.triu(f[i], 1), 0.0)
        assert np.allclose(f.sum(axis=0), np.eye(t), atol=1e-8)
        assert np.allclose(d.sum(axis=0), 0.0, atol=1e-8)
        for i, r in enumerate(inst.resources):
            a = res.alphas[i]
            for v in inst.demand.vertices:
                if a > 1e-8:
                    assert contains_point(r.set, f[i] @ v + d[i], delta=a)

    def test_single_resource_forces_identity(self):
        inst = ProcurementInstance(
            (Resource(FAST, 3.0),),
            VPolytope([[1, 1, -2], [1, 1, 4]]))
        res = affine_bound(inst)
        assert res.cost == pytest.approx(6.0, abs=1e-6)
        assert np.allclose(res.certificate["F"][0], np.eye(3), atol=1e-8)

    def test_cloud_affine_is_aggregate_level(self):
        # the affine class constrains aggregate outputs only; per-vertex
        # lifted recourse lets it match the oracle here even though no
        # schedule-level causal policy exists at this budget (the scenario
        # checker enforces that stronger notion)
        res = affine_bound(cloud_instance())
        assert res.feasible
        assert res.cost == pytest.approx(2.0, abs=1e-6)

    def test_random_certificates_satisfy_their_rows(self):
        # these degenerate programs once drew a noise pivot that corrupted
        # the tableau and returned a policy violating sum F_i = I by 1e-2
        rng = np.random.default_rng(42)
        for _ in range(25):
            _, _, inst = random_fleet_instance(rng)
            res = affine_bound(inst)
            assert res.feasible
            f, d = res.certificate["F"], res.certificate["D"]
            t = inst.horizon
            assert np.allclose(f.sum(axis=0), np.eye(t), atol=1e-7)
            assert np.allclose(d.sum(axis=0), 0.0, atol=1e-7)
            for i, r in enumerate(inst.resources):
                a = res.alphas[i]
                if a > 1e-7:
                    for v in inst.demand.vertices:
                        assert contains_point(r.set, f[i] @ v + d[i], delta=a)


class TestBoundChain:
    def small_instances(self):
        yield battery_pair()
        yield ProcurementInstance(
            (Resource(box_set([-1, -1], [1, 2]), 2.0),
             Resource(box_set([-0.5, 0], [0.5, 1]), 1.0)),
            VPolytope([[1, 2.5], [-1.2, -0.3], [0.4, 1.1]]))
        yield ProcurementInstance(
            (Resource(battery_set(BatterySpec(2, 1, 0.5, 2)), 1.5),
             Resource(box_set([-1, -1], [1, 1]), 1.0)),
            VPolytope([[0.8, -0.9], [1.5, 1.5]]))

    def test_chain_on_fixed_instances(self):
        for inst in self.small_instances():
            jstar = solve_oracle(inst)
            aff = affine_bound(inst)
            tv = tv_proportional_bound(inst)
            prop = proportional_bound(inst)
            assert jstar.feasible and aff.feasible and tv.feasible and prop.feasible
            assert jstar.cost <= aff.cost + 1e-7
            assert aff.cost <= tv.cost + 1e-7
            assert tv.cost <= prop.cost + 1e-7

    def test_chain_on_random_fleets(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            _, _, inst = random_fleet_instance(rng, horizon=3)
            jstar = solve_oracle(inst)
            aff = affine_bound(inst)
            tv = tv_proportional_bound(inst)
            prop = proportional_bound(inst)
            assert jstar.feasible
            assert jstar.cost <= aff.cost + 1e-7
            assert aff.cost <= tv.cost + 1e-7
            assert tv.cost <= prop.cost + 1e-7


class TestSpecialCases:
    def test_rectangles_have_free_causality(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            t = int(rng.integers(2, 4))
            resources = tuple(
                Resource(box_set(-rng.uniform(0.2, 2, t), rng.uniform(0.2, 2, t)),
                         float(rng.uniform(0.5, 3)))
                for _ in range(int(rng.integers(2, 4))))
            demand = VPolytope(rng.uniform(-1.5, 1.5, size=(4, t)))
            inst = ProcurementInstance(resources, demand)
            jstar = solve_oracle(inst)
            aff = affine_bound(inst)
            assert aff.cost == pytest.approx(jstar.cost, abs=1e-6)

    def test_identical_shapes_make_proportional_optimal(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            scales = rng.uniform(0.5, 2.0, size=3)
            prices = rng.uniform(0.5, 3.0, size=3)
            resources = tuple(
                Resource(scale(FAST, float(s)), float(p))
                for s, p in zip(scales, prices))
            demand = VPolytope([[1, 1, -2], [1, 1, 4], [0.5, -0.2, 1]])
            inst = ProcurementInstance(resources, demand)
            jstar = solve_oracle(inst)
            prop = proportional_bound(inst)
            assert prop.cost == pytest.approx(jstar.cost, abs=1e-6)


class TestBatteryExact:
    def test_worked_values(self):
        fleet = [BatterySpec(1, 1, 0, 3), BatterySpec(3, 1, 0, 3)]
        assert battery_exact_jss(fleet, [1.0, 2.0]) == pytest.approx(4.0, abs=1e-9)
        assert battery_exact_jss(fleet, [1.0, 1.5]) == pytest.approx(3.0, abs=1e-9)

    def test_result_carries_aggregates(self):
        fleet = [BatterySpec(1, 1, 0, 3), BatterySpec(3, 1, 0, 3)]
        res = battery_exact_procurement(fleet, [1.0, 1.5])
        assert res.certificate["rate_need"] == pytest.approx(2.0)
        assert res.certificate["energy_need"] == pytest.approx(4.0)
        assert np.allclose(res.alphas, [0.0, 2.0], atol=1e-8)
        # returned alphas satisfy both aggregate rows
        caps = np.array([1.0, 3.0])
        rates = np.array([1.0, 1.0])
        swing = np.minimum(2 * rates, caps)
        assert res.alphas @ rates >= rates.sum() - 1e-9
        assert res.alphas @ swing >= caps.sum() - 1e-9

    def test_precondition_rejects_slow_fleet(self):
        with pytest.raises(PreconditionError):
            battery_exact_jss([BatterySpec(3, 1, 0, 3)], [1.0])

    def test_dominates_oracle_on_minkowski_demand(self):
        for kappa in (0.5, 1.5, 2.0, 3.0):
            b1, b2 = BatterySpec(1, 1, 0, 3), BatterySpec(3, 1, 0, 3)
            resources = (Resource(battery_set(b1), 1.0),
                         Resource(battery_set(b2), kappa))
            inst = ProcurementInstance(resources, minkowski_demand(resources))
            jstar = solve_oracle(inst).cost
            jss = battery_exact_jss([b1, b2], [1.0, kappa])
            assert jstar == pytest.approx(min(1 + kappa, 2 * kappa), abs=1e-6)
            assert jss == pytest.approx(min(2 * kappa, 4.0), abs=1e-9)
            assert jss >= jstar - 1e-7

    def test_price_list_length(self):
        with pytest.raises(ValueError):
            battery_exact_jss([BatterySpec(1, 1, 0, 2)], [1.0, 2.0])


class TestPriceOfCausality:
    def test_values(self):
        assert price_of_causality(3.0, 4.0) == pytest.approx(4.0 / 3.0)
        assert price_of_causality(2.5, 3.0) == pytest.approx(1.2)

    def test_zero_cost_undefined(self):
        with pytest.raises(ValueError):
            price_of_causality(0.0, 1.0)


class TestJsonLoading:
    def battery_obj(self):
        return {
            "resources": [
                {"battery": {"capacity": 3, "rate": 3, "soc": 0, "horizon": 3},
                 "price": 3},
                {"battery": {"capacity": 3, "rate": 1, "soc": 0, "horizon": 3},
                 "price": 1},
            ],
            "demand": {"vrep": {"vertices": [[0, 0, 0], [1, 1, -2], [1, 1, 4]]}},
        }

    def test_battery_instance(self):
        inst = instance_from_json(self.battery_obj())
        assert solve_oracle(inst).cost == pytest.approx(4.0, abs=1e-6)

    def test_top_level_horizon_applies(self):
        obj = {
            "horizon": 4,
            "resources": [
                {"instances": True, "price": 1},
                {"jobs": [{"arrival": 1, "deadline": 2, "work": 1},
                          {"arrival": 1, "deadline": 4, "work": 2}],
                 "price": 0, "scalable": False},
            ],
            "demand": {"vrep": {"vertices": [[0, 0, 0, 0], [1, 0.5, 1.5, 2],
                                             [1, 2, 1, 1]]}},
        }
        inst = instance_from_json(obj)
        res = solve_oracle(inst)
        assert res.alphas[0] == pytest.approx(2.0, abs=1e-6)

    def test_minkowski_demand_flag(self):
        obj = {
            "resources": [
                {"battery": {"capacity": 1, "rate": 1, "horizon": 3}, "price": 1},
                {"battery": {"capacity": 3, "rate": 1, "horizon": 3}, "price": 2},
            ],
            "demand": {"minkowski_of_resources": True},
        }
        inst = instance_from_json(obj)
        assert solve_oracle(inst).cost == pytest.approx(3.0, abs=1e-6)

    def test_roundtrip_through_text(self):
        text = json.dumps(self.battery_obj())
        inst = instance_from_json(json.loads(text))
        assert inst.horizon == 3

    def test_bad_resource_entry(self):
        with pytest.raises(ValueError):
            instance_from_json({"resources": [{"price": 1}],
                                "demand": {"vrep": {"vertices": [[0]]}}})

    def test_bad_demand_entry(self):
        with pytest.raises(ValueError):
            instance_from_json({"resources": [{"instances": True, "price": 1,
                                               "horizon": 2}],
                                "horizon": 2, "demand": {}})

    def test_hrep_resource(self):
        obj = {
            "resources": [
                {"hrep": {"A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                          "b": [1, 1, 1, 1], "horizon": 2}, "price": 1},
            ],
            "demand": {"vrep": {"vertices": [[0.5, -0.5]]}},
        }
        inst = instance_from_json(obj)
        assert solve_oracle(inst).cost == pytest.approx(0.5, abs=1e-8)
