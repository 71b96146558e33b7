"""Geometry checks: builders, vertex enumeration, membership, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprocure.polytope import (
    BatchJob,
    BatterySpec,
    HPolytope,
    VPolytope,
    batch_workload_set,
    battery_set,
    contains_point,
    convex_coefficients,
    extreme_points,
    hrep_to_vrep,
    instance_set,
    interiority_margin,
    is_bounded,
    minkowski_candidate_vertices,
    polytope_from_json,
    polytope_to_json,
    scale,
)

BIG_BATTERY = BatterySpec(capacity=3, rate=3, soc=0, horizon=3)
SLOW_BATTERY = BatterySpec(capacity=3, rate=1, soc=0, horizon=3)


def vertex_set(vpoly):
    return {tuple(np.round(v, 9)) for v in vpoly.vertices}


class TestBuilders:
    def test_battery_row_structure(self):
        p = battery_set(BIG_BATTERY)
        assert p.n_aux == 0
        assert p.n_rows == 4 * 3  # per-period rate pairs plus cumulative pairs
        # The fast battery admits (1, 1, -2) and a full three-period charge.
        assert contains_point(p, [1, 1, -2])
        assert contains_point(p, [0, 0, 3])
        assert not contains_point(p, [1, 1, 4])  # rate 4 > 3
        assert not contains_point(p, [3, 3, -2])  # cumulative 6 > 3

    def test_slow_battery_membership(self):
        p = battery_set(SLOW_BATTERY)
        assert contains_point(p, [1, 1, 1])
        assert not contains_point(p, [0, 0, 3])  # rate 3 > 1
        assert not contains_point(p, [1, -1, -1])  # stored energy would go negative

    def test_one_period_battery_is_unit_interval(self):
        p = battery_set(BatterySpec(capacity=1, rate=1, soc=0, horizon=1))
        assert vertex_set(hrep_to_vrep(p)) == {(0.0,), (1.0,)}

    def test_instance_set_is_unit_box(self):
        p = instance_set(4)
        v = hrep_to_vrep(p)
        assert v.n_vertices == 16
        assert contains_point(p, [1, 0.5, 1, 0])
        assert not contains_point(p, [1, 0.5, 1.5, 2])

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            instance_set(0)
        with pytest.raises(ValueError):
            BatterySpec(capacity=1, rate=1, soc=0, horizon=0)

    def test_battery_spec_validation(self):
        with pytest.raises(ValueError):
            BatterySpec(capacity=0, rate=1)
        with pytest.raises(ValueError):
            BatterySpec(capacity=1, rate=1, soc=1.5)
        for field, value in [("capacity", np.nan), ("capacity", np.inf),
                             ("rate", np.nan), ("soc", np.nan)]:
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                BatterySpec(**{"capacity": 1, "rate": 1, field: value})

    @pytest.mark.parametrize("make, field", [
        (lambda: HPolytope([[np.inf], [-1.0]], [1.0, 1.0], horizon=1), "a"),
        (lambda: HPolytope([[1.0], [-1.0]], [1.0, np.nan], horizon=1), "b"),
        (lambda: VPolytope([[0.0, np.nan]]), "vertices"),
    ])
    def test_polytope_data_must_be_finite(self, make, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make()


class TestBatchWorkloads:
    JOBS = [BatchJob(arrival=1, deadline=2, work=1), BatchJob(arrival=1, deadline=4, work=2)]

    def closed_form_member(self, x):
        # The two-job example projects to: sum x = -3, x1,x2 in [-2,0], x3,x4 in [-1,0].
        return (
            abs(sum(x) + 3.0) <= 1e-9
            and all(-2 - 1e-9 <= xi <= 1e-9 for xi in x[:2])
            and all(-1 - 1e-9 <= xi <= 1e-9 for xi in x[2:])
        )

    def test_projection_matches_closed_form(self):
        p = batch_workload_set(self.JOBS, horizon=4)
        assert p.n_aux == 8
        assert p.aux_periods == (1, 2, 3, 4, 1, 2, 3, 4)
        fixed = [
            [-2, -1, 0, 0],
            [0, -2, -0.5, -0.5],
            [-0.5, -0.5, -1, -1],
            [-2, 0, -1, 0],
            [-3, 0, 0, 0],     # period rate above 2 is impossible
            [0, 0, -1, -1],    # total work 2, but 3 is required
            [-1, -1, -1, -1],  # total 4 exceeds the workload
        ]
        for x in fixed:
            assert contains_point(p, x) == self.closed_form_member(x), x
        rng = np.random.default_rng(3)
        agreements = 0
        for _ in range(60):
            head = rng.uniform(-2.3, 0.3, 3)
            x = np.append(head, -3.0 - head.sum())  # stay on the work-balance plane
            assert contains_point(p, x) == self.closed_form_member(x)
            agreements += 1
        assert agreements == 60

    def test_single_job_single_period(self):
        p = batch_workload_set([BatchJob(1, 1, 1)], horizon=2)
        assert contains_point(p, [-1, 0])
        assert not contains_point(p, [0, -1])
        assert not contains_point(p, [-1, -0.1])

    def test_empty_job_list_pins_zero(self):
        p = batch_workload_set([], horizon=3)
        assert contains_point(p, [0, 0, 0])
        assert not contains_point(p, [0, 0, -0.01])

    def test_overfull_job_rejected(self):
        with pytest.raises(ValueError):
            BatchJob(arrival=2, deadline=3, work=2.5)
        with pytest.raises(ValueError):
            batch_workload_set([BatchJob(1, 5, 2)], horizon=4)


class TestScaling:
    def test_scale_identity(self):
        p = battery_set(BIG_BATTERY)
        q = scale(p, 1.0)
        np.testing.assert_array_equal(q.a, p.a)
        np.testing.assert_array_equal(q.b, p.b)

    def test_scale_zero_collapses_to_origin(self):
        q = scale(battery_set(BatterySpec(2, 1, 0.5, 2)), 0.0)
        assert contains_point(q, [0, 0])
        assert not contains_point(q, [0.01, 0])

    def test_scale_two_instance_box(self):
        q = scale(instance_set(4), 2.0)
        assert contains_point(q, [2, 2, 2, 2])
        assert contains_point(q, [1, 0.5, 1.5, 2])
        assert not contains_point(q, [2.01, 0, 0, 0])

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            scale(instance_set(1), -0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.25, 4.0),
        st.floats(0.25, 2.0),
        st.floats(0.0, 1.0),
        st.floats(0.1, 3.0),
        st.integers(0, 10_000),
    )
    def test_scaling_law(self, cap, rate, soc, alpha, seed):
        spec = BatterySpec(cap, rate, soc, horizon=3)
        p = battery_set(spec)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-rate * 1.2, rate * 1.2, 3)
        assert contains_point(scale(p, alpha), alpha * x) == contains_point(p, x)


class TestVertexEnumeration:
    def test_two_period_battery_vertices(self):
        v = hrep_to_vrep(battery_set(BatterySpec(1, 1, 0, 2)))
        assert vertex_set(v) == {(0, 0), (1, 0), (0, 1), (1, -1)}

    def test_slow_battery_vertices_feasible_and_tight(self):
        p = battery_set(SLOW_BATTERY)
        v = hrep_to_vrep(p)
        for x in v.vertices:
            slack = p.b - p.a @ x
            assert np.all(slack >= -1e-9)
            assert np.sum(np.abs(slack) <= 1e-7) >= 3  # a vertex pins >= dim rows

    def test_unit_square(self):
        box = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1, 1, 0, 0], horizon=2)
        assert vertex_set(hrep_to_vrep(box)) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_roundtrip_through_hull(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            spec = BatterySpec(rng.uniform(0.5, 3), rng.uniform(0.5, 2),
                               rng.uniform(0, 1), horizon=3)
            p = battery_set(spec)
            v = hrep_to_vrep(p)
            for x in v.vertices:
                assert contains_point(p, x)
            # Random feasible points live inside the enumerated hull.
            for _ in range(10):
                w = rng.dirichlet(np.ones(v.n_vertices))
                assert contains_point(v, w @ v.vertices)

    def test_lifted_polytope_rejected(self):
        p = batch_workload_set([BatchJob(1, 1, 1)], horizon=2)
        with pytest.raises(ValueError):
            hrep_to_vrep(p)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hrep_to_vrep(instance_set(9))


class TestMinkowski:
    def test_one_dimensional_sums(self):
        a = VPolytope([[0.0], [1.0]])
        b = VPolytope([[0.0], [2.0]])
        s = minkowski_candidate_vertices([a, b])
        assert vertex_set(s) == {(0.0,), (1.0,), (2.0,), (3.0,)}

    def test_single_input_identity(self):
        a = VPolytope([[0.0, 1.0], [2.0, 3.0]])
        s = minkowski_candidate_vertices([a])
        assert vertex_set(s) == vertex_set(a)

    def test_sweep_battery_sums_factorize(self):
        v1 = hrep_to_vrep(battery_set(BatterySpec(1, 1, 0, 3)))
        v2 = hrep_to_vrep(battery_set(SLOW_BATTERY))
        s = minkowski_candidate_vertices([v1, v2])
        p1, p2 = battery_set(BatterySpec(1, 1, 0, 3)), battery_set(SLOW_BATTERY)
        rng = np.random.default_rng(0)
        picks = rng.choice(s.n_vertices, size=10, replace=False)
        for x in s.vertices[picks]:
            # Each candidate splits as q1 + q2 with q_i in its own set.
            from polyprocure.lp import LinearProgram, check_feasible
            a = np.hstack([p1.a, np.zeros_like(p2.a)])
            b = np.hstack([np.zeros_like(p1.a), p2.a])
            probe = LinearProgram(
                c=np.zeros(6),
                a_eq=np.hstack([np.eye(3), np.eye(3)]),
                b_eq=x,
                a_le=np.vstack([a, b]),
                b_le=np.concatenate([p1.b, p2.b]),
            )
            assert check_feasible(probe).feasible

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minkowski_candidate_vertices([VPolytope([[0.0]]), VPolytope([[0.0, 1.0]])])


class TestExtremePoints:
    def test_interior_points_dropped(self):
        v = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.25, 0.75]])
        e = extreme_points(v)
        assert vertex_set(e) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_duplicates_collapse(self):
        v = VPolytope([[0.0], [1.0], [1.0], [0.2]])
        e = extreme_points(v)
        assert vertex_set(e) == {(0.0,), (1.0,)}


class TestMembership:
    def test_vpolytope_contains_own_vertices(self):
        v = VPolytope([[0, 0], [2, 1], [-1, 3]])
        for x in v.vertices:
            assert contains_point(v, x)
        assert not contains_point(v, [2, 3])

    def test_inflated_membership_about_centroid(self):
        v = VPolytope([[0.0], [1.0]])
        center = np.array([0.5])
        assert not contains_point(v, [1.2], delta=1.0, center=center)
        assert contains_point(v, [1.2], delta=1.5, center=center)
        assert contains_point(v, [-0.25], delta=1.5, center=center)
        assert not contains_point(v, [-0.3], delta=1.5, center=center)

    def test_hrep_inflation_matches_scale(self):
        p = battery_set(BIG_BATTERY)
        x = np.array([1.0, 1.0, 4.0])
        assert not contains_point(p, x)
        assert contains_point(p, x, delta=2.0)  # same as membership in scale(p, 2)
        assert contains_point(scale(p, 2.0), x)

    def test_convex_coefficients_reconstruct(self):
        v = VPolytope([[0, 0], [2, 0], [0, 2]])
        lam = convex_coefficients(v, [0.5, 0.5])
        assert lam is not None
        np.testing.assert_allclose(lam @ v.vertices, [0.5, 0.5], atol=1e-7)
        assert convex_coefficients(v, [3, 3]) is None


class TestDiagnostics:
    def test_interior_battery_passes(self):
        margin = interiority_margin(battery_set(BatterySpec(2, 1, 0.5, 3)))
        assert margin > 0.1

    def test_instance_set_origin_on_boundary(self):
        assert abs(interiority_margin(instance_set(3))) <= 1e-9

    def test_batch_set_origin_outside(self):
        p = batch_workload_set([BatchJob(1, 4, 2)], horizon=4)
        assert interiority_margin(p) < -0.1

    def test_builders_bounded(self):
        assert is_bounded(battery_set(BIG_BATTERY))
        assert is_bounded(batch_workload_set([BatchJob(1, 2, 1)], horizon=2))

    def test_unbounded_detected(self):
        half = HPolytope([[1.0]], [1.0], horizon=1)
        assert not is_bounded(half)


class TestJson:
    def test_hrep_roundtrip(self):
        p = batch_workload_set([BatchJob(1, 2, 1)], horizon=2)
        q = polytope_from_json(polytope_to_json(p))
        np.testing.assert_array_equal(q.a, p.a)
        np.testing.assert_array_equal(q.b, p.b)
        assert q.aux_periods == p.aux_periods

    def test_vrep_roundtrip(self):
        v = VPolytope([[0, 1], [2, 3]])
        q = polytope_from_json(polytope_to_json(v))
        np.testing.assert_array_equal(q.vertices, v.vertices)

    def test_unbounded_json_rejected(self):
        with pytest.raises(ValueError):
            polytope_from_json({"hrep": {"A": [[1.0]], "b": [1.0], "horizon": 1, "aux": 0}})
