"""Geometry checks: builders, vertex enumeration, membership, scaling."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprocure import polytope
from polyprocure.lp import LinearProgram, LpStatus, solve_lp
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
    is_bounded,
    minkowski_candidate_vertices,
    scale,
)
from polyprocure.inputs import polytope_from_json

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


def looped_batch_workload_set(jobs, t):
    """The reference rows and rhs of batch_workload_set, one row at a time,
    each followed by its negation."""
    m = len(jobs)
    n = t + m * t
    rows, rhs = [], []

    def aux(j, k):
        return t + j * t + k

    for k in range(t):
        row = np.zeros(n)
        row[k] = 1.0
        for j in range(m):
            row[aux(j, k)] = 1.0
        rows += [row, -row]
        rhs += [0.0, 0.0]
    for j, job in enumerate(jobs):
        row = np.zeros(n)
        row[aux(j, 0):aux(j, 0) + t] = 1.0
        rows += [row, -row]
        rhs += [job.work, -job.work]
    for j, job in enumerate(jobs):
        for k in range(t):
            row = np.zeros(n)
            row[aux(j, k)] = 1.0
            rows += [row, -row]
            rhs += [1.0 if job.arrival - 1 <= k <= job.deadline - 1 else 0.0, 0.0]
    return np.array(rows).reshape(-1, n), np.array(rhs)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 4))
    def test_matches_per_row_loop(self, seed, t, m):
        rng = np.random.default_rng(seed)
        jobs = []
        for _ in range(m):
            arrival, deadline = np.sort(rng.integers(1, t + 1, 2))
            window = int(deadline - arrival + 1)
            # an int 0 beside float work keeps a +0.0 rhs in its negated row
            work = [0, 0.0, window, rng.uniform(0, window)][rng.integers(4)]
            jobs.append(BatchJob(int(arrival), int(deadline), work))
        p = batch_workload_set(jobs, t)
        rows, rhs = looped_batch_workload_set(jobs, t)
        # signbit: each negated row keeps the -0.0 entries of the loop's
        assert np.array_equal(p.a, rows) and np.array_equal(p.b, rhs)
        assert np.array_equal(np.signbit(p.a), np.signbit(rows))
        assert np.array_equal(np.signbit(p.b), np.signbit(rhs))
        assert p.aux_periods == tuple(k + 1 for _ in range(m) for k in range(t))

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


def looped_hrep_to_vrep(p):
    """The reference: one np.linalg.solve per row subset."""
    t, a, b = p.horizon, p.a, p.b
    found = []
    for idx in itertools.combinations(range(p.n_rows), t):
        sub = a[list(idx)]
        try:
            x = np.linalg.solve(sub, b[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.max(np.abs(sub @ x - b[list(idx)])) > 1e-8:
            continue
        if np.all(a @ x <= b + polytope.FEAS_TOL):
            found.append(x)
    verts = polytope._dedup(found)
    return verts[np.lexsort(verts.T[::-1])]


def random_bounded_polytope(rng, t):
    """A box around a random point, cut by a few random rows through it."""
    x0 = rng.normal(size=t)
    cuts = np.round(rng.normal(size=(int(rng.integers(1, 5)), t)), 1)
    a = np.vstack([np.eye(t), -np.eye(t), cuts])
    b = np.concatenate([x0 + 1.0, 1.0 - x0, cuts @ x0 + rng.uniform(0.0, 0.8, len(cuts))])
    return HPolytope(a, b, horizon=t)


class TestVertexEnumeration:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_battery_bits_match_per_subset_loop(self, t):
        rng = np.random.default_rng(t)
        for _ in range(3):
            spec = BatterySpec(rng.uniform(0.5, 3), rng.uniform(0.3, 2), rng.uniform(0, 1), t)
            p = battery_set(spec)
            assert np.array_equal(hrep_to_vrep(p).vertices, looped_hrep_to_vrep(p))

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    def test_unit_box_bits_match_per_subset_loop(self, t):
        # every subset holding both rows of one coordinate is singular
        p = instance_set(t)
        assert np.array_equal(hrep_to_vrep(p).vertices, looped_hrep_to_vrep(p))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_random_polytope_bits_match_per_subset_loop(self, seed, t):
        p = random_bounded_polytope(np.random.default_rng(seed), t)
        assert np.array_equal(hrep_to_vrep(p).vertices, looped_hrep_to_vrep(p))

    def test_blocks_bound_the_memory(self):
        # C(24, 6) = 134596 row subsets; all at once they take tens of MB.
        p = battery_set(BatterySpec(2, 1, 0.3, 6))
        tracemalloc.start()
        try:
            v = hrep_to_vrep(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.n_vertices > 0
        assert peak < 4e6, peak

    @pytest.mark.parametrize("a, b", [
        pytest.param([[1.0], [-1.0]], [-1.0, -1.0], id="empty"),
        pytest.param([[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0], id="every-subset-singular"),
    ])
    def test_no_vertices_rejected(self, a, b):
        p = HPolytope(a, b, horizon=len(a[0]))
        with pytest.raises(ValueError, match="no vertices found"):
            hrep_to_vrep(p)

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

    def test_dedup_matches_pairwise_loop(self):
        def looped(points):
            kept = []
            for x in points:
                if not any(np.max(np.abs(x - y)) <= polytope.VERTEX_DEDUP_TOL
                           for y in kept):
                    kept.append(x)
            return np.array(kept)

        rng = np.random.default_rng(4)
        for _ in range(20):
            base = rng.integers(0, 2, (30, 3)).astype(float)
            points = base + rng.choice([0.0, 5e-8, 2e-7], base.shape)
            got = polytope._dedup(list(points))
            assert np.array_equal(got, looped(points))
            assert 0 < len(got) < len(points)

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
            from polyprocure.lp import LinearProgram, LpStatus, check_feasible
            a = np.hstack([p1.a, np.zeros_like(p2.a)])
            b = np.hstack([np.zeros_like(p1.a), p2.a])
            probe = LinearProgram(
                c=np.zeros(6),
                a_eq=np.hstack([np.eye(3), np.eye(3)]),
                b_eq=x,
                a_le=np.vstack([a, b]),
                b_le=np.concatenate([p1.b, p2.b]),
            )
            assert check_feasible(probe).status is LpStatus.OPTIMAL

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minkowski_candidate_vertices([VPolytope([[0.0]]), VPolytope([[0.0, 1.0]])])


def looped_extreme_points(v):
    """The reference: one membership LP per point against all the others."""
    pts = polytope._dedup(v.vertices)
    keep = list(range(len(pts)))
    i = 0
    while i < len(keep):
        others = [keep[j] for j in range(len(keep)) if j != i]
        if others and contains_point(VPolytope(pts[others]), pts[keep[i]]):
            keep.pop(i)
        else:
            i += 1
    verts = pts[keep]
    return verts[np.lexsort(verts.T[::-1])]


def random_cloud(rng, kind, t):
    """Vertices of a random cloud plus duplicates and points on its edges and
    faces, shuffled."""
    if kind == "single":
        return np.repeat(rng.normal(size=(1, t)), int(rng.integers(1, 4)), axis=0)
    k = int(rng.integers(1, 10))
    if kind == "lattice":  # many exact ties, collinear and coplanar points
        base = rng.integers(-2, 3, (k, t)).astype(float)
    elif kind == "planar":  # a flat cloud in R^3
        base = rng.normal(size=(k, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
    else:
        base = rng.normal(size=(k, t))
    picks = rng.integers(0, k, (int(rng.integers(0, 8)), 3))
    weights = rng.dirichlet(np.ones(3), len(picks))
    weights[::2, 2] = 0.0  # every other one on a segment
    weights[::4, :2] = 0.5  # and some at exact midpoints
    combos = np.einsum("ij,ijk->ik", weights, base[picks])
    pts = np.vstack([base, combos, base[rng.integers(0, k, 3)]])
    return pts[rng.permutation(len(pts))]


class TestExtremePoints:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([(1, "normal"), (1, "lattice"), (2, "normal"), (2, "lattice"),
                            (3, "normal"), (3, "lattice"), (3, "planar"), (1, "single"),
                            (3, "single")]))
    def test_matches_per_point_loop(self, seed, case):
        t, kind = case
        v = VPolytope(random_cloud(np.random.default_rng(seed), kind, t))
        assert np.array_equal(extreme_points(v).vertices, looped_extreme_points(v))

    def test_rounding_above_a_face_exposes_no_edge_point(self):
        # 0.1 * 0.3 + 0.9 * 0.3 rounds one ulp above 0.3, so the point on the
        # edge leads the face that e_1 exposes in its first coordinate; only
        # a tie within FEAS_TOL per coordinate passes it over.
        edge = 0.1 * np.array([0.3, 0.0]) + 0.9 * np.array([0.3, 1.0])
        assert edge[0] > 0.3
        v = VPolytope([[0.3, 0.0], [0.3, 1.0], [0.0, 0.5], edge])
        assert np.array_equal(extreme_points(v).vertices, looped_extreme_points(v))
        assert vertex_set(extreme_points(v)) == {(0.0, 0.5), (0.3, 0.0), (0.3, 1.0)}

    @pytest.mark.parametrize("t", [2, 3])
    def test_matches_qhull(self, t):
        spatial = pytest.importorskip("scipy.spatial")
        rng = np.random.default_rng(t)
        for _ in range(10):
            pts = rng.normal(size=(int(rng.integers(t + 1, 40)), t))
            hull = spatial.ConvexHull(pts)
            assert vertex_set(extreme_points(VPolytope(pts))) == \
                vertex_set(VPolytope(pts[hull.vertices]))

    def test_unexposed_points_are_kept(self, monkeypatch):
        # The seed exposes only the triangle's three corners and later rounds
        # expose nothing new: the points certified inside it go, every point
        # outside it stays, so the hull never shrinks.
        calls = []

        def stingy(pts, among, directions):
            calls.append(len(directions))
            return among[:3] if len(calls) == 1 else among[:0]

        monkeypatch.setattr(polytope, "_exposed", stingy)
        v = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1], [0.25, 0.25], [0.5, 0.5],
                       [0.9, 0.9]])
        e = extreme_points(v)
        assert len(calls) == 2
        assert vertex_set(e) == {(0, 0), (1, 0), (0, 1), (1, 1), (0.9, 0.9)}

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


def looped_is_bounded(p):
    """The reference: one LP per signed output coordinate, stopping at the
    first verdict that settles the answer."""
    n = p.horizon + p.n_aux
    for t in range(p.horizon):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[t] = sign
            sol = solve_lp(LinearProgram(c=c, a_le=p.a, b_le=p.b))
            if sol.status is LpStatus.UNBOUNDED:
                return False
            if sol.status is LpStatus.INFEASIBLE:
                return True  # empty set: vacuously bounded
    return True


class TestDiagnostics:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["bounded", "unbounded", "empty"]))
    def test_matches_per_direction_loop(self, seed, kind):
        rng = np.random.default_rng(seed)
        t, n_aux = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        n = t + n_aux
        # At most n rows around x0: a nonempty cone of recession directions
        # with interior, so unbounded in the outputs.
        m = int(rng.integers(1, n + 1))
        a = np.round(rng.normal(size=(m, n)), 2)
        x0 = rng.normal(size=n)
        b = a @ x0 + rng.uniform(0.1, 1.0, m)
        if kind == "bounded":  # add a box around x0
            a = np.vstack([a, np.eye(n), -np.eye(n)])
            b = np.concatenate([b, x0 + 2.0, 2.0 - x0])
        elif kind == "empty":  # add r.x <= -1 and r.x >= 1
            r = rng.normal(size=n)
            a = np.vstack([a, r, -r])
            b = np.concatenate([b, [-1.0, -1.0]])
        p = HPolytope(a, b, t, n_aux)
        assert is_bounded(p) is looped_is_bounded(p) is (kind != "unbounded")

    def test_builders_bounded(self):
        assert is_bounded(battery_set(BIG_BATTERY))
        assert is_bounded(batch_workload_set([BatchJob(1, 2, 1)], horizon=2))

    def test_unbounded_detected(self):
        half = HPolytope([[1.0]], [1.0], horizon=1)
        assert not is_bounded(half)


class TestJson:
    def test_hrep_roundtrip(self):
        # One unit of work due in periods 1..2, two period-annotated aux columns.
        q = polytope_from_json({"hrep": {
            "A": [[1, 0, 1, 0], [-1, 0, -1, 0], [0, 1, 0, 1], [0, -1, 0, -1],
                  [0, 0, 1, 1], [0, 0, -1, -1], [0, 0, 1, 0], [0, 0, -1, 0],
                  [0, 0, 0, 1], [0, 0, 0, -1]],
            "b": [0, 0, 0, 0, 1, -1, 1, 0, 1, 0],
            "horizon": 2, "aux": 2, "aux_periods": [1, 2]}})
        p = batch_workload_set([BatchJob(1, 2, 1)], horizon=2)
        np.testing.assert_array_equal(q.a, p.a)
        np.testing.assert_array_equal(q.b, p.b)
        assert q.aux_periods == p.aux_periods

    def test_vrep_roundtrip(self):
        q = polytope_from_json({"vrep": {"vertices": [[0, 1], [2, 3]]}})
        np.testing.assert_array_equal(q.vertices, VPolytope([[0, 1], [2, 3]]).vertices)

    def test_unbounded_json_rejected(self):
        with pytest.raises(ValueError):
            polytope_from_json({"hrep": {"A": [[1.0]], "b": [1.0], "horizon": 1, "aux": 0}})
