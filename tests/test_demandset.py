"""Windowing, segmentation, and inflated-hull coverage."""

import numpy as np
import pytest
from scipy import optimize

from polyprocure.demandset import (
    DemandSetModel,
    SignalDataset,
    build_model,
    coverage_curve,
    covers,
    segment,
    split,
    window_average,
)
from polyprocure.polytope import convex_coefficients


class TestWindowAverage:
    def test_pairs(self):
        assert window_average([1, 1, 3, 3], 2).tolist() == [1.0, 3.0]

    def test_constant_series(self):
        assert np.allclose(window_average(np.full(12, 2.5), 3), 2.5)

    def test_remainder_dropped(self):
        assert window_average([1, 2, 3, 4, 5], 2).tolist() == [1.5, 3.5]

    def test_matches_prefix_sum_recomputation(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=103)
        w = 5
        got = window_average(series, w)
        csum = np.concatenate([[0.0], np.cumsum(series)])
        expected = [(csum[(i + 1) * w] - csum[i * w]) / w
                    for i in range(series.size // w)]
        assert np.allclose(got, expected, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            window_average([], 2)
        with pytest.raises(ValueError):
            window_average([1.0], 0)
        with pytest.raises(ValueError):
            window_average([1.0], 5)


class TestSegment:
    def test_exact_fit(self):
        ds = segment(np.arange(12), 6)
        assert ds.n_samples == 2 and ds.horizon == 6

    def test_remainder_dropped(self):
        assert segment(np.arange(13), 6).n_samples == 2

    def test_year_of_five_minute_points(self):
        ds = segment(np.zeros(105120), 6)
        assert ds.n_samples == 17520

    def test_too_short(self):
        with pytest.raises(ValueError):
            segment(np.arange(3), 6)

    def test_resegmenting_is_idempotent(self):
        rng = np.random.default_rng(1)
        ds = segment(rng.normal(size=30), 5)
        again = segment(ds.samples.ravel(), 5)
        assert np.array_equal(ds.samples, again.samples)


class TestSplit:
    def test_middle(self):
        ds = SignalDataset(np.arange(12).reshape(6, 2))
        train, val = split(ds, 4)
        assert train.n_samples == 4 and val.n_samples == 2
        assert np.array_equal(np.vstack([train.samples, val.samples]),
                              ds.samples)

    def test_edges(self):
        ds = SignalDataset(np.arange(12).reshape(6, 2))
        assert split(ds, 1)[0].n_samples == 1
        assert split(ds, 5)[1].n_samples == 1
        for bad in (0, 6, 7):
            with pytest.raises(ValueError):
                split(ds, bad)


class TestModel:
    def test_centers(self):
        train = SignalDataset([[0.0, 0.0], [2.0, 4.0]])
        assert np.allclose(build_model(train).center, [1.0, 2.0])
        assert np.allclose(build_model(train, center="origin").center, 0.0)
        with pytest.raises(ValueError):
            build_model(train, center="median")

    def test_delta_floor(self):
        train = SignalDataset([[0.0], [1.0]])
        with pytest.raises(ValueError):
            build_model(train, delta=0.5)


class TestCoverage:
    def heavy_tailed(self, seed=7, n=60, t=3):
        rng = np.random.default_rng(seed)
        data = rng.standard_t(df=2, size=(n, t))
        ds = SignalDataset(data)
        return split(ds, 40)

    def test_training_covers_itself(self):
        train, _ = self.heavy_tailed()
        for center in ("centroid", "origin"):
            model = build_model(train, center=center)
            assert coverage_curve(model, train, [1.0]) == [(1.0, 1.0)]

    def test_monotone_in_delta(self):
        train, val = self.heavy_tailed()
        model = build_model(train)
        curve = coverage_curve(model, val, [1.0, 1.5, 2.0, 3.0, 5.0])
        ratios = [r for _, r in curve]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] < 1.0  # heavy tails put some points outside

    def test_reaches_one_at_bisected_enclosure(self):
        train, val = self.heavy_tailed(seed=11)
        model = build_model(train)

        def enclosing_delta(x):
            lo, hi = 1.0, 512.0
            if covers(DemandSetModel(model.vertices, model.center, lo), x):
                return lo
            assert covers(DemandSetModel(model.vertices, model.center, hi), x)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if covers(DemandSetModel(model.vertices, model.center, mid), x):
                    hi = mid
                else:
                    lo = mid
            return hi

        needed = max(enclosing_delta(x) for x in val.samples)
        [(_, at)] = coverage_curve(model, val, [needed * (1 + 1e-6)])
        assert at == 1.0
        if needed > 1.0 + 1e-6:
            [(_, below)] = coverage_curve(model, val,
                                          [1.0 + 0.9 * (needed - 1.0)])
            assert below < 1.0

    def test_curve_on_training(self):
        train, _ = self.heavy_tailed()
        model = build_model(train)
        assert coverage_curve(model, train, [1.0]) == [(1.0, 1.0)]
        assert coverage_curve(model, train, [1.0, 1.1]) == [(1.0, 1.0),
                                                            (1.1, 1.0)]

    def test_grid_must_ascend(self):
        train, val = self.heavy_tailed()
        model = build_model(train)
        with pytest.raises(ValueError):
            coverage_curve(model, val, [2.0, 1.0])
        with pytest.raises(ValueError):
            coverage_curve(model, val, [])

    def test_horizon_mismatch(self):
        train, _ = self.heavy_tailed()
        model = build_model(train)
        with pytest.raises(ValueError):
            coverage_curve(model, SignalDataset(np.zeros((2, 5))), [1.0])

    def test_grid_below_one(self):
        train, val = self.heavy_tailed()
        with pytest.raises(ValueError):
            coverage_curve(build_model(train), val, [0.5, 1.0])

    def test_single_point_hull(self):
        model = build_model(SignalDataset([[1.0, 2.0]]))
        val = SignalDataset([[1.0, 2.0], [1.0, 2.5]])
        assert coverage_curve(model, val, [1.0, 2.0]) == [(1.0, 0.5),
                                                          (2.0, 0.5)]

    def test_membership_certificate_reconstructs(self):
        train, val = self.heavy_tailed(seed=3)
        model = build_model(train, delta=4.0)
        checked = 0
        for x in val.samples:
            lam = convex_coefficients(model.vertices, x, delta=model.delta,
                                      center=model.center)
            if lam is None:
                continue
            rebuilt = model.center + model.delta * (
                (model.vertices.vertices - model.center).T @ lam)
            assert np.allclose(rebuilt, x, atol=1e-7)
            checked += 1
        assert checked > 0


def subspace_history(seed, n=140, t=24, rank=6):
    """Samples of t periods that span a rank-dimensional subspace."""
    rng = np.random.default_rng(seed)
    shapes = rng.normal(size=(rank, t))
    return SignalDataset(rng.uniform(0.5, 1.5, (n, rank)) @ shapes)


def per_delta_counts(model, val, grid):
    return [sum(covers(DemandSetModel(model.vertices, model.center, d), x)
                for x in val.samples) for d in grid]


class TestGaugeCoverage:
    """coverage_curve solves one gauge LP per sample; covers solves one
    membership LP per sample and delta, and serves as the reference."""

    GRID = [1.0, 1.1, 1.25, 1.5, 2.0, 3.0]

    def counts(self, model, val, grid):
        return [round(r * val.n_samples) for _, r in
                coverage_curve(model, val, grid)]

    @pytest.mark.parametrize("center", ["centroid", "origin"])
    def test_matches_per_delta_membership(self, center):
        rng = np.random.default_rng(5)
        data = 1.0 + 0.3 * rng.standard_t(df=3, size=(50, 3))
        train, val = split(SignalDataset(data), 30)
        model = build_model(train, center=center)
        got = self.counts(model, val, self.GRID)
        assert got == per_delta_counts(model, val, self.GRID)
        if center == "origin":
            # the origin lies outside the hull of these positive samples, so
            # inflating about it moves the hull away from samples near it
            assert got[-1] < max(got)

    def test_rank_deficient_matches_per_delta_membership(self):
        train, val = split(subspace_history(8, n=60, t=8, rank=3), 40)
        off = val.samples.copy()
        off[::4] += 1e-3  # leave the span: outside at every delta
        val = SignalDataset(off)
        for center in ("centroid", "origin"):
            model = build_model(train, center=center)
            got = self.counts(model, val, self.GRID)
            assert got == per_delta_counts(model, val, self.GRID)
            assert max(got) <= 15

    def test_subspace_history_matches_highs_gauges(self):
        train, val = split(subspace_history(2), 100)
        model = build_model(train)
        spread = (train.samples - model.center).T
        gauges = []
        for x in val.samples:
            res = optimize.linprog(np.ones(train.n_samples), A_eq=spread,
                                   b_eq=x - model.center, bounds=(0, None),
                                   method="highs")
            assert res.status == 0
            gauges.append(res.fun)
        gauges = np.array(gauges)
        grid = np.arange(1.0, 2.01, 0.1)
        got = self.counts(model, val, grid)
        for d, hits in zip(grid, got):
            assert np.sum(gauges <= d - 1e-7) <= hits <= np.sum(gauges <= d + 1e-7)
        assert 0 < got[0] < got[-1]
