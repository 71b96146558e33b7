"""Cost share formula and the four-axiom audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprocure.costalloc import allocate_cost, audit_axioms


def random_team(rng, n=None, t=None):
    n = n or int(rng.integers(2, 6))
    t = t or int(rng.integers(2, 6))
    d = rng.normal(size=(n, t))
    return d, d.sum(axis=0)


class TestFormula:
    def test_equal_halves(self):
        e = np.array([1.0, -2.0, 3.0])
        res = allocate_cost([e / 2, e / 2], e, 10.0)
        assert np.allclose(res.shares, [5.0, 5.0])
        assert all(res.axioms.values())

    def test_idle_participant_pays_nothing(self):
        e = np.array([2.0, 0.0, -1.0])
        res = allocate_cost([e, np.zeros(3)], e, 7.0)
        assert res.shares[0] == pytest.approx(7.0)
        assert res.shares[1] == 0.0

    def test_budget_and_signs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d, e = random_team(rng, t=4)
            res = allocate_cost(d, e, 7.0)
            assert res.shares.sum() == pytest.approx(7.0, abs=1e-9)
            align = d @ e
            for a, s in zip(align, res.shares):
                if abs(a) > 1e-12:
                    assert np.sign(s) == np.sign(a)

    def test_zero_aggregate_rejected(self):
        with pytest.raises(ValueError):
            allocate_cost([[1.0, -1.0]], [0.0, 0.0], 3.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            allocate_cost([[1.0, 2.0]], [1.0, 2.0, 3.0], 1.0)

    def test_orthogonal_contribution_is_exactly_zero(self):
        e = np.array([1.0, 0.0])
        res = allocate_cost([[0.0, 5.0], e], e, 2.0)
        assert res.shares[0] == 0.0


class TestAxioms:
    def test_formula_passes_on_random_teams(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d, e = random_team(rng)
            if e @ e < 1e-6:
                continue
            res = allocate_cost(d, e, float(rng.uniform(0.5, 10)))
            assert all(res.axioms.values()), res.axioms

    def test_uniform_split_fails_reward_axiom(self):
        e = np.array([1.0, 1.0])
        d = np.array([[2.0, 2.0], [-1.0, -1.0]])  # second mitigates
        uniform = np.array([2.5, 2.5])
        verdict = audit_axioms(d, e, uniform, total=5.0)
        assert verdict["budget_balance"]
        assert not verdict["reward_for_mitigation"]

    def test_single_participant(self):
        e = np.array([1.0, 2.0])
        res = allocate_cost([e], e, 4.0)
        assert res.shares[0] == pytest.approx(4.0)
        assert all(res.axioms.values())

    def test_equity_detects_unequal_shares(self):
        e = np.array([1.0, 1.0])
        d = np.array([[0.5, 0.5], [0.5, 0.5]])
        verdict = audit_axioms(d, e, np.array([3.0, 1.0]), total=4.0)
        assert not verdict["equity"]

    def test_equity_catches_one_planted_offset_in_a_large_panel(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(50, 24))
        d = np.vstack([base, base[::2]])  # 25 duplicated rows
        e = d.sum(axis=0)
        res = allocate_cost(d, e, 7.0)
        assert all(res.axioms.values()), res.axioms
        planted = res.shares.copy()
        planted[-1] += 1e-6  # last row duplicates base[48]
        verdict = audit_axioms(d, e, planted, total=7.0)
        assert not verdict["equity"]
        planted[-1] -= 1e-6
        planted[48] += 1e-6
        assert not audit_axioms(d, e, planted, total=7.0)["equity"]

    def test_budget_vacuous_when_not_partition(self):
        e = np.array([1.0, 1.0])
        d = np.array([[5.0, 5.0]])
        verdict = audit_axioms(d, e, np.array([123.0]), total=4.0)
        assert verdict["budget_balance"]


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 50.0))
    def test_homogeneity(self, seed, lam):
        rng = np.random.default_rng(seed)
        d, e = random_team(rng)
        if e @ e < 1e-6:
            return
        base = allocate_cost(d, e, 5.0)
        scaled = allocate_cost(d * lam, e * lam, 5.0)
        assert np.allclose(base.shares, scaled.shares, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        d, e = random_team(rng, n=4)
        if e @ e < 1e-6:
            return
        merged = np.vstack([d[0] + d[1], d[2:]])
        full = allocate_cost(d, e, 3.0)
        less = allocate_cost(merged, e, 3.0)
        assert less.shares[0] == pytest.approx(full.shares[0] + full.shares[1],
                                               abs=1e-9)
