"""Solver checks: worked programs, brute-force cross-validation, KKT audits."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyprocure.lp import (
    FEAS_TOL,
    IterationLimitError,
    LinearProgram,
    LpStatus,
    check_feasible,
    solve_lp,
)


def brute_force_minimum(lp, tol=1e-9):
    """Enumerate every basis of the stacked constraint rows.

    Returns (status, value) where status is "optimal" or "infeasible".
    Only valid for programs whose feasible set is bounded (all variable
    boxes finite), so an optimum, if any, sits on a vertex.
    """
    n = lp.n_vars
    rows = [lp.a_eq, lp.a_le, np.eye(n), -np.eye(n)]
    rhs = [lp.b_eq, lp.b_le, lp.upper, -lp.lower]
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    m_eq = lp.b_eq.size

    def feasible(x):
        return (
            np.all(lp.a_eq @ x <= lp.b_eq + tol)
            and np.all(lp.a_eq @ x >= lp.b_eq - tol)
            and np.all(lp.a_le @ x <= lp.b_le + tol)
            and np.all(x >= lp.lower - tol)
            and np.all(x <= lp.upper + tol)
        )

    best = None
    eq_idx = list(range(m_eq))
    free_rows = range(m_eq, a.shape[0])
    for extra in itertools.combinations(free_rows, n - m_eq):
        idx = eq_idx + list(extra)
        sub = a[idx]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[idx])
        if feasible(x):
            val = float(lp.c @ x)
            if best is None or val < best:
                best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_boxed_lp(rng, force_feasible=True):
    """A small random program with finite variable boxes and tidy data."""
    n = rng.integers(2, 5)
    lower = np.round(rng.uniform(-3, 0, n), 2)
    upper = np.round(rng.uniform(0.5, 4, n), 2)
    x0 = lower + rng.uniform(0.1, 0.9, n) * (upper - lower)
    m_le = rng.integers(1, 5)
    a_le = np.round(rng.normal(0, 1, (m_le, n)), 2)
    if force_feasible:
        b_le = np.round(a_le @ x0 + rng.uniform(0.05, 1.5, m_le), 2)
    else:
        b_le = np.round(a_le @ x0 + rng.uniform(-2.0, 1.0, m_le), 2)
    c = np.round(rng.normal(0, 2, n), 2)
    kwargs = {}
    if rng.random() < 0.4:
        a_eq = np.round(rng.normal(0, 1, (1, n)), 2)
        b_eq = np.round(a_eq @ x0, 4) if force_feasible else np.round(a_eq @ x0 + 3.0, 2)
        kwargs = {"a_eq": a_eq, "b_eq": b_eq}
    return LinearProgram(c=c, a_le=a_le, b_le=b_le, lower=lower, upper=upper, **kwargs)


def assert_kkt(lp, sol, tol=10 * FEAS_TOL):
    """Full optimality audit: primal/dual feasibility and complementary slackness."""
    x = sol.point
    assert np.all(np.abs(lp.a_eq @ x - lp.b_eq) <= tol)
    slack = lp.b_le - lp.a_le @ x
    assert np.all(slack >= -tol)
    assert np.all(x >= lp.lower - tol) and np.all(x <= lp.upper + tol)
    lam = sol.dual_le
    assert np.all(lam >= -tol)
    assert np.all(np.abs(lam * slack) <= tol * 100)
    rc = lp.c + lp.a_eq.T @ sol.dual_eq + lp.a_le.T @ lam
    scale = 1.0 + np.abs(lp.c).max()
    for j in range(lp.n_vars):
        at_lower = x[j] <= lp.lower[j] + tol * 100
        at_upper = x[j] >= lp.upper[j] - tol * 100
        if not at_lower:
            assert rc[j] <= tol * scale, f"var {j}: rc={rc[j]} off lower bound"
        if not at_upper:
            assert rc[j] >= -tol * scale, f"var {j}: rc={rc[j]} off upper bound"


class TestWorkedPrograms:
    def test_bound_attained_minimum(self):
        sol = solve_lp(LinearProgram(c=[1.0], lower=[0.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_two_resource_covering_program(self):
        # min 3a + b with 3a + b >= 4 and 3a + 3b >= 6: optimum (1, 1), value 4.
        lp = LinearProgram(
            c=[3.0, 1.0],
            a_le=[[-3.0, -1.0], [-3.0, -3.0]],
            b_le=[-4.0, -6.0],
            lower=[0.0, 0.0],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
        np.testing.assert_allclose(sol.point, [1.0, 1.0], atol=1e-9)

    def test_unbounded_ray(self):
        sol = solve_lp(LinearProgram(c=[-1.0], lower=[0.0]))
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.point is None

    def test_contradictory_rows(self):
        lp = LinearProgram(c=[0.0], a_eq=[[1.0]], b_eq=[1.0], a_le=[[1.0]], b_le=[0.0])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE
        assert not check_feasible(lp).feasible

    def test_simplex_facet_point(self):
        lp = LinearProgram(c=[0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lower=[0.0, 0.0])
        res = check_feasible(lp)
        assert res.feasible
        assert res.point.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.point >= -1e-9)

    def test_free_variable_equality(self):
        lp = LinearProgram(c=[1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[-2.0])
        sol = solve_lp(lp)
        # x unbounded below along (1, -1)? No: minimizing x with x + y = -2 and
        # both free is unbounded.
        assert sol.status is LpStatus.UNBOUNDED

    def test_mirrored_upper_bound_only(self):
        lp = LinearProgram(c=[-1.0], upper=[2.5])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point[0] == pytest.approx(2.5)


class TestValidation:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0], lower=[1.0], upper=[0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], a_le=[[1.0]], b_le=[1.0])

    def test_iteration_limit_raises(self, monkeypatch):
        lp = LinearProgram(
            c=[3.0, 1.0],
            a_le=[[-3.0, -1.0], [-3.0, -3.0]],
            b_le=[-4.0, -6.0],
            lower=[0.0, 0.0],
        )
        monkeypatch.setattr("polyprocure.lp.MAX_ITERATIONS", 1)
        with pytest.raises(IterationLimitError):
            solve_lp(lp)


class TestAgainstBruteForce:
    def test_random_boxed_lps(self):
        rng = np.random.default_rng(7)
        optima = infeasible = 0
        for _ in range(60):
            lp = random_boxed_lp(rng, force_feasible=bool(rng.random() < 0.7))
            status, value = brute_force_minimum(lp)
            sol = solve_lp(lp)
            if status == "infeasible":
                assert sol.status is LpStatus.INFEASIBLE
                infeasible += 1
            else:
                assert sol.status is LpStatus.OPTIMAL
                assert sol.objective_value == pytest.approx(value, abs=1e-8)
                x = sol.point
                assert np.abs(lp.a_eq @ x - lp.b_eq).max(initial=0) < 1e-8
                assert (lp.a_le @ x - lp.b_le).max(initial=0) < 1e-8
                optima += 1
        assert optima >= 30 and infeasible >= 3  # the mix actually exercises both paths

    def test_duality_audit_on_random_optima(self):
        rng = np.random.default_rng(21)
        audited = 0
        while audited < 40:
            lp = random_boxed_lp(rng)
            sol = solve_lp(lp)
            if sol.status is LpStatus.OPTIMAL:
                assert_kkt(lp, sol)
                audited += 1

    def test_phase_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            lp = random_boxed_lp(rng, force_feasible=bool(rng.random() < 0.5))
            by_phase1 = check_feasible(lp).feasible
            by_solve = solve_lp(lp).status is not LpStatus.INFEASIBLE
            assert by_phase1 == by_solve


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_repeat_solves_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        lp = random_boxed_lp(rng, force_feasible=bool(seed % 3))
        first = solve_lp(lp)
        second = solve_lp(lp)
        assert first.status is second.status
        if first.status is LpStatus.OPTIMAL:
            assert first.objective_value == second.objective_value  # exact
            assert first.point.tobytes() == second.point.tobytes()
