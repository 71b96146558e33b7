"""Solver checks: worked programs, brute-force and HiGHS cross-validation,
the condensed tableau's Jordan exchange against a full-tableau pivot, the
pivot rules, several objectives against one at a time, memory budgets,
determinism."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import polyprocure
from _fleets import random_fleet_instance
from polyprocure import causal, lp as lp_module, procurement
from polyprocure.causal import build_scenario_tree, causal_feasibility
from polyprocure.inputs import instance_from_json
from polyprocure.lp import (
    FEAS_TOL,
    IterationLimitError,
    LinearProgram,
    LpStatus,
    NumericalError,
    check_feasible,
    solve_lp,
    solve_lp_costs,
)
from polyprocure.polytope import BatterySpec, battery_set
from polyprocure.procurement import Resource


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


def random_lp_costs(rng, k=5):
    """A small random program, each variable boxed, lower-bounded only,
    upper-bounded only or free, with k objectives.  Over many draws every
    verdict occurs: optimal, unbounded (the free and one-sided variables)
    and infeasible (rows cut off the point x0 the data is built around)."""
    n = rng.integers(2, 6)
    kind = rng.integers(0, 4, n)  # boxed, lower only, upper only, free
    x0 = np.round(rng.uniform(-2, 2, n), 2)
    lower = np.where(kind <= 1, x0 - np.round(rng.uniform(0.1, 2, n), 2), -np.inf)
    upper = np.where(kind % 2 == 0, x0 + np.round(rng.uniform(0.1, 2, n), 2), np.inf)
    m_le = rng.integers(1, 6)
    a_le = np.round(rng.normal(0, 1, (m_le, n)), 2)
    low = -2.0 if rng.random() < 0.3 else 0.05
    b_le = np.round(a_le @ x0 + rng.uniform(low, 1.5, m_le), 2)
    kwargs = {}
    if rng.random() < 0.4:
        a_eq = np.round(rng.normal(0, 1, (1, n)), 2)
        kwargs = {"a_eq": a_eq, "b_eq": np.round(a_eq @ x0, 4)}
    costs = np.round(rng.normal(0, 2, (k, n)), 2)
    return (LinearProgram(c=costs[0], a_le=a_le, b_le=b_le, lower=lower, upper=upper,
                          **kwargs), costs)


def assert_primal_feasible(lp, x, tol=10 * FEAS_TOL):
    assert np.all(np.abs(lp.a_eq @ x - lp.b_eq) <= tol)
    assert np.all(lp.b_le - lp.a_le @ x >= -tol)
    assert np.all(x >= lp.lower - tol) and np.all(x <= lp.upper + tol)


def phase_one_tableau_bytes(lp):
    """Bytes of the full phase-1 tableau [A | artificials | b] of lp, the unit
    that memory budgets are given in (the solver stores only its nonbasic
    columns): one column per bounded variable and two per free one, a row
    and a slack per <= row and per doubly bounded variable, an artificial
    per equality row and per <= row whose rhs is negative once the
    variables are shifted to 0."""
    has_lo, has_up = np.isfinite(lp.lower), np.isfinite(lp.upper)
    offset = np.where(has_lo, lp.lower, np.where(has_up, lp.upper, 0.0))
    m_eq, m_ineq = lp.b_eq.size, lp.b_le.size + np.count_nonzero(has_lo & has_up)
    n_std = np.where(has_lo | has_up, 1, 2).sum() + m_ineq
    n_art = m_eq + np.count_nonzero(lp.b_le - lp.a_le @ offset < 0)
    return 8 * (m_eq + m_ineq) * (n_std + n_art + 1)


def captured_lps(module, name, run):
    """Every LP that run() passes to module.name, in call order."""
    seen = []
    real = getattr(module, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, lambda lp: seen.append(lp) or real(lp))
        run()
    return seen


def tree_check_lp(alpha):
    """The LP of a 1214 x 186 scenario-tree check, the benchmark's shape: three
    batteries scaled by alpha, six periods, a binary branch in each of the
    first four."""
    rng = np.random.default_rng(3)
    values = rng.uniform(-0.6, 0.6, (6, 16))
    signals = [[values[d, leaf >> max(0, 3 - d)] for d in range(6)] for leaf in range(16)]
    resources = [Resource(battery_set(BatterySpec(c, r, s, 6)), 1.0)
                 for c, r, s in ((2.2, 0.9, 0.5), (1.8, 0.8, 0.4), (2.6, 1.0, 0.6))]
    return captured_lps(causal, "check_feasible", lambda: causal_feasibility(
        build_scenario_tree(np.array(signals)), resources, [alpha] * 3))[0]


FIXTURE = Path(__file__).with_name("policy_bounds_120428386_1.json")


def affine_fixture(name):
    """The instance of a policy_bounds_<seed>_<job>.json fixture (benchmark
    policy-bounds job <job> of seed <seed>), its affine LP and its affine
    result."""
    inst = instance_from_json(json.loads(FIXTURE.with_name(name).read_text()))
    affine = []
    lp = captured_lps(procurement, "solve_lp",
                      lambda: affine.append(procurement.affine_bound(inst)))[0]
    return inst, lp, affine[0]


def recorded_exchanges(monkeypatch):
    """Patch lp._pivot to record the (leaving, entering) variable ids of each
    exchange; returns the list it appends to."""
    real, moves = lp_module._pivot, []

    def recording(tab, basis, ids, leave, slot):
        moves.append((int(basis[leave]), int(ids[slot])))
        real(tab, basis, ids, leave, slot)

    monkeypatch.setattr(lp_module, "_pivot", recording)
    return moves


def counted_simplex(monkeypatch):
    """Patch lp._simplex to count its calls; returns the list it appends to."""
    real, calls = lp_module._simplex, []
    monkeypatch.setattr(lp_module, "_simplex", lambda *args: calls.append(None) or real(*args))
    return calls


def benchmark_fleet():
    """A three-resource fleet of the benchmark's shape, eight demand vertices."""
    rng = np.random.default_rng(3)
    return instance_from_json({"horizon": 8, "resources": [
        {"battery": {"capacity": 3.0, "rate": 1.1, "soc": 0.5}, "price": 1.0},
        {"instances": True, "price": 0.6},
        {"battery": {"capacity": 1.5, "rate": 0.5, "soc": 0.5}, "price": 0.3,
         "scalable": False}],
        "demand": {"vrep": {"vertices": rng.uniform(-1, 1, (8, 8)).tolist()}}})


def oracle_lp():
    """The 704 x 194 LP of solve_oracle on benchmark_fleet()."""
    inst = benchmark_fleet()
    lp = captured_lps(procurement, "solve_lp", lambda: procurement.solve_oracle(inst))[0]
    assert (lp.b_eq.size + lp.b_le.size, lp.n_vars) == (704, 194)
    return lp


def tv_lp():
    """The LP of tv_proportional_bound on benchmark_fleet()."""
    inst = benchmark_fleet()
    return captured_lps(procurement, "solve_lp",
                        lambda: procurement.tv_proportional_bound(inst))[0]


def dense_original(original):
    """The dense original rows [a | b] of an lp._Original, with a column for
    every structural variable, implicit slacks included."""
    return np.column_stack([original.columns(np.arange(original.col.size)), original.rows[:, -1]])


def hand_original(rows, n_struct, n_cols, m_eq):
    """An lp._Original whose explicit columns are the columns of rows but the
    rhs; the ids from n_cols on are the slacks of rows m_eq on, and those
    past the explicit columns are implicit."""
    std = SimpleNamespace(n_struct=n_struct, n_cols=n_cols, m_eq=m_eq)
    return lp_module._Original(rows, np.arange(rows.shape[1] - 1), std,
                               np.ones(rows.shape[0], dtype=bool))


def dense_certified(original, basis, c):
    """The reference certificate: x_B and y from two dense solves with the
    full r x r basis of the dense original rows [a | b]."""
    b_mat = original[:, basis]
    try:
        x_b = np.linalg.solve(b_mat, original[:, -1])
        y = np.linalg.solve(b_mat.T, c[basis])
    except np.linalg.LinAlgError:
        return None
    reduced = c - y @ original[:, :-1]
    if x_b.min(initial=0.0) < -FEAS_TOL or reduced.min(initial=0.0) < -FEAS_TOL:
        return None
    return x_b


def certificate_lp(rng, k=3):
    """A small random program built around a feasible point x0, with k
    objectives and every shape the certificate's block elimination meets:
    equality and <= rows; a <= row whose rhs turns negative once the
    variables are shifted, so it is negated and its slack enters with -1;
    boxed variables (upper-bound rows); a lower-bounded variable in one <=
    row and a free one in one equality row (structural single-entry
    columns); and a duplicated equality row, which phase 1 drops as
    redundant."""
    n = int(rng.integers(4, 8))
    kind = rng.integers(0, 4, n)  # boxed, lower only, upper only, free
    kind[:3] = (0, 1, 3)
    x0 = np.round(rng.uniform(-2, 2, n), 2)
    lower = np.where(kind <= 1, x0 - np.round(rng.uniform(0.1, 2, n), 2), -np.inf)
    upper = np.where(kind % 2 == 0, x0 + np.round(rng.uniform(0.1, 2, n), 2), np.inf)
    m_eq, m_le = int(rng.integers(1, 3)), int(rng.integers(2, 5))
    a = np.round(rng.normal(0, 1, (m_eq + m_le, n)), 2) * (rng.random((m_eq + m_le, n)) < 0.6)
    a[:, 1:3] = 0.0
    a[m_eq + rng.integers(m_le), 1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    a[0, 2] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    a_eq, a_le = a[:m_eq], a[m_eq:]
    b_le = np.round(a_le @ x0 + rng.uniform(0.05, 1.0, m_le), 2)
    # -x_0 <= -(lower_0 + t): shifted by lower_0, its rhs is -t < 0.
    a_le = np.vstack([a_le, -np.eye(n)[0]])
    b_le = np.append(b_le, -(lower[0] + (x0[0] - lower[0]) / 2))
    a_eq = np.vstack([a_eq, a_eq[0]])
    b_eq = a_eq @ x0
    costs = np.round(rng.normal(0, 2, (k, n)), 2)
    return (LinearProgram(c=costs[0], a_eq=a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le,
                          lower=lower, upper=upper), costs)


def optimal_for(original, basis, rng):
    """An objective for which basis, if primal feasible, is optimal: duals y
    drawn at random and positive reduced costs off the basis."""
    reduced = rng.uniform(0.1, 1.0, original.shape[1] - 1)
    reduced[basis] = 0.0
    return rng.normal(0, 1, original.shape[0]) @ original[:, :-1] + reduced


def recorded_solve_shapes(monkeypatch):
    """Patch np.linalg.solve to record the shape of each system it solves."""
    real, shapes = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: shapes.append(a.shape) or real(a, b))
    return shapes


def highs(lp):
    """SciPy's HiGHS on lp."""
    eq = {"A_eq": lp.a_eq, "b_eq": lp.b_eq} if lp.b_eq.size else {}
    le = {"A_ub": lp.a_le, "b_ub": lp.b_le} if lp.b_le.size else {}
    return linprog(lp.c, **le, **eq, bounds=np.column_stack([lp.lower, lp.upper]),
                   method="highs")


HIGHS_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}


def full_pivot(tab, basis, leave, enter):
    """The reference pivot, the solver's before it condensed its tableau:
    bring column `enter` of the full tableau [B^-1 A | B^-1 b], which keeps a
    unit column for every basic variable, into the basis at row `leave`,
    touching only the nonzero rows and columns of the update."""
    tab[leave] /= tab[leave, enter]
    touched = tab[:, enter].nonzero()[0]
    rows = touched[touched != leave]
    cols = tab[leave].nonzero()[0]
    row = tab[leave, cols]
    step = max(1, (1 << 20) // row.nbytes)
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step, None]
        tab[block, cols] -= tab[block, enter] * row
    rhs = tab[:, -1]
    rhs[touched] = np.maximum(rhs[touched], 0.0)
    basis[leave] = enter


@st.composite
def pivot_sequences(draw):
    """A full tableau with many exact zeros, entries of both signs, a
    nonnegative rhs and a unit column per basic variable; its basis and its
    nonbasic variable ids in shuffled slot order; a generator for the pivot
    choices, and how many pivots to make."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    full = rng.normal(0, 1, (m, m + n + 1)) * 10.0 ** rng.integers(-3, 4, (m, m + n + 1))
    full[rng.random(full.shape) >= density] = 0.0
    full[:, -1] = np.abs(full[:, -1])
    order = rng.permutation(m + n)
    basis, ids = order[:m], order[m:]
    full[:, basis] = np.eye(m)
    return full, basis, ids, rng, draw(st.integers(1, 6))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert check_feasible(lp).status is LpStatus.INFEASIBLE

    def test_simplex_facet_point(self):
        lp = LinearProgram(c=[0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], lower=[0.0, 0.0])
        res = check_feasible(lp)
        assert res.status is LpStatus.OPTIMAL and res.objective_value == 0.0
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

    @pytest.mark.parametrize("a_le, b_le, status", [
        (None, None, LpStatus.OPTIMAL),
        (np.zeros((2, 0)), [1.0, 1.0], LpStatus.OPTIMAL),
        (np.zeros((1, 0)), [-1.0], LpStatus.INFEASIBLE)],
        ids=["no-rows", "slack-rows", "contradictory-row"])
    def test_no_nonbasic_column(self, a_le, b_le, status):
        """With no variables there is no column to price: the starting
        basis is the verdict, through either entry point."""
        lp = LinearProgram(c=np.zeros(0), a_le=a_le, b_le=b_le)
        for sol in (solve_lp(lp), check_feasible(lp)):
            assert sol.status is status
            if status is LpStatus.OPTIMAL:
                assert sol.point.shape == (0,) and sol.objective_value == 0.0


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

    def test_phase_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            lp = random_boxed_lp(rng, force_feasible=bool(rng.random() < 0.5))
            by_phase1 = check_feasible(lp)
            by_solve = solve_lp(lp).status is not LpStatus.INFEASIBLE
            assert (by_phase1.status is LpStatus.OPTIMAL) == by_solve
            if by_solve:
                assert_primal_feasible(lp, by_phase1.point)


class TestAgainstHighs:
    def test_random_optima_match_highs(self):
        rng = np.random.default_rng(21)
        compared = 0
        while compared < 40:
            lp = random_boxed_lp(rng)
            sol, ref = solve_lp(lp), highs(lp)
            assert sol.status is HIGHS_STATUS[ref.status]
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective_value == pytest.approx(ref.fun, abs=1e-8)
                assert_primal_feasible(lp, sol.point)
                compared += 1

    def test_fleet_lps_match_highs(self):
        """The LPs that solve_oracle, tv_proportional_bound and affine_bound
        build on random battery fleets."""
        rng = np.random.default_rng(17)
        lps = []
        for _ in range(10):
            _, _, inst = random_fleet_instance(rng)
            for bound in (procurement.solve_oracle, procurement.tv_proportional_bound,
                          procurement.affine_bound):
                lps += captured_lps(procurement, "solve_lp", lambda: bound(inst))
        assert len(lps) == 30
        optimal = 0
        for lp in lps:
            sol, ref = solve_lp(lp), highs(lp)
            assert sol.status is HIGHS_STATUS[ref.status]
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective_value == pytest.approx(ref.fun, abs=1e-8)
                optimal += 1
        assert optimal >= 10

    def test_affine_fixture_matches_highs(self):
        """The policy-bounds instance of benchmark seed 120428386, job 1,
        whose affine LP was once solved to 0.5938 (HiGHS: 0.6599), putting
        the affine cost below J*."""
        inst, lp, affine = affine_fixture(FIXTURE.name)
        sol, ref = solve_lp(lp), highs(lp)
        assert sol.status is LpStatus.OPTIMAL and ref.status == 0
        assert sol.objective_value == pytest.approx(ref.fun, abs=1e-8)
        assert sol.objective_value == pytest.approx(0.659853163131833, abs=1e-8)
        assert_primal_feasible(lp, sol.point)
        assert procurement.solve_oracle(inst).cost <= affine.cost

    @pytest.mark.parametrize("name", ["policy_bounds_3_7.json", "policy_bounds_11_1.json"])
    def test_rebuilt_affine_fixtures_match_highs(self, monkeypatch, name):
        """The two policy-bounds affine LPs whose phase 2, carried on from
        phase 1 without a certificate, once stopped below HiGHS (1.1703
        against 1.3882, 0.5698 against 0.6342): the certificate rejects the
        carried basis and the one rebuild solves them."""
        inst, lp, affine = affine_fixture(name)
        calls = counted_simplex(monkeypatch)
        sol = solve_lp(lp)
        assert len(calls) == 3  # phase 1, the carried phase 2, the rebuild
        ref = highs(lp)
        assert sol.status is LpStatus.OPTIMAL and ref.status == 0
        assert sol.objective_value == pytest.approx(ref.fun, abs=1e-8)
        assert_primal_feasible(lp, sol.point)
        assert procurement.solve_oracle(inst).cost <= affine.cost

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_tree_check_verdict_matches_highs(self, alpha):
        lp = tree_check_lp(alpha)
        ref = highs(lp)
        assert ref.status in (0, 2)
        sol = check_feasible(lp)
        assert (sol.status is LpStatus.OPTIMAL) is (ref.status == 0)
        if ref.status == 0:
            assert_primal_feasible(lp, sol.point)


def zero_columns(tab):
    """A stale carried tableau: every column reads zero, so pricing sees the
    bare costs.  A nonnegative objective stops at once at the old basis; one
    with a negative cost finds an empty column and calls itself unbounded."""
    tab[:, :-1] = 0.0


def reverse_rhs(tab):
    """A drifted carried tableau: the rhs column comes out in reverse row
    order, so ratio tests pick the wrong leaving rows."""
    tab[:, -1] = tab[::-1, -1].copy()


class TestSolveCosts:
    def test_matches_per_objective_solves_and_highs(self):
        rng = np.random.default_rng(29)
        seen = Counter()
        for _ in range(80):
            lp, costs = random_lp_costs(rng)
            sols = solve_lp_costs(lp, costs)
            assert len(sols) == len(costs)
            for c, sol in zip(costs, sols):
                one = replace(lp, c=c)
                alone, ref = solve_lp(one), highs(one)
                assert sol.status is alone.status is HIGHS_STATUS[ref.status]
                if sol.status is LpStatus.OPTIMAL:
                    assert sol.objective_value == pytest.approx(alone.objective_value, abs=1e-8)
                    assert sol.objective_value == pytest.approx(ref.fun, abs=1e-8)
                    assert sol.objective_value == pytest.approx(c @ sol.point, abs=1e-12)
                    assert_primal_feasible(one, sol.point)
                seen[sol.status] += 1
        assert min(seen[status] for status in LpStatus) >= 30, seen

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_first_objective_bit_identical_to_solve_lp(self, seed):
        lp, costs = random_lp_costs(np.random.default_rng(seed))
        first, alone = solve_lp_costs(lp, costs)[0], solve_lp(lp)
        assert first.status is alone.status
        if alone.status is LpStatus.OPTIMAL:
            assert first.objective_value == alone.objective_value  # exact
            assert first.point.tobytes() == alone.point.tobytes()

    def test_no_objectives(self):
        lp, _ = random_lp_costs(np.random.default_rng(0))
        assert solve_lp_costs(lp, []) == []

    @pytest.mark.parametrize("cost", [[1.0], [1.0, np.nan]], ids=["short", "nan"])
    def test_malformed_objective_rejected(self, cost):
        lp = LinearProgram(c=[1.0, 1.0], lower=[0.0, 0.0])
        with pytest.raises(ValueError, match="2 finite coefficients"):
            solve_lp_costs(lp, [lp.c, cost])

    @pytest.mark.parametrize("corrupt, sign, objective", [
        pytest.param(corrupt, sign, objective, id=prefix + name)
        for objective, prefix in ((1, ""), (0, "first-"))
        for corrupt, sign, name in ((zero_columns, 1.0, "stale-optimal"),
                                    (zero_columns, -1.0, "stale-unbounded"),
                                    (reverse_rhs, 1.0, "drifted"))])
    def test_corrupted_carry_is_rebuilt(self, monkeypatch, corrupt, sign, objective):
        """The phase 2 of the first objective (carried on from phase 1's
        tableau) or of the second (carried on from the first's) starts from a
        corrupted tableau; the certificate must catch every wrong answer, and
        the rebuild must give the answer of solving that objective alone."""
        real_simplex = lp_module._simplex
        calls = []

        def corrupting(tab, c, basis, ids, counter):
            calls.append(None)
            if len(calls) == 2 + objective:  # phase 1, then one phase 2 per objective
                corrupt(tab)
            return real_simplex(tab, c, basis, ids, counter)

        monkeypatch.setattr(lp_module, "_simplex", corrupting)
        rng = np.random.default_rng(31)
        rebuilt = 0
        for _ in range(30):
            lp = random_boxed_lp(rng)
            c = sign * (np.abs(lp.c) + 0.5)  # opposite objectives: optima differ
            costs = [-c, -c]
            costs[objective] = c
            calls.clear()
            got = solve_lp_costs(lp, costs)[objective]
            rebuilt += len(calls) == 4  # a fourth phase: the rebuild
            with monkeypatch.context() as mp:
                mp.setattr(lp_module, "_simplex", real_simplex)
                alone = solve_lp(replace(lp, c=c))
            assert got.status is alone.status is LpStatus.OPTIMAL
            assert got.objective_value == pytest.approx(alone.objective_value, abs=1e-9)
            assert_primal_feasible(lp, got.point)
        assert rebuilt >= 10, f"rebuilt {rebuilt} of 30"

    def test_uncertified_basis_raises(self, monkeypatch):
        """A basis that fails its certificate after the rebuild is never read
        out: the solve raises instead."""
        monkeypatch.setattr(lp_module, "_certified", lambda *args: None)
        with pytest.raises(NumericalError, match="failed its certificate after a rebuild"):
            solve_lp(LinearProgram(c=[1.0, 2.0], a_le=[[-1.0, -1.0]], b_le=[-1.0],
                                   lower=[0.0, 0.0]))

    def test_oracle_lp_needs_no_rebuild(self, monkeypatch):
        """The common path: phase 2 carries on from phase 1's tableau and
        its basis passes the certificate, so the tableau is never rebuilt."""
        lp = oracle_lp()
        calls = counted_simplex(monkeypatch)
        assert solve_lp(lp).status is LpStatus.OPTIMAL
        assert len(calls) == 2  # phase 1 and phase 2


class TestCertificate:
    """_certified eliminates the basic single-entry columns, implicit slacks
    included, and solves only the block left over; it must agree with two
    dense solves on the full basis."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        lp, costs = certificate_lp(rng)
        calls, real = [], lp_module._certified
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_certified", lambda original, basis, c: calls.append(
                (original, basis.copy(), c)) or real(original, basis, c))
            solve_lp_costs(lp, costs)
        std = lp_module._Standard(lp)
        for original, basis, c in calls:
            dense = dense_original(original)
            assert dense.shape[0] < std.tab.shape[0]  # a redundant row is gone
            negated = original.explicit >= std.n_cols  # explicit slacks: of negated rows
            assert np.any(original.rows[:, :-1][:, negated] == -1.0)
            assert original.implicit.size  # the slack of an upper-bound row, at least
            single = np.count_nonzero(dense[:, :-1], axis=0) == 1
            assert np.array_equal(original.unit_row >= 0, single)
            where = dense[:, :-1][:, single].T.nonzero()[1]
            assert np.array_equal(original.unit_row[single], where)
            assert np.array_equal(original.unit_val[single], dense[where, single.nonzero()[0]])
            assert np.any(single[:std.n_cols])  # a structural single-entry column
            exchanged = [basis.copy() for _ in range(4)]  # non-optimal bases
            for other in exchanged:
                other[rng.integers(basis.size)] = rng.choice(
                    np.setdiff1d(np.arange(original.col.size), basis))
            for i, other in enumerate([basis] + exchanged):
                if i and np.linalg.cond(dense[:, other]) > 1e8:
                    continue
                for cost in (c, optimal_for(dense, other, rng)):
                    got = lp_module._certified(original, other, cost)
                    want = dense_certified(dense, other, cost)
                    assert (got is None) is (want is None)
                    if want is not None:
                        np.testing.assert_allclose(
                            got, want, rtol=1e-9, atol=1e-9 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("lp, slack, explicit, value, point", [
        # min -x, x + y <= 4, x <= 2: row 0's slack stays basic at 2, and
        # never had a column.
        pytest.param(LinearProgram(c=[-1.0, 0.0], a_le=[[1.0, 1.0], [1.0, 0.0]],
                                   b_le=[4.0, 2.0], lower=[0.0, 0.0]),
                     2, False, 2.0, [2.0, 0.0], id="implicit"),
        # min -x, -x <= -1, x <= 3: row 0 is negated, x - s = 1, so its slack
        # has an explicit column with -1; it is basic at 2.
        pytest.param(LinearProgram(c=[-1.0], a_le=[[-1.0], [1.0]], b_le=[-1.0, 3.0],
                                   lower=[0.0]),
                     1, True, 2.0, [3.0], id="negated-explicit")])
    def test_basic_slack(self, monkeypatch, lp, slack, explicit, value, point):
        calls, real = [], lp_module._certified

        def recording(original, basis, c):
            x_b = real(original, basis, c)
            calls.append((original, basis.copy(), c, x_b))
            return x_b

        monkeypatch.setattr(lp_module, "_certified", recording)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL and sol.point.tolist() == point
        [(original, basis, c, x_b)] = calls
        assert (original.col[slack] >= 0) == explicit
        assert original.unit_row[slack] == 0
        assert original.unit_val[slack] == (-1.0 if explicit else 1.0)
        assert x_b[basis.tolist().index(slack)] == value
        np.testing.assert_allclose(x_b, dense_certified(dense_original(original), basis, c))

    def test_two_unit_columns_on_one_row_are_singular(self):
        cases = [
            # Explicit columns 0 and 2 each hold one nonzero, both in row 0;
            # id 3 is the implicit slack of row 1.
            ([[2.0, 1.0, -1.0, 3.0], [0.0, 1.0, 0.0, 1.0]], [0, 2], [0, 3], [1.5, 1.0]),
            # Explicit column 0 and id 3, the implicit slack of row 1, both
            # sit on row 1.
            ([[0.0, 1.0, 1.0, 2.0], [2.0, 1.0, 0.0, 3.0]], [0, 3], [2, 0], [2.0, 1.5])]
        c = np.zeros(4)
        for rows, singular, regular, x_b in cases:
            original = hand_original(np.array(rows), 4, n_cols=3, m_eq=1)
            dense = dense_original(original)
            assert original.unit_row[singular[0]] == original.unit_row[singular[1]] >= 0
            assert dense_certified(dense, np.array(singular), c) is None
            assert lp_module._certified(original, np.array(singular), c) is None
            assert lp_module._certified(original, np.array(regular), c).tolist() == x_b

    @pytest.mark.parametrize("lp, point", [
        pytest.param(LinearProgram(c=[1.0, -1.0], lower=[0.0, -np.inf], upper=[np.inf, 2.5]),
                     [0.0, 2.5], id="no-rows"),
        pytest.param(LinearProgram(c=[1.0, 1.0], a_le=[[1.0, 1.0]], b_le=[1.0],
                                   lower=[0.0, 0.0]), [0.0, 0.0], id="slack-basis"),
        pytest.param(LinearProgram(c=[-1.0, 1.0], a_le=[[2.0, 0.0], [0.0, -1.0]],
                                   b_le=[3.0, -0.5], lower=[0.0, 0.0]),
                     [1.5, 0.5], id="structural-unit-basis")])
    def test_all_unit_basis(self, monkeypatch, lp, point):
        """A basis of single-entry columns only leaves a 0 x 0 block."""
        shapes = recorded_solve_shapes(monkeypatch)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.point.tolist() == point
        assert shapes == [(0, 0), (0, 0)]

    @pytest.mark.parametrize("build", [oracle_lp, tv_lp], ids=["oracle", "tv"])
    def test_solves_only_the_non_unit_block(self, monkeypatch, build):
        """The largest system solved is at most the count of basic columns
        with several nonzeros, not the r x r basis."""
        lp = build()
        several, real = [], lp_module._certified

        def counting(original, basis, c):
            basic = original.columns(basis)
            several.append(np.count_nonzero(np.count_nonzero(basic, axis=0) > 1))
            return real(original, basis, c)

        monkeypatch.setattr(lp_module, "_certified", counting)
        shapes = recorded_solve_shapes(monkeypatch)
        assert solve_lp(lp).status is LpStatus.OPTIMAL
        assert len(several) == 1 and len(shapes) == 2  # one certificate, no rebuild
        assert max(max(shape) for shape in shapes) <= several[0]
        assert several[0] < (lp.b_eq.size + lp.b_le.size) / 4


class TestSparsePivot:
    @settings(max_examples=200, deadline=None)
    @given(pivot_sequences(), st.sampled_from([8, 64, 1 << 20]))
    def test_bit_identical_to_full_tableau(self, case, block_bytes):
        """After every exchange of a random sequence (pivot entries of either
        sign), the condensed [N | b] equals the full tableau's nonbasic
        columns and rhs."""
        full, basis, ids, rng, steps = case
        tab = np.column_stack([full[:, ids], full[:, -1]])
        ref_basis = basis.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp_module, "_UPDATE_BLOCK_BYTES", block_bytes)
            for _ in range(steps):
                leave = rng.integers(tab.shape[0])
                slots = tab[leave, :-1].nonzero()[0]
                if slots.size == 0:
                    continue
                slot = rng.choice(slots)
                full_pivot(full, ref_basis, leave, ids[slot])
                lp_module._pivot(tab, basis, ids, leave, slot)
                # array_equal counts -0.0 equal to 0.0: the one difference an
                # update that skips x - 0 * y can make.
                assert np.array_equal(tab, full[:, np.append(ids, -1)], equal_nan=True)
                assert np.array_equal(basis, ref_basis)
                assert np.array_equal(full[:, basis], np.eye(basis.size))

    def test_writes_only_touched_rows_and_columns(self):
        class Recording(np.ndarray):
            written = 0

            def __setitem__(self, key, value):
                Recording.written += np.size(np.asarray(self)[key])
                super().__setitem__(key, value)

        m, n = 400, 600
        tab = np.zeros((m, n + 1))
        tab[:, -1] = 1.0
        tab[[3, 50, 170], 450] = [2.0, 1.5, 0.5]
        tab[50, [7, 90, 451]] = [0.3, -2.0, 4.0]
        basis, ids = n + np.arange(m), np.arange(n)  # a slack basis
        lp_module._pivot(tab.view(Recording), basis, ids, 50, 450)
        # The leaving row, the slot's 2 other entries and its pivot entry,
        # then 2 rows x the row's 5 nonzero columns (3 entries, the slot and
        # the rhs), then the rhs of the 3 rows the slot touches.  A dense
        # update writes all m x (n + 1) entries.
        assert Recording.written <= (n + 1) + 2 + 1 + 2 * 5 + 3
        assert basis[50] == 450 and ids[450] == n + 50


class TestPivotRules:
    def test_dantzig_tie_goes_to_the_lowest_id(self, monkeypatch):
        """Two slots price the same; the lower variable id enters, though
        its slot comes second."""
        moves = recorded_exchanges(monkeypatch)
        tab = np.array([[1.0, 1.0, 1.0]])
        basis, ids = np.array([2]), np.array([1, 0])
        assert lp_module._simplex(tab, np.array([-1.0, -1.0, 0.0]), basis, ids, [0]) == "optimal"
        assert moves == [(2, 0)]

    def test_bland_takes_the_lowest_id(self, monkeypatch):
        """After a degenerate pivot Bland's rule takes over (the limit is
        lowered to 1): of the improving slots, the one with the lowest
        variable id enters, not the most negative one, nor the first slot."""
        monkeypatch.setattr(lp_module, "_DEGENERATE_PIVOT_LIMIT", 1)
        moves = recorded_exchanges(monkeypatch)
        tab = np.array([[1.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 1.0, 0.0]])
        basis, ids = np.array([3, 4]), np.array([2, 1, 0])
        c = np.array([-1.0, -2.0, -5.0, 0.0, 0.0])
        assert lp_module._simplex(tab, c, basis, ids, [0]) == "optimal"
        # Dantzig's -5 first; then ids 1 (-2) and 0 (-1) improve, and 0 enters.
        assert [enter for _, enter in moves[:2]] == [2, 0]

    def test_drive_out_takes_the_largest_entry_lowest_id(self):
        """An artificial left basic after phase 1 leaves for the structural
        slot with the largest |entry| in its row, ties to the lowest id; a
        row with no usable entry is redundant."""
        tab = np.array([[-2.0, 2.0, 1.0, 5.0, 0.0],
                        [1e-12, 0.0, 0.0, 1.0, 0.0]])
        basis, ids = np.array([4, 5]), np.array([1, 0, 2, 3])
        keep = lp_module._drive_out(tab, basis, ids, 3)
        assert basis.tolist() == [0, 5] and ids.tolist() == [1, 4, 2, 3]
        assert keep.tolist() == [True, False]

    def test_departed_artificial_reenters_in_phase_one(self, monkeypatch):
        """Phase 1 prices an artificial that left the basis like any other
        column, so it may enter again.  On the affine LP of benchmark
        policy-bounds seed 1300, job 5, one does; the solve still matches
        HiGHS."""
        inst, lp, affine = affine_fixture("policy_bounds_1300_5.json")
        std = lp_module._Standard(lp)
        moves = recorded_exchanges(monkeypatch)
        assert not lp_module._phase_one(std)[1]
        departed = [leave for leave, _ in moves]
        reentries = [i for i, (_, enter) in enumerate(moves)
                     if enter >= std.n_struct and enter in departed[:i]]
        assert reentries
        sol, ref = solve_lp(lp), highs(lp)
        assert sol.status is LpStatus.OPTIMAL and ref.status == 0
        assert sol.objective_value == pytest.approx(ref.fun, abs=1e-8)
        assert_primal_feasible(lp, sol.point)
        assert procurement.solve_oracle(inst).cost <= affine.cost


def looped_column_plan(lower, upper):
    """The reference column plan, one variable at a time: shift
    finite-lower variables, mirror upper-only ones, split free ones."""
    n = lower.size
    plus, minus, offset = np.full(n, -1), np.full(n, -1), np.zeros(n)
    ub_cols, ub_widths = [], []
    ncol = 0
    for j in range(n):
        if np.isfinite(lower[j]):
            offset[j], plus[j] = lower[j], ncol
            ncol += 1
            if np.isfinite(upper[j]):
                ub_cols.append(plus[j])
                ub_widths.append(upper[j] - lower[j])
        elif np.isfinite(upper[j]):
            offset[j], minus[j] = upper[j], ncol
            ncol += 1
        else:
            plus[j], minus[j] = ncol, ncol + 1
            ncol += 2
    return plus, minus, offset, ncol, ub_cols, ub_widths


class TestColumnPlan:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 4))
    def test_matches_per_variable_loop(self, seed, n, m):
        rng = np.random.default_rng(seed)
        kind = rng.integers(0, 4, n)  # lower only, upper only, both, free
        lower = np.where(kind % 2 == 0, rng.normal(size=n), -np.inf)
        upper = np.where(kind == 1, rng.normal(size=n), np.inf)
        upper[kind == 2] = lower[kind == 2] + rng.uniform(0, 2, np.sum(kind == 2))
        lp = LinearProgram(c=rng.normal(size=n), a_le=rng.normal(size=(m, n)),
                           b_le=rng.normal(size=m), lower=lower, upper=upper)
        std = lp_module._Standard(lp)
        plus, minus, offset, ncol, ub_cols, ub_widths = looped_column_plan(lower, upper)
        for got, want in ((std.plus, plus), (std.minus, minus), (std.offset, offset)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert std.n_struct == ncol + m + len(ub_cols)
        ub_rows = std.tab[m:]
        assert np.array_equal(ub_rows[:, :ncol].nonzero()[1], ub_cols)
        assert np.array_equal(ub_rows[:, -1], ub_widths)


class TestMemory:
    """Peak traced memory of a solve, in full phase-1 tableaus of its LP.  The
    LPs have the shapes of the benchmark's: a 1214 x 186 scenario-tree check
    and a 704 x 194 oracle.  The condensed tableau of the tree check holds
    373 of the full tableau's 1587 columns, the oracle's 387 of 1091 (the rhs
    included)."""

    def test_tree_check_peak(self):
        lp = tree_check_lp(1.0)
        assert (lp.b_eq.size + lp.b_le.size, lp.n_vars) == (1214, 186)
        assert traced_peak(check_feasible, lp) <= 0.7 * phase_one_tableau_bytes(lp)

    def test_oracle_solve_peak(self):
        lp = oracle_lp()
        assert traced_peak(solve_lp, lp) <= 1.3 * phase_one_tableau_bytes(lp)


# Solves the fleet LPs of TestAgainstHighs, the fixture's oracle, tv and
# affine LPs and one poc-sweep; prints the status and objective of every LP
# that procurement.solve_lp solves, and the CSV.
BLAS_CHILD = r"""
import json, sys
import numpy as np
from _fleets import random_fleet_instance
from polyprocure import inputs, lp, procurement
from polyprocure.cli import main

fixture, sweep, out = sys.argv[1:]
sols = []
procurement.solve_lp = lambda p: sols.append(lp.solve_lp(p)) or sols[-1]
rng = np.random.default_rng(17)
insts = [random_fleet_instance(rng)[2] for _ in range(10)]
insts.append(inputs.instance_from_json(json.load(open(fixture))))
for inst in insts:
    for bound in (procurement.solve_oracle, procurement.tv_proportional_bound,
                  procurement.affine_bound):
        bound(inst)
code = main(["poc-sweep", sweep, "--kappa", "0:4:0.25", "--out", out])
print(json.dumps({"lps": [[s.status.value, s.objective_value] for s in sols],
                  "code": code, "sweep": open(out).read()}))
"""


def run_blas_child(threads, tmp_path):
    src = Path(polyprocure.__file__).parents[1]
    tests = Path(__file__).parent
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"horizon": 3, "prices": [1.0, 1.0], "kappa_index": 1,
                                 "batteries": [{"capacity": 1, "rate": 1},
                                               {"capacity": 3, "rate": 1}]}))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", BLAS_CHILD, str(FIXTURE), str(sweep),
                           str(tmp_path / f"sweep{threads}.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestDeterminism:
    def test_blas_thread_count(self, tmp_path):
        """Bit-identity is promised only at a fixed BLAS thread count; across
        counts the verdicts must agree and the objectives to 1e-9."""
        one, two = run_blas_child(1, tmp_path), run_blas_child(2, tmp_path)
        # 11 instances x 3 LPs, then the sweep's 17 aggregate battery LPs
        assert len(one["lps"]) == len(two["lps"]) == 33 + 17
        for (status1, value1), (status2, value2) in zip(one["lps"], two["lps"]):
            assert status1 == status2
            if status1 == "optimal":
                assert value1 == pytest.approx(value2, rel=1e-9, abs=1e-12)
        assert one["code"] == two["code"] == 0
        rows1, rows2 = (sweep["sweep"].splitlines() for sweep in (one, two))
        assert len(rows1) == len(rows2) == 18
        for row1, row2 in zip(rows1[1:], rows2[1:]):
            for cell1, cell2 in zip(row1.split(","), row2.split(",")):
                if cell1 == "NA" or cell2 == "NA":
                    assert cell1 == cell2
                else:
                    assert float(cell1) == pytest.approx(float(cell2), rel=1e-9, abs=1e-12)

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
