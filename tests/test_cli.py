"""Command line behavior: reports, CSV emission, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyprocure
from polyprocure import cli, lp as lp_module, procurement
from polyprocure.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    RunReport,
    main,
)
from polyprocure.lp import FEAS_TOL, LpSolution, LpStatus
from polyprocure.polytope import BatterySpec, battery_set
from polyprocure.procurement import (
    ProcurementInstance,
    Resource,
    battery_exact_procurement,
    minkowski_demand,
    solve_oracle,
)

BATTERY_INSTANCE = {
    "resources": [
        {"battery": {"capacity": 3, "rate": 3, "soc": 0, "horizon": 3},
         "price": 3},
        {"battery": {"capacity": 3, "rate": 1, "soc": 0, "horizon": 3},
         "price": 1},
    ],
    "demand": {"vrep": {"vertices": [[0, 0, 0], [1, 1, -2], [1, 1, 4]]}},
}

CLOUD_INSTANCE = {
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

SWEEP_SPEC = {
    "horizon": 3,
    "batteries": [{"capacity": 1, "rate": 1}, {"capacity": 3, "rate": 1}],
    "prices": [1.0, 1.0],
    "kappa_index": 1,
}


# Malformed instance files: (what is wrong, instance, the error message's path).
MALFORMED_INSTANCES = [
    ("resource without price",
     {**BATTERY_INSTANCE, "resources": [{"battery": {"capacity": 3, "rate": 1, "horizon": 3}},
                                        BATTERY_INSTANCE["resources"][1]]},
     "resources[0]: missing 'price'"),
    ("battery without capacity",
     {**BATTERY_INSTANCE, "resources": [BATTERY_INSTANCE["resources"][0],
                                        {"battery": {"rate": 1, "horizon": 3}, "price": 1}]},
     "resources[1]: battery: missing 'capacity'"),
    ("top-level array", [BATTERY_INSTANCE], "instance must be a JSON object"),
    ("resource as a string", {**BATTERY_INSTANCE, "resources": ["battery", "battery"]},
     "resources[0]: expected an object"),
    ("no demand", {"resources": BATTERY_INSTANCE["resources"]}, "missing 'demand'"),
    ("aux period not an integer",
     {**BATTERY_INSTANCE, "resources": [
         {"hrep": {"A": [[1, 0, 0, 0]], "b": [1], "horizon": 3, "aux": 1,
                   "aux_periods": ["x"]}, "price": 1},
         BATTERY_INSTANCE["resources"][1]]},
     "resources[0]: hrep: aux period 'x'"),
    ("aux periods not a list",
     {**BATTERY_INSTANCE, "resources": [
         {"hrep": {"A": [[1, 0, 0, 0]], "b": [1], "horizon": 3, "aux": 1,
                   "aux_periods": 5}, "price": 1},
         BATTERY_INSTANCE["resources"][1]]},
     "resources[0]: hrep: aux_periods must be a list"),
    # "false" once read as true.
    ("scalable as a string",
     {**CLOUD_INSTANCE, "resources": [CLOUD_INSTANCE["resources"][0], {
         **CLOUD_INSTANCE["resources"][1], "scalable": "false"}]},
     "resources[1]: 'scalable' must be true or false, got 'false'"),
    # Integer fields once raised an OverflowError on Infinity and cut 2.5 to 2.
    ("infinite horizon", {**CLOUD_INSTANCE, "horizon": float("inf")},
     "'horizon' must be an integer, got inf"),
    ("fractional horizon", {**CLOUD_INSTANCE, "horizon": 2.5},
     "'horizon' must be an integer, got 2.5"),
    ("infinite job arrival",
     {**CLOUD_INSTANCE, "resources": [CLOUD_INSTANCE["resources"][0], {
         **CLOUD_INSTANCE["resources"][1],
         "jobs": [{"arrival": float("inf"), "deadline": 2, "work": 1}]}]},
     "resources[1]: jobs[0]: 'arrival' must be an integer"),
    # float(True) is 1.0: each of these once ran as the number 1.
    ("capacity as a boolean",
     {**BATTERY_INSTANCE, "resources": [
         {"battery": {"capacity": True, "rate": 3, "horizon": 3}, "price": 3},
         BATTERY_INSTANCE["resources"][1]]},
     "resources[0]: battery: 'capacity' must be a number, got True"),
    ("horizon as a boolean", {**CLOUD_INSTANCE, "horizon": True},
     "'horizon' must be a number, got True"),
    ("aux period as a boolean",
     {**BATTERY_INSTANCE, "resources": [
         {"hrep": {"A": [[1, 0, 0, 0]], "b": [1], "horizon": 3, "aux": 1,
                   "aux_periods": [True]}, "price": 1},
         BATTERY_INSTANCE["resources"][1]]},
     "resources[0]: hrep: aux period True"),
    ("vertex as a boolean",
     {**BATTERY_INSTANCE, "demand": {"vrep": {"vertices": [[True]]}}},
     "demand: vrep: 'vertices' must be a numeric array"),
]


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def assert_numerical_failure(code, captured, message):
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err


class TestJstar:
    def test_battery_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        assert main(["jstar", path]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.command == "jstar"
        assert rep.digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert rep.results["cost"] == pytest.approx(4.0, abs=1e-6)
        assert rep.results["alphas"] == pytest.approx([1.0, 1.0], abs=1e-6)
        assert rep.wall_time >= 0

    def test_report_roundtrip(self, tmp_path, capsys):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        main(["jstar", path])
        text = capsys.readouterr().out
        rep = RunReport.from_json(text)
        assert RunReport.from_json(rep.to_json()) == rep

    def test_infeasible_exit(self, tmp_path, capsys):
        inst = {
            "resources": [
                {"battery": {"capacity": 3, "rate": 1, "horizon": 3},
                 "price": 1, "scalable": False},
            ],
            "demand": {"vrep": {"vertices": [[5, 0, 0]]}},
        }
        path = write_json(tmp_path, "bad.json", inst)
        assert main(["jstar", path]) == EXIT_INFEASIBLE
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["status"] == "infeasible"

    def test_out_file(self, tmp_path):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        out = tmp_path / "report.json"
        assert main(["jstar", path, "--out", str(out)]) == EXIT_OK
        assert RunReport.from_json(out.read_text()).results[
            "cost"] == pytest.approx(4.0, abs=1e-6)

    def test_missing_file(self, capsys):
        assert main(["jstar", "/nonexistent.json"]) == EXIT_USAGE

    @pytest.mark.parametrize("command, instance, message", [
        pytest.param(command, instance, message, id=f"{command}: {what}")
        for command in ("jstar", "causal-check")
        for what, instance, message in MALFORMED_INSTANCES
        # causal-check reads only the resources of an instance
        if not (command == "causal-check" and "demand" in message)
    ])
    def test_malformed_instance_exits_with_one_line(self, tmp_path, capsys, command,
                                                    instance, message):
        path = write_json(tmp_path, "inst.json", instance)
        scen = tmp_path / "scen.csv"
        scen.write_text("1,1,-2\n")
        args = [path] if command == "jstar" else [path, str(scen), "--alpha", "1", "1"]
        assert main([command, *args]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_unbounded_oracle_lp_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(procurement, "solve_lp", lambda lp: LpSolution(LpStatus.UNBOUNDED))
        code = main(["jstar", write_json(tmp_path, "inst.json", BATTERY_INSTANCE)])
        assert_numerical_failure(code, capsys.readouterr(), "oracle LP became unbounded")

    def test_uncertified_basis_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp_module, "_certified", lambda *args: None)
        code = main(["jstar", write_json(tmp_path, "inst.json", BATTERY_INSTANCE)])
        assert_numerical_failure(code, capsys.readouterr(), "failed its certificate")

    def test_module_entry_point_runs_the_command(self, tmp_path):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        # Run the package under test, whichever way it was found.
        src = str(Path(polyprocure.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "polyprocure.cli", "jstar", path],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == EXIT_OK, proc.stderr
        rep = RunReport.from_json(proc.stdout)
        assert rep.command == "jstar"
        assert rep.results["cost"] == pytest.approx(4.0, abs=1e-6)


class TestBounds:
    def test_all_policies_agree_here(self, tmp_path, capsys):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        assert main(["bounds", path, "--policy", "all"]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        for key in ("jstar", "prop", "tv", "affine"):
            assert rep.results[key]["cost"] == pytest.approx(4.0, abs=1e-6)

    def test_single_policy(self, tmp_path, capsys):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        assert main(["bounds", path, "--policy", "prop"]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert set(rep.results) == {"prop"}

    def test_infeasible_policy_verdict(self, tmp_path, capsys):
        path = write_json(tmp_path, "cloud.json", CLOUD_INSTANCE)
        assert main(["bounds", path, "--policy", "prop"]) == EXIT_INFEASIBLE
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["prop"]["status"] == "infeasible"


def looped_poc_sweep(spec, kappas):
    """The reference poc-sweep CSV: one solve_oracle per kappa."""
    t = spec["horizon"]
    batteries = [BatterySpec(b["capacity"], b["rate"], 0.0, t) for b in spec["batteries"]]
    base = [Resource(battery_set(b), p) for b, p in zip(batteries, spec["prices"])]
    demand = minkowski_demand(base)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["kappa", "jstar", "jss", "poc"])
    for kappa in kappas:
        prices = list(spec["prices"])
        prices[spec["kappa_index"]] = kappa
        resources = tuple(Resource(r.set, p) for r, p in zip(base, prices))
        jstar = solve_oracle(ProcurementInstance(resources, demand)).cost
        jss = battery_exact_procurement(batteries, prices).cost
        poc = f"{jss / jstar:.12g}" if jstar > FEAS_TOL else "NA"
        writer.writerow([f"{kappa:.12g}", f"{jstar:.12g}", f"{jss:.12g}", poc])
    return buf.getvalue()


class TestPocSweep:
    @pytest.mark.parametrize("kappa_index", [0, 1])
    def test_byte_equal_to_per_kappa_oracle(self, tmp_path, kappa_index):
        spec = {**SWEEP_SPEC, "kappa_index": kappa_index}
        path, out = write_json(tmp_path, "sweep.json", spec), tmp_path / "sweep.csv"
        assert main(["poc-sweep", path, "--kappa", "0:4:0.25", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == looped_poc_sweep(spec, [0.25 * i for i in range(17)]).encode()

    def test_reference_rows(self, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", SWEEP_SPEC)
        assert main(["poc-sweep", path, "--kappa", "0.5:3:0.5"]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["kappa"] for r in rows] == ["0.5", "1", "1.5", "2", "2.5", "3"]
        jstar = [float(r["jstar"]) for r in rows]
        jss = [float(r["jss"]) for r in rows]
        assert jstar == pytest.approx([1, 2, 2.5, 3, 3.5, 4], abs=1e-6)
        assert jss == pytest.approx([1, 2, 3, 4, 4, 4], abs=1e-6)
        pocs = [float(r["poc"]) for r in rows]
        assert max(pocs) == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert rows[int(np.argmax(pocs))]["kappa"] == "2"

    def test_zero_price_poc_is_na(self, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", SWEEP_SPEC)
        assert main(["poc-sweep", path, "--kappa", "0:0:1"]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["poc"] == "NA"

    def test_bad_grids(self, tmp_path, capsys):
        path = write_json(tmp_path, "sweep.json", SWEEP_SPEC)
        assert main(["poc-sweep", path, "--kappa", "1:2:0"]) == EXIT_USAGE
        assert main(["poc-sweep", path, "--kappa", "2:1:0.5"]) == EXIT_USAGE
        assert main(["poc-sweep", path, "--kappa", "oops"]) == EXIT_USAGE

    def test_long_grid_rejected_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        path = write_json(tmp_path, "sweep.json", SWEEP_SPEC)
        assert main(["poc-sweep", path, "--kappa", "1:1e9:1e-9"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more than 1000000" in err, err
        assert main(["poc-sweep", path, "--kappa", "-1e308:1e308:1"]) == EXIT_USAGE
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        assert len(cli._parse_grid("0:2:1")) == 3
        with pytest.raises(cli.UsageError, match="has 4 points"):
            cli._parse_grid("0:3:1")

    def test_precondition_exit(self, tmp_path, capsys):
        spec = {
            "horizon": 3,
            "batteries": [{"capacity": 3, "rate": 1}],
            "prices": [1.0],
            "kappa_index": 0,
        }
        path = write_json(tmp_path, "sweep.json", spec)
        assert main(["poc-sweep", path, "--kappa", "1:1:1"]) == EXIT_PRECONDITION


    @pytest.mark.parametrize("spec, kappa, message", [
        pytest.param([SWEEP_SPEC], "1:2:1", "sweep spec must be a JSON object",
                     id="top-level array"),
        pytest.param({**SWEEP_SPEC, "batteries": {"capacity": 1, "rate": 1}}, "1:2:1",
                     "'batteries' must be an array", id="batteries as an object"),
        pytest.param({**SWEEP_SPEC, "batteries": [{"capacity": 1, "rate": 1}, {"rate": 1}]},
                     "1:2:1", "batteries[1]: missing 'capacity'",
                     id="battery without capacity"),
        pytest.param({**SWEEP_SPEC, "batteries": ["battery", "battery"]}, "1:2:1",
                     "batteries[0]: expected an object", id="battery as a string"),
        pytest.param({k: v for k, v in SWEEP_SPEC.items() if k != "horizon"}, "1:2:1",
                     "batteries[0]: needs a horizon", id="no horizon"),
        pytest.param({**SWEEP_SPEC, "prices": [1, {}]}, "1:2:1",
                     "'prices' must be a numeric array", id="price as an object"),
        pytest.param({**SWEEP_SPEC, "kappa_index": "x"}, "1:2:1",
                     "'kappa_index' must be a number", id="kappa index not a number"),
        # json reads 1e400 as Infinity
        pytest.param({**SWEEP_SPEC, "kappa_index": float("inf")}, "1:2:1",
                     "'kappa_index' must be an integer", id="kappa index 1e400"),
        pytest.param({**SWEEP_SPEC, "horizon": 2.5}, "1:2:1",
                     "'horizon' must be an integer, got 2.5", id="fractional horizon"),
        pytest.param(SWEEP_SPEC, "0:inf:1",
                     "grid 0:inf:1 must have a finite start, stop and step",
                     id="infinite kappa grid"),
        pytest.param(SWEEP_SPEC, "nan:1:1",
                     "grid nan:1:1 must have a finite start, stop and step",
                     id="NaN kappa grid"),
        pytest.param({**SWEEP_SPEC, "horizon": True}, "1:2:1",
                     "'horizon' must be a number, got True", id="horizon as a boolean"),
        pytest.param({**SWEEP_SPEC, "prices": [1, True]}, "1:2:1",
                     "'prices' must be a numeric array", id="price as a boolean"),
        pytest.param({**SWEEP_SPEC, "kappa_index": True}, "1:2:1",
                     "'kappa_index' must be a number, got True",
                     id="kappa index as a boolean"),
    ])
    def test_malformed_spec_exits_with_one_line(self, tmp_path, capsys, spec, kappa,
                                                message):
        path = write_json(tmp_path, "sweep.json", spec)
        assert main(["poc-sweep", path, "--kappa", kappa]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err

    def test_unbounded_battery_lp_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        real = procurement.solve_lp

        def aggregate_unbounded(lp):
            # The aggregate battery LP is the only one without equality rows.
            return LpSolution(LpStatus.UNBOUNDED) if lp.b_eq.size == 0 else real(lp)

        monkeypatch.setattr(procurement, "solve_lp", aggregate_unbounded)
        code = main(["poc-sweep", write_json(tmp_path, "sweep.json", SWEEP_SPEC),
                     "--kappa", "1:1:1"])
        assert_numerical_failure(code, capsys.readouterr(), "aggregate battery LP")

    def test_charged_battery_is_a_precondition_failure(self, tmp_path, capsys):
        # Nonzero initial charge once printed jss 1 below jstar 1.5 with exit 0.
        spec = {"horizon": 3,
                "batteries": [{"capacity": 1, "rate": 1, "soc": 0.5},
                              {"capacity": 1.5, "rate": 1}],
                "prices": [1, 1], "kappa_index": 1}
        path = write_json(tmp_path, "sweep.json", spec)
        code = main(["poc-sweep", path, "--kappa", "0.5:2:0.5"])
        assert code == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "initial charge" in captured.err


class TestCausalCheck:
    def scenarios_csv(self, tmp_path, rows):
        path = tmp_path / "scen.csv"
        path.write_text("e1,e2,e3\n" +
                        "\n".join(",".join(map(str, r)) for r in rows) + "\n")
        return str(path)

    def test_pair_infeasible(self, tmp_path, capsys):
        inst = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        scen = self.scenarios_csv(tmp_path, [[1, 1, -2], [1, 1, 4]])
        code = main(["causal-check", inst, scen, "--alpha", "1", "1"])
        assert code == EXIT_INFEASIBLE
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["verdict"] == "infeasible"

    def test_single_scenario_feasible_with_nodes(self, tmp_path, capsys):
        inst = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        scen = self.scenarios_csv(tmp_path, [[1, 1, -2]])
        assert main(["causal-check", inst, scen, "--alpha", "1", "1"]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["verdict"] == "feasible"
        for node in rep.results["nodes"].values():
            assert sum(node["outputs"]) == pytest.approx(node["value"], abs=1e-7)

    @pytest.mark.parametrize("text", ["", "\n\n", "e1,e2,e3\n",
                                      "e1,e2,e3\n1,x,2\n", "1,1,-2\n1,1\n", "{}",
                                      "[[true, false, true]]", "{[1, 1, -2]]", "[[[1, 1, -2]]]",
                                      pytest.param("[" * 900 + "]" * 900, id="900 deep")])
    def test_malformed_scenarios_exit_with_one_line(self, tmp_path, capsys, text):
        inst = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        # JSON goes in a .json file: an object where an array of signals
        # belongs, booleans where numbers belong, and text that is not JSON
        scen = tmp_path / ("scen.json" if text.startswith(("{", "[")) else "scen.csv")
        scen.write_text(text)
        code = main(["causal-check", inst, str(scen), "--alpha", "1", "1"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert str(scen) in captured.err
        if text.startswith("["):
            assert "must hold an array of numeric arrays" in captured.err

    def test_alpha_count_checked(self, tmp_path, capsys):
        inst = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        scen = self.scenarios_csv(tmp_path, [[1, 1, -2]])
        assert main(["causal-check", inst, scen, "--alpha", "1"]) == EXIT_USAGE
        assert main(["causal-check", inst, scen]) == EXIT_USAGE


class TestCostAlloc:
    def test_shares_report(self, tmp_path, capsys):
        path = tmp_path / "parts.csv"
        path.write_text("d1,d2\n1,0\n0,1\n1,1\n")
        assert main(["cost-alloc", str(path), "--jss", "6"]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["aggregate"] == [2.0, 2.0]
        assert sum(rep.results["shares"]) == pytest.approx(6.0, abs=1e-9)
        assert all(value is True for value in rep.results["axioms"].values())

    def test_explicit_aggregate(self, tmp_path, capsys):
        parts = tmp_path / "parts.csv"
        parts.write_text("1,0\n")
        agg = tmp_path / "agg.csv"
        agg.write_text("2,0\n")
        assert main(["cost-alloc", str(parts), "--jss", "4",
                     "--aggregate", str(agg)]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["shares"] == [pytest.approx(2.0)]


    @pytest.mark.parametrize("jss", ["nan", "inf", "-inf"])
    def test_malformed_jss_exits_with_one_line(self, tmp_path, capsys, jss):
        # Once printed NaN or Infinity shares, which are not JSON, with exit 0.
        path = tmp_path / "parts.csv"
        path.write_text("d1,d2\n1,0\n0,1\n")
        assert main(["cost-alloc", str(path), f"--jss={jss}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: jss must be finite, got {float(jss)}\n"


class TestDemand:
    def raw_csv(self, tmp_path, n=30, seed=0):
        rng = np.random.default_rng(seed)
        path = tmp_path / "data.csv"
        path.write_text("value\n" +
                        "\n".join(f"{v:.6f}" for v in rng.normal(size=n)) + "\n")
        return str(path)

    def test_build_report(self, tmp_path, capsys):
        path = self.raw_csv(tmp_path)
        assert main(["demand", "build", path, "--T", "3",
                     "--train", "6"]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["n_train"] == 6
        assert rep.results["n_validation"] == 4
        assert len(rep.results["vertices"]) == 6
        assert len(rep.results["center"]) == 3

    def test_coverage_curve_csv(self, tmp_path, capsys):
        path = self.raw_csv(tmp_path, n=60, seed=3)
        assert main(["demand", "coverage", path, "--T", "3", "--train", "12",
                     "--delta-grid", "1:3:0.5"]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        ratios = [float(r["coverage"]) for r in rows]
        assert len(rows) == 5
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_presegmented_table(self, tmp_path, capsys):
        path = tmp_path / "seg.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        assert main(["demand", "build", str(path), "--train", "2"]) == EXIT_OK
        rep = RunReport.from_json(capsys.readouterr().out)
        assert rep.results["n_train"] == 2

    # --window used to be ignored on these: the curve printed as without it.
    @pytest.mark.parametrize("text, window", [("a,b\n1,2\n3,4\n5,6\n7,8\n", "4"),
                                              ("v\n1\n2\n3\n4\n5\n6\n7\n8\n", "-3")],
                             ids=["multi-column data", "negative window"])
    def test_window_that_would_be_ignored_rejected(self, tmp_path, capsys, text, window):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code = main(["demand", "coverage", str(path), "--T", "2", "--train", "3",
                     "--window", window])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window" in captured.err

    def test_bad_train_split(self, tmp_path, capsys):
        path = self.raw_csv(tmp_path)
        assert main(["demand", "build", path, "--T", "3",
                     "--train", "10"]) == EXIT_USAGE

    def test_missing_T_for_raw(self, tmp_path, capsys):
        path = self.raw_csv(tmp_path)
        assert main(["demand", "build", path, "--train", "3"]) == EXIT_USAGE


# Files that once crashed a command with a traceback: (command, file name,
# contents, the message, which names the file or the JSON path at fault).
UNREADABLE_FILES = [
    pytest.param(["cost-alloc", "--jss", "1"], "big.csv",
                 b"d1,d2\n1," + b"1" * 200000 + b"\n",
                 "cannot read CSV from {path}: field larger than field limit",
                 id="200000-character CSV cell"),
    pytest.param(["cost-alloc", "--jss", "1"], "bom.csv", b"\xff\xfe1,2\n",
                 "cannot read CSV from {path}: 'utf-8' codec can't decode",
                 id="CSV that is not UTF-8"),
    pytest.param(["jstar"], "deep.json", b"[" * 100000,
                 "cannot read JSON from {path}: maximum recursion depth",
                 id="JSON 100000 deep"),
    pytest.param(["jstar"], "inst.json", json.dumps(
        {**BATTERY_INSTANCE, "demand": {"vrep": {"vertices": "deep"}}}).replace(
            '"deep"', "[" * 900 + "]" * 900).encode(),
                 "demand: vrep: 'vertices' must be a numeric array", id="vertices 900 deep"),
]


class TestUnreadableFiles:
    @pytest.mark.parametrize("command, name, contents, message", UNREADABLE_FILES)
    def test_exits_with_one_line(self, tmp_path, capsys, command, name, contents, message):
        path = tmp_path / name
        path.write_bytes(contents)
        assert main([command[0], str(path), *command[1:]]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert message.format(path=path) in captured.err
        assert "Traceback" not in captured.err


class TestParser:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_unknown_flag(self, tmp_path, capsys):
        path = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        assert main(["jstar", path, "--wat"]) == EXIT_USAGE

    def test_back_to_back_commands_match_fresh_processes(self, tmp_path, capsys):
        """The parser is built once per process; commands run one after
        another in it, a usage error among them, must print and exit as each
        does alone in a fresh process."""
        inst = write_json(tmp_path, "inst.json", BATTERY_INSTANCE)
        sweep = write_json(tmp_path, "sweep.json", SWEEP_SPEC)
        commands = [["jstar", inst], ["bounds", inst, "--policy", "tv"],
                    ["jstar", inst, "--wat"], ["frobnicate"],
                    ["poc-sweep", sweep, "--kappa", "0:2:0.5"], ["bounds", inst]]

        def comparable(out):
            # A report's wall time differs between runs; everything else may not.
            return {**json.loads(out), "wall_time": None} if out.startswith("{") else out

        in_process = []
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, comparable(captured.out), captured.err))
        src = str(Path(polyprocure.__file__).parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for argv, got in zip(commands, in_process):
            proc = subprocess.run([sys.executable, "-m", "polyprocure.cli", *argv],
                                  capture_output=True, timeout=300,
                                  env={**os.environ, "PYTHONPATH": pythonpath})
            fresh = (proc.returncode, comparable(proc.stdout.decode()), proc.stderr.decode())
            assert got == fresh, argv
        assert [code for code, _, _ in in_process] == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                                       EXIT_OK, EXIT_OK]
        assert cli.build_parser() is cli.build_parser()
