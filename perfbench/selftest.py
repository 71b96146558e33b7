"""Self-test of the checkers: each must pass a real answer and reject a
planted wrong one.

    python3 perfbench/selftest.py

Runs one job per workload through polyprocure.cli.main, checks it, then
edits its output (a cost off by 1e-3, a policy cost below J*, a flipped
verdict, a coverage value shifted by one validation sample, a cost share
off by 1e-6) and expects checks.CheckError.  Exits 1 if any check accepts a planted answer.
"""

import csv
import json
import shutil
import sys

import run
import checks
from workloads import DD_VALIDATION, WORKLOADS


def _edit_json(path, change):
    with open(path) as fh:
        report = json.load(fh)
    change(report["results"])
    with open(path, "w") as fh:
        json.dump(report, fh)


def _edit_csv(path, row, col, change):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(change(float(rows[row][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _cost_off(job):
    """J* off by 1e-3, with the battery amount moved to match, so that only
    the comparison with HiGHS can catch it."""
    with open(job.files["instance"]) as fh:
        price = json.load(fh)["resources"][0]["price"]

    def change(results):
        results["cost"] += 1e-3
        results["alphas"][0] += 1e-3 / price
    _edit_json(job.files["jstar"], change)


def _tv_below_jstar(job):
    """tv just under J*, with the battery amount moved to match: what the
    affine policy's wrong solves look like."""
    with open(job.files["instance"]) as fh:
        price = json.load(fh)["resources"][0]["price"]
    with open(job.files["jstar"]) as fh:
        jstar = json.load(fh)["results"]["cost"]

    def change(results):
        drop = results["tv"]["cost"] - (jstar - 1e-3)
        results["tv"]["cost"] -= drop
        results["tv"]["alphas"][0] -= drop / price
    _edit_json(job.files["tv"], change)


def _to_infeasible(results):
    results["verdict"] = "infeasible"
    results.pop("nodes")


def _to_feasible(results):
    results["verdict"] = "feasible"
    results["nodes"] = {}


def _share_off(results):
    results["shares"][0] += 1e-6


def _one_sample_more(value):
    step = 1.0 / DD_VALIDATION
    return value + step if value + step <= 1.0 else value - step


# (workload, what is planted, planted change, exit codes to report)
PLANTS = [
    ("policy-bounds", "jstar cost", _cost_off, None),
    ("policy-bounds", "tv below jstar", _tv_below_jstar, None),
    ("causal-check", "verdict at alpha 1",
     lambda job: _edit_json(job.files["report0"], _to_infeasible), [2, 2]),
    ("causal-check", "verdict at shrunk alpha",
     lambda job: _edit_json(job.files["report1"], _to_feasible), [0, 0]),
    ("sweep-data", "coverage",
     lambda job: _edit_csv(job.files["coverage"], 5, 1, _one_sample_more), None),
    ("sweep-data", "share",
     lambda job: _edit_json(job.files["shares"], _share_off), None),
    ("sweep-data", "sweep jstar",
     lambda job: _edit_csv(job.files["sweep"], 3, 1, lambda v: v + 1e-3), None),
]


def main():
    cli = run.import_polyprocure()
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for workload, what, plant, codes in PLANTS:
            job = WORKLOADS[workload](0, 0, workdir)
            _, real_codes, error = run.run_job(cli, job)
            if error:
                sys.exit(f"{workload} job failed: {error}")
            checks.check(job, real_codes)
            plant(job)
            try:
                checks.check(job, codes or real_codes)
            except checks.CheckError as exc:
                print(f"rejected  {workload} {what}: {exc}")
            else:
                print(f"ACCEPTED  {workload} {what}: planted answer passed")
                ok = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
