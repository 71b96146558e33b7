"""Closed-loop benchmark of the polyprocure command line.

    python3 perfbench/run.py --workload policy-bounds --seed 1 --seconds 32 --trace 0

One client in one process runs seeded CLI jobs through polyprocure.cli.main
back to back for --seconds, after one untimed warm-up job, then checks every
output with perfbench/checks.py.  The last line of standard output is a JSON
object: correct, attempted, failed and the metrics.  With --trace 0 these are
the end-to-end metrics.  With --trace 1 one round of workloads.ROUND jobs
runs traced and then again untraced, and the metrics are the per-layer ones
read off the spans, plus the tracing overhead.  --workload all runs every
workload in its own process and prints a table.

See perfbench/README.md for the workloads, metrics and reference figures.
"""

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, as the benchmark command sets it, also when this script
# is run by hand: see README.  Must precede the first NumPy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from workloads import ROUND, WARMUP_SEED, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 3


def import_polyprocure():
    """polyprocure.cli from this checkout's sources, and from nowhere else."""
    if not (SRC / "polyprocure" / "cli.py").is_file():
        sys.exit(f"error: no polyprocure sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyprocure.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: polyprocure was imported from {cli.__file__}, not {SRC}")
    return cli


def run_job(cli, job):
    """Run the job's commands in order; return (seconds, exit codes, error)."""
    codes = []
    start = time.perf_counter()
    try:
        for argv in job.commands:
            codes.append(cli.main(list(argv)))
    except Exception as exc:  # a traceback is a failed job, not a crashed run
        return time.perf_counter() - start, codes, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    for code, allowed, argv in zip(codes, job.allowed_exit, job.commands):
        if code not in allowed:
            return elapsed, codes, f"exit code {code} from {argv[0]}"
    return elapsed, codes, None


def setup(workload, workdir):
    """Import polyprocure, write the warm-up job's inputs and run it."""
    cli = import_polyprocure()
    workdir.mkdir(parents=True, exist_ok=True)
    _, _, error = run_job(cli, WORKLOADS[workload](WARMUP_SEED, 0, workdir))
    if error:
        sys.exit(f"error: warm-up job failed: {error}")
    return cli


def measure_setup(args):
    """Median wall time, over fresh processes, from spawn to the first job."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--setup-probe",
                 "--workload", args.workload, "--seed", str(args.seed)],
                stdout=subprocess.PIPE, text=True) as probe:
            ready = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if ready.strip() != "ready" or probe.returncode != 0:
            sys.exit("error: set-up probe failed")
    return statistics.median(samples)


def run_jobs(cli, jobs, budget_s=None):
    """Run jobs back to back until they run out or their time reaches
    budget_s.  `jobs` is lazy, so each job's inputs are written between
    timed intervals."""
    done, spent = [], 0.0
    for job in jobs:
        seconds, codes, error = run_job(cli, job)
        done.append((job, seconds, codes, error))
        spent += seconds
        if budget_s is not None and spent >= budget_s:
            break
    return done, spent


def check_all(done):
    """(correct, failed); failed jobs are not checked."""
    import checks  # SciPy: loaded only after peak memory was read
    failed = 0
    correct = True
    for job, _, codes, error in done:
        if error:
            failed += 1
            print(f"job {job.index} failed: {error}", file=sys.stderr)
            continue
        try:
            checks.check(job, codes)
        except checks.CheckError as exc:
            correct = False
            print(f"job {job.index} wrong: {exc}", file=sys.stderr)
    return correct, failed


def traced_metrics(cli, make, args, workdir):
    import spans

    def one_round():
        return (make(args.seed, i, workdir) for i in range(ROUND))

    tracer = spans.Tracer()
    with tracer:
        traced, traced_s = run_jobs(cli, one_round())
    plain, plain_s = run_jobs(cli, one_round())
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s - plain_s) / plain_s, "unit": "%"}
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(tracer.dump(), fh)
    return traced + plain, metrics


def timed_metrics(cli, make, args, workdir):
    jobs = (make(args.seed, i, workdir) for i in itertools.count())
    done, spent = run_jobs(cli, jobs, budget_s=args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return done, {
        "jobs_per_s": {"value": len(done) / spent, "unit": "1/s"},
        "job_p50_s": {"value": statistics.median(s for _, s, _, _ in done),
                      "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": measure_setup(args), "unit": "s"},
    }


def run(args):
    workdir = OUT / f"work-{os.getpid()}"
    try:
        cli = setup(args.workload, workdir)
        measure = traced_metrics if args.trace else timed_metrics
        done, metrics = measure(cli, WORKLOADS[args.workload], args, workdir)
        correct, failed = check_all(done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": correct, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process; a table, then the results."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        res = results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        workdir = OUT / f"work-{os.getpid()}"
        try:
            setup(args.workload, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
