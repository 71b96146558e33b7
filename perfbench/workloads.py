"""Seeded inputs and CLI jobs for the three benchmark workloads.

Each workload owns ROUND instance templates.  Job i of a run uses template
i % ROUND, drawn from a fixed stream, and a variant drawn from the run's
seed and i: the variant jitters every continuous input by up to JITTER (or
draws the data outright, for the demand data of sweep-data).  So every job
has distinct inputs, the same seed always gives the same job list, and
every run does comparable work whatever its seed.
"""

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

ROUND = 8
JITTER = 0.02
# The warm-up job's variant comes from this fixed seed, so set-up does the
# same work in every run.
WARMUP_SEED = 2**63 - 1

# policy-bounds
PB_HORIZON = 8
PB_VERTICES = 8
# one command each, cheapest first: J* <= tv <= prop
PB_POLICIES = ("jstar", "tv", "prop")
# causal-check: batteries, horizon, periods with a binary branch, and the
# amount every battery is shrunk to in the second check of a job
CC_BATTERIES = 3
CC_HORIZON = 6
CC_BRANCHING = 4
CC_SHRUNK_ALPHA = 0.6
# demand data (sweep-data): hourly history averaged into DD_WINDOW-hour blocks, so one
# day is a sample of DD_HOURS // DD_WINDOW periods
DD_HOURS = 24
DD_WINDOW = 4
DD_TRAIN = 150
DD_VALIDATION = 60
DD_GRID = "1:2:0.1"
DD_PARTICIPANTS = 150
# price sweep (sweep-data)
PS_HORIZON = 3
PS_BATTERIES = 2
PS_KAPPA = "0.5:2.5:0.25"


@dataclass
class Job:
    """One closed-loop step: CLI commands run back to back, plus what the
    checker needs to judge their outputs."""

    workload: str
    index: int
    commands: list            # argv lists for polyprocure.cli.main
    allowed_exit: list        # per command, the exit codes that are not failures
    files: dict               # role -> path of every input and output file
    params: dict = field(default_factory=dict)


def _rngs(workload, seed, index):
    salt = zlib.crc32(workload.encode())
    template = np.random.default_rng([salt, index % ROUND])
    variant = np.random.default_rng([salt, seed % 2**64, index])
    return template, variant


def _jitter(variant, x):
    x = np.asarray(x, dtype=float)
    return x * (1.0 + JITTER * variant.uniform(-1.0, 1.0, x.shape))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _write_rows(path, rows):
    with open(path, "w") as fh:
        for row in np.atleast_2d(rows):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def policy_bounds(seed, index, workdir):
    tpl, var = _rngs("policy-bounds", seed, index)
    t, k = PB_HORIZON, PB_VERTICES
    params = tpl.uniform([2.0, 0.8, 0.35, 0.5, 0.2, 1.0, 0.3, 0.2, 0.1],
                         [4.0, 1.5, 0.65, 1.5, 1.0, 2.0, 0.8, 0.8, 0.5])
    verts = tpl.uniform(-1.0, 1.0, (k, t))

    cap, rate, soc, price, p_box, cap_fix, rate_fix, soc_fix, p_fix = \
        _jitter(var, params).tolist()
    inst = {
        "horizon": t,
        "resources": [
            {"battery": {"capacity": cap, "rate": rate, "soc": soc, "horizon": t},
             "price": price},
            {"instances": True, "price": p_box},
            {"battery": {"capacity": cap_fix, "rate": rate_fix, "soc": soc_fix,
                         "horizon": t},
             "price": p_fix, "scalable": False},
        ],
        "demand": {"vrep": {"vertices": _jitter(var, verts).tolist()}},
    }
    files = {"instance": f"{workdir}/pb{index}.json"}
    _write_json(files["instance"], inst)
    # The oracle and each causal policy in turn.  The affine policy is left
    # out: its LP is solved wrongly on some instances (see README).
    commands = []
    for name in PB_POLICIES:
        files[name] = f"{workdir}/pb{index}.{name}.out.json"
        command = (["jstar", files["instance"]] if name == "jstar"
                   else ["bounds", files["instance"], "--policy", name])
        commands.append(command + ["--out", files[name]])
    return Job("policy-bounds", index, commands, [(0, 2)] * len(commands), files)


def _dispatch_tree(batteries, fractions, horizon, branching):
    """Signals of a scenario tree grown from a causal dispatch.

    Every node moves each battery by a fraction of its feasible step given
    the energy stored along the path, so the unit fleet covers every
    scenario with decisions that depend only on the past.
    """
    rows = []
    draws = iter(fractions)

    def grow(depth, stored, prefix):
        if depth == horizon:
            rows.append(prefix)
            return
        for _ in range(2 if depth < branching else 1):
            u = next(draws)
            step = []
            for (cap, rate, _), e, frac in zip(batteries, stored, u):
                lo, hi = max(-rate, -e), min(rate, cap - e)
                step.append(lo + frac * (hi - lo))
            grow(depth + 1, [e + s for e, s in zip(stored, step)],
                 prefix + [sum(step)])

    grow(0, [cap * soc for cap, _, soc in batteries], [])
    return np.array(rows)


def causal_check(seed, index, workdir):
    tpl, var = _rngs("causal-check", seed, index)
    t, n = CC_HORIZON, CC_BATTERIES
    specs = tpl.uniform([1.5, 0.6, 0.3], [3.0, 1.2, 0.7], (n, 3))
    n_draws = sum(2 ** min(d + 1, CC_BRANCHING) for d in range(t))
    fractions = tpl.uniform(0.0, 1.0, (n_draws, n))

    specs = _jitter(var, specs)
    specs[:, 2] = np.clip(specs[:, 2], 0.0, 1.0)
    fractions = np.clip(
        fractions + JITTER * var.uniform(-1.0, 1.0, fractions.shape), 0.0, 1.0)
    signals = _dispatch_tree(specs.tolist(), fractions, t, CC_BRANCHING)
    inst = {"horizon": t,
            "resources": [{"battery": {"capacity": float(c), "rate": float(r),
                                       "soc": float(s), "horizon": t},
                           "price": 1.0} for c, r, s in specs]}
    files = {"instance": f"{workdir}/cc{index}.json",
             "scenarios": f"{workdir}/cc{index}.csv"}
    _write_json(files["instance"], inst)
    _write_rows(files["scenarios"], signals)
    # The same tree at the procured unit fleet, then shrunk: every job checks
    # one verdict that is feasible by construction and one that need not be.
    commands, levels = [], (1.0, CC_SHRUNK_ALPHA)
    for k, level in enumerate(levels):
        files[f"report{k}"] = f"{workdir}/cc{index}.{k}.out.json"
        commands.append(["causal-check", files["instance"], files["scenarios"],
                         "--alpha", *[repr(level)] * n, "--out", files[f"report{k}"]])
    return Job("causal-check", index, commands, [(0, 2)] * len(levels), files,
               {"alphas": [[level] * n for level in levels]})


def demand_data(seed, index, workdir):
    tpl, var = _rngs("demand-data", seed, index)
    hours = np.arange(DD_HOURS)
    phase, swing, noise = tpl.uniform([4.0, 0.2, 0.05], [8.0, 0.5, 0.15])
    daily = 1.0 + swing * np.sin(2 * np.pi * (hours - phase) / DD_HOURS) \
        + 0.2 * np.sin(4 * np.pi * hours / DD_HOURS)
    evening = np.cos(2 * np.pi * hours / DD_HOURS)
    ripples = np.array([np.sin(2 * np.pi * (j + 2) * hours / DD_HOURS + j)
                        for j in range(4)])

    # Full-rank noise on top of a few smooth shapes.  Averaged into 4-hour
    # blocks, a held-out day can fall inside the hull of the training days;
    # with 24 hourly periods it never does, at any inflation up to 2.
    days = DD_TRAIN + DD_VALIDATION
    history = (var.uniform(0.5, 1.5, (days, 1)) * daily
               + var.uniform(-0.3, 0.3, (days, 1)) * evening
               + noise * var.standard_normal((days, len(ripples))) @ ripples
               + 0.05 * var.standard_normal((days, DD_HOURS)))
    t = DD_HOURS // DD_WINDOW

    # Participants: independent profiles, exact duplicates of some, and some
    # opposed to the aggregate of the others.
    base = var.normal(0.3, 1.0, (DD_PARTICIPANTS - 40, DD_HOURS))
    dupes = base[var.choice(len(base), 20, replace=False)]
    opposed = -var.uniform(0.5, 1.5, (20, 1)) * base.mean(axis=0) \
        + 0.1 * var.standard_normal((20, DD_HOURS))
    participants = np.vstack([base, dupes, opposed])
    participants = participants[var.permutation(len(participants))]
    jss = var.uniform(5.0, 50.0)

    files = {"history": f"{workdir}/dd{index}.csv",
             "coverage": f"{workdir}/dd{index}.out.csv",
             "participants": f"{workdir}/ca{index}.csv",
             "shares": f"{workdir}/ca{index}.out.json"}
    _write_rows(files["history"], history.reshape(-1, 1))
    _write_rows(files["participants"], participants)
    return Job("demand-data", index,
               [["demand", "coverage", files["history"], "--T", str(t),
                 "--window", str(DD_WINDOW), "--train", str(DD_TRAIN),
                 "--delta-grid", DD_GRID, "--out", files["coverage"]],
                ["cost-alloc", files["participants"], "--jss", repr(jss),
                 "--out", files["shares"]]],
               [(0,), (0,)], files,
               {"horizon": t, "window": DD_WINDOW, "train": DD_TRAIN,
                "grid": DD_GRID, "jss": jss})


def poc_sweep(seed, index, workdir):
    tpl, var = _rngs("poc-sweep", seed, index)
    n = PS_BATTERIES
    rates = tpl.uniform(0.5, 1.5, n)
    ratio = tpl.uniform(1.0, 2.0, n)
    prices = tpl.uniform(0.5, 2.0, n)

    rates = _jitter(var, rates)
    ratio = np.clip(_jitter(var, ratio), 1.0, 2.0)  # keep r <= C <= 2r
    spec = {"horizon": PS_HORIZON,
            "batteries": [{"capacity": float(r * q), "rate": float(r)}
                          for r, q in zip(rates, ratio)],
            "prices": _jitter(var, prices).tolist(),
            "kappa_index": index % n}
    files = {"spec": f"{workdir}/ps{index}.json",
             "sweep": f"{workdir}/ps{index}.out.csv"}
    _write_json(files["spec"], spec)
    return Job("poc-sweep", index,
               [["poc-sweep", files["spec"], "--kappa", PS_KAPPA,
                 "--out", files["sweep"]]],
               [(0,)], files, {"kappa": PS_KAPPA})


def sweep_data(seed, index, workdir):
    """A price sweep, then demand coverage and a cost split on seeded data.

    The data commands are interpreter-bound (hundreds of tiny LPs and a
    Python loop over participant pairs) and slow down about twice as much
    as the solver-bound commands when the host is busy; run alone they
    spread too widely between runs, so they share a job with the sweep.
    """
    sweep, data = poc_sweep(seed, index, workdir), demand_data(seed, index, workdir)
    return Job("sweep-data", index, sweep.commands + data.commands,
               sweep.allowed_exit + data.allowed_exit,
               {**sweep.files, **data.files}, {**sweep.params, **data.params})


WORKLOADS = {
    "policy-bounds": policy_bounds,
    "causal-check": causal_check,
    "sweep-data": sweep_data,
}
