"""Fuzz the input boundary of the command line.

One field of a small valid input is mutated: a key of an instance or sweep
JSON file or of a scenario JSON file, a cell of a scenario, participant or
history CSV file, or a numeric option.
The mutation drops it, swaps its type, or puts NaN, +-Infinity, 1e400, a
negative, a fraction or 1e-9 in its place (as a grid step, 1e-9 asks for
about 10^9 points, which must be refused before any is built).  Whatever
it is, the command must exit with a documented code (0-4), print at most one
line to stderr, raise nothing and warn nothing, and print strict JSON or
finite CSV numbers if it reports.
A JSON boolean where a number belongs must exit 1.
"""

import copy
import csv
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyprocure.cli import main

# T = 3 everywhere, so each command runs in milliseconds.
BOX = [[1, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0],
       [0, 0, 1, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
FILES = {
    "instance.json": {
        "horizon": 3,
        "resources": [
            {"battery": {"capacity": 3, "rate": 1, "soc": 0, "horizon": 3}, "price": 1},
            {"instances": {"horizon": 3}, "price": 2},
            {"jobs": [{"arrival": 1, "deadline": 3, "work": 1}], "price": 0,
             "scalable": False},
            {"hrep": {"A": BOX, "b": [0, 1, 1, 1, 1, 1, 1], "horizon": 3, "aux": 1,
                      "aux_periods": [1]}, "price": 3},
        ],
        "demand": {"vrep": {"vertices": [[0, 0, 0], [1, 1, -2], [1, 1, 2]]}},
    },
    "sweep.json": {
        "horizon": 3,
        "batteries": [{"capacity": 1, "rate": 1, "soc": 0},
                      {"capacity": 1.5, "rate": 1, "horizon": 3}],
        "prices": [1, 1],
        "kappa_index": 1,
    },
    "scenarios.csv": [["e1", "e2", "e3"], ["1", "1", "-2"], ["0.5", "-0.5", "1"]],
    "scenarios.json": [[1, 1, -2], [0.5, -0.5, 1]],
    "participants.csv": [["d1", "d2", "d3"], ["1", "0", "2"], ["0", "1", "1"],
                         ["1", "1", "0"]],
    "history.csv": [["load"]] + [[f"{1 + 0.1 * (k % 7) - 0.05 * (k % 3):g}"]
                                 for k in range(18)],
}
# A file argument is named by its key in FILES; every other token that
# parses as numbers (grids split at ':') is an option value to mutate.
COMMANDS = [
    ["jstar", "instance.json"],
    ["bounds", "instance.json", "--policy", "all"],
    ["causal-check", "instance.json", "scenarios.csv", "--alpha", "1", "1", "1", "1"],
    ["poc-sweep", "sweep.json", "--kappa", "0.5:1.5:0.5"],
    ["cost-alloc", "participants.csv", "--jss", "6"],
    ["demand", "build", "history.csv", "--T", "3", "--train", "4", "--delta", "1.5"],
    ["demand", "coverage", "history.csv", "--T", "3", "--train", "4",
     "--delta-grid", "1:2:0.5"],
    ["causal-check", "instance.json", "scenarios.json", "--alpha", "1", "1", "1", "1"],
]
MUTATIONS = ["drop", "string", "list", "object", "null", "bool",
             "nan", "inf", "-inf", "1e400", "negative", "fraction", "tiny"]
_HUGE = "__1e400__"  # stands for the literal 1e400, which Python reads as inf
_DROPPED = object()  # a JSON file dropped whole is written empty


def _numeric(token):
    try:
        [float(part) for part in token.split(":")]
        return True
    except ValueError:
        return False


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _targets(argv):
    """(file or argv index, path) for every field the command reads."""
    out = []
    for i, token in enumerate(argv[1:], 1):
        if token in FILES:
            body = FILES[token]
            paths = _json_paths(body) if token.endswith(".json") else \
                ((r, c) for r, row in enumerate(body) for c in range(len(row)))
            out += [(token, p) for p in paths]
        elif _numeric(token):
            out += [(i, (k,)) for k in range(len(token.split(":")))]
    return out


def _json_value(old, mutation):
    number = old if _is_number(old) else 1
    return {"string": "x", "list": [], "object": {}, "null": None, "bool": True,
            "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e400": _HUGE,
            "negative": -abs(number) or -1, "fraction": number + 0.5,
            "tiny": 1e-9}[mutation]


def _text_value(old, mutation):
    try:
        number = float(old)
    except ValueError:
        number = 1.0
    return {"string": "x", "list": "[]", "object": "{}", "null": "", "bool": "true",
            "nan": "nan", "inf": "inf", "-inf": "-inf", "1e400": "1e400",
            "negative": repr(-abs(number) or -1.0),
            "fraction": repr(number + 0.5), "tiny": "1e-09"}[mutation]


def _write(directory, name, body):
    path = os.path.join(directory, name)
    with open(path, "w", newline="") as fh:
        if name.endswith(".json"):
            if body is not _DROPPED:
                fh.write(json.dumps(body).replace(f'"{_HUGE}"', "1e400"))
        else:
            csv.writer(fh).writerows(body)
    return path


def _mutate_json(body, path, mutation):
    if not path:
        return _DROPPED if mutation == "drop" else _json_value(body, mutation)
    body = copy.deepcopy(body)
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _json_value(parent[path[-1]], mutation)
    return body


def _mutate_csv(rows, path, mutation):
    rows = [list(row) for row in rows]
    r, c = path
    if mutation == "drop":
        del rows[r][c]
    else:
        rows[r][c] = _text_value(rows[r][c], mutation)
    return rows


def _run(argv, target, path, mutation, directory):
    files = dict(FILES)
    if target in FILES:
        mutate = _mutate_json if target.endswith(".json") else _mutate_csv
        files[target] = mutate(FILES[target], path, mutation)
    argv = list(argv)
    if isinstance(target, int):
        parts = argv[target].split(":")
        if mutation == "drop":
            del parts[path[0]]
        else:
            parts[path[0]] = _text_value(parts[path[0]], mutation)
        argv[target] = ":".join(parts)
    argv = [_write(directory, a, files[a]) if a in FILES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reads_number(argv, target, path):
    """Whether the command reads the JSON field at path as a number."""
    if target not in FILES or not target.endswith(".json"):
        return False
    if argv[0] == "causal-check" and path[:1] == ("demand",):
        return False  # causal-check reads only the resources
    value = FILES[target]
    for key in path:
        value = value[key]
    return _is_number(value)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def mutated_commands(draw):
    argv = draw(st.sampled_from(COMMANDS))
    target, path = draw(st.sampled_from(_targets(argv)))
    return argv, target, path, draw(st.sampled_from(MUTATIONS))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_commands())
# Each of these once ended in a traceback, a warning or non-JSON output.
@example((COMMANDS[0], "instance.json", ("horizon",), "inf"))
@example((COMMANDS[0], "instance.json", ("resources", 2, "jobs", 0, "arrival"), "1e400"))
@example((COMMANDS[0], "instance.json", ("resources", 3, "hrep", "aux_periods"), "negative"))
@example((COMMANDS[2], 4, (0,), "inf"))
@example((COMMANDS[3], "sweep.json", ("kappa_index",), "1e400"))
@example((COMMANDS[3], 3, (1,), "inf"))
# Each of these asks for about 10^9 grid points, which were once all built.
@example((COMMANDS[3], 3, (2,), "tiny"))
@example((COMMANDS[6], 8, (2,), "tiny"))
@example((COMMANDS[4], 3, (0,), "nan"))
@example((COMMANDS[4], 3, (0,), "inf"))
@example((COMMANDS[5], 8, (0,), "nan"))
# Each of these once read true as the number 1 and exited 0.
@example((COMMANDS[0], "instance.json", ("resources", 0, "battery", "capacity"), "bool"))
@example((COMMANDS[0], "instance.json", ("resources", 3, "hrep", "aux_periods", 0), "bool"))
# A scenario JSON file dropped whole: an empty file is not JSON.
@example((COMMANDS[7], "scenarios.json", (), "drop"))
def test_mutated_input_exits_cleanly(case):
    argv, target, path, mutation = case
    with tempfile.TemporaryDirectory() as directory:
        code, out, err, caught = _run(argv, target, path, mutation, directory)
    assert code in range(5), code
    if mutation == "bool" and _reads_number(argv, target, path):
        assert code == 1, (code, out)
    assert err.count("\n") <= 1, err
    assert not caught, [str(w.message) for w in caught]
    if code in (0, 2) and (argv[0] == "poc-sweep" or "coverage" in argv):
        for row in list(csv.reader(out.splitlines()))[1:]:
            assert all(v == "NA" or math.isfinite(float(v)) for v in row), row
    elif code in (0, 2):
        json.loads(out, parse_constant=_reject_constant)
