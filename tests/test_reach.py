"""Every function in src/oddmult is reached by a command, or is allow-listed.

One fresh interpreter installs a profiler before it imports oddmult.cli, so
the functions that build module tables at import count too, and then runs
each command of RUNS through cli.main. A def that none of them enters is
either dead or test-only code, and fails the guard unless ALLOWED names it
with its reason; an ALLOWED entry that a command does reach fails it too.
Functions are matched by module and first line: code objects carry no
qualified name before Python 3.11.
"""

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
from collections.abc import Collection

import oddmult
from oddmult.cli import build_parser

PACKAGE = pathlib.Path(oddmult.__file__).resolve().parent

# a single a-parity n for each kind of odd set that predict_parity reads from
# its case's row: all (0), 2k^2 (2), none (9, 7 and 450 = 18 * 5^2, the last
# the case TRIPLE_ROOT), prime (17), k^2 (25) and 3k^2 (27)
RUNS = [
    ["a-value", "100"],
    *(["a-parity", str(n)] for n in (0, 2, 9, 17, 25, 27, 7, 450)),
    ["a-parity", "0..5000"],
    *(["verify", suite, "--limit", "2000"] for suite in ("identities", "theorems", "congruences")),
    ["congruences", "list"],
    ["congruences", "list", "--p", "13"],
    ["density", "all", "--limit", "2000", "--csv", "{tmp}/density.csv"],
]
REFUSALS = [
    ["a-parity", "5..3"],
    ["verify", "theorems", "--limit", "0"],
    ["congruences", "list", "--p", "9"],
]

ALLOWED = {
    "numtheory._pollard_rho": "factors past 10^8, which no command reaches yet; "
    "ROADMAP items 2 and 20 give it a caller, or item 22 deletes it",
    "numtheory._factor_into": "Pollard rho's recursion; kept or deleted with it",
    "numtheory.count_theta_pairs": "the O(sqrt n) second route of ROADMAP items 2 and 20, tested against the series",
    "gf2series.Gf2Series.__eq__": "a dunder method that tests compare series with",
    "gf2series.Gf2Series.__getitem__": "a dunder method that tests read single bits with; no command reaches it",
}

# Runs in the fresh interpreter: argv[1] is the JSON list of runs. Prints the
# exit code of each run, then the (file, first line) of every function entered.
_CHILD = """
import contextlib, io, json, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import oddmult.cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(oddmult.cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def function_lines(source: str) -> dict[str, int]:
    """Each def in source, nested ones and methods too, by dotted name: the
    line its code object starts on, which is its first decorator's if any."""
    lines = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    lines[prefix + child.name] = min([child.lineno] + [d.lineno for d in child.decorator_list])
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return lines


def reach_faults(sources: dict[str, str], entered: set[tuple[str, int]], allowed: Collection[str]) -> list[str]:
    """The defs of sources (module -> source) that no (module, first line) in
    entered names and allowed does not list, the allowed entries ("module.name")
    that were entered, and those that name no def."""
    faults, found = [], set()
    for module, source in sources.items():
        for name, line in function_lines(source).items():
            key = f"{module}.{name}"
            found.add(key)
            if (module, line) not in entered and key not in allowed:
                faults.append(f"{key} (line {line}) is reached by no command")
            elif (module, line) in entered and key in allowed:
                faults.append(f"{key} (line {line}) is allow-listed but a command reaches it")
    faults += [f"{key} is allow-listed but not defined" for key in allowed if key not in found]
    return sorted(faults)


def test_reach_faults_are_found():
    sources = {
        "a": "def f():\n    def g(): pass\n\n@cache\ndef h(): pass\nclass K:\n    def m(self): pass\n",
        "b": "def u(): pass\ndef v(): pass\n",
    }
    entered = {("a", 1), ("a", 4), ("b", 1), ("b", 2)}
    assert reach_faults(sources, entered, {"a.K.m", "b.v", "b.gone"}) == [
        "a.f.g (line 2) is reached by no command",
        "b.gone is allow-listed but not defined",
        "b.v (line 2) is allow-listed but a command reaches it",
    ]


def test_runs_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in RUNS} == set(sub.choices)


def test_every_function_is_reached_by_a_command(tmp_path):
    runs = [[arg.format(tmp=tmp_path) for arg in argv] for argv in RUNS + REFUSALS]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0] * len(RUNS) + [2] * len(REFUSALS), out["codes"]
    entered = set()
    for name, line in out["entered"]:
        path = pathlib.Path(name).resolve()
        if path.parent == PACKAGE:
            entered.add((path.stem, line))
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    faults = reach_faults(sources, entered, ALLOWED)
    assert not faults, faults
