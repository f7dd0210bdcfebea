"""The benchmark's workloads: what each one runs and how its output is checked.

Batch workloads run the `oddmult` CLI as users do, one fresh process per
invocation, with no `--threads` flag. Their inputs are fixed because their
checks compare against the package's documented reference values. The
`queries` workload is a seeded list of single queries answered by one
closed-loop client.
"""

from __future__ import annotations

import math
import random
import re

# Sizes were chosen so that one run of each workload takes 3 to 10 s on a
# 2-core machine, and the benchmark's time budget fits several runs.
BATCH = {
    # dense x dense products, pow, Newton inverses and extract inside etaq;
    # no predicate code runs
    "identities": {"limit": 300_000, "commands": [["verify", "identities"]]},
    # per-index predicate route, coefficient scans and the theorem process pool
    "verify": {"limit": 500_000, "commands": [["verify", "theorems"], ["verify", "congruences"]]},
    # one Newton evaluation of f3/f1^3 to 8 * 10^6 coefficients plus the census;
    # 10^6 is the limit whose 8m+7 density the package documents
    "density": {"limit": 1_000_000, "commands": [["density", "all"]]},
}
WORKLOADS = (*BATCH, "queries")

DENSITY_8M7_REFERENCE = {1_000_000: "0.500503000"}  # README: 0.500503 over 10^6
QUERY_CHECK_LIMIT = 5000  # a-parity answers up to here are checked against the exact DP


def batch_argvs(name: str, limit: int) -> list[list[str]]:
    return [cmd + ["--limit", str(limit)] for cmd in BATCH[name]["commands"]]


def largest_series_bits(name: str, limit: int = 0, queries: list[list[str]] = ()) -> int:
    """Truncation length of the largest GF(2) series the workload builds."""
    if name == "verify":
        return limit  # a_parity_series(limit)
    if name in ("identities", "density"):
        return 8 * limit  # 8m+7 extraction from a_parity_series(8 * limit)
    return max(int(q[1].split("..")[-1]) + 1 for q in queries if q[0] == "a-parity")


def _log_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    # one log-uniform draw per equal slice of [log lo, log hi), so that every
    # seed spreads its queries over the sizes alike and costs about the same
    a, b = math.log(lo), math.log(hi)
    return [int(math.exp(a + (b - a) * (i + rng.random()) / count)) for i in range(count)]


def make_queries(seed: int) -> list[list[str]]:
    """200 CLI queries: 80% a-parity n, 10% a-parity n..n+999, 10% a-value n."""
    rng = random.Random(seed)
    queries = [["a-parity", str(n)] for n in _log_strata(rng, 160, 1e3, 1e6)]
    queries += [["a-parity", f"{n}..{n + 999}"] for n in _log_strata(rng, 20, 1e3, 1e6)]
    queries += [["a-value", str(n)] for n in _log_strata(rng, 20, 10, 3000)]
    rng.shuffle(queries)
    return queries


# -- output checks: each returns a list of problems, empty when the output is right

_BAD_LINE = re.compile(r"^FAIL.*|.*\bNO\b.*", re.M)


def check_common(stdout: str) -> list[str]:
    return [f"failure line: {m.group(0)!r}" for m in _BAD_LINE.finditer(stdout)]


def _expect(cond: bool, what: str) -> list[str]:
    return [] if cond else [what]


def check_batch(argv: list[str], stdout: str) -> list[str]:
    """Check one batch CLI invocation's stdout against its documented shape."""
    lines = stdout.splitlines()
    oks = sum(line.startswith("ok   ") for line in lines)
    problems = check_common(stdout)
    limit = int(argv[argv.index("--limit") + 1])
    if argv[:2] == ["verify", "identities"]:
        problems += _expect(oks == 14, f"{oks} ok lines, expected 14")
    elif argv[:2] == ["verify", "theorems"]:
        problems += _expect(any(line.endswith(": 0 discrepancies") for line in lines), "no '0 discrepancies' line")
    elif argv[:2] == ["verify", "congruences"]:
        problems += _expect(oks == 24, f"{oks} ok families, expected 24")
    elif argv[:2] == ["density", "all"]:
        agree = sum(line.endswith("(routes agree: yes)") for line in lines)
        problems += _expect(agree == 3, f"{agree} 'routes agree: yes' lines, expected 3")
        density = DENSITY_8M7_REFERENCE.get(limit, r"[0-9.]+")
        pattern = rf"class 8m\+7: final density {density} \(cross-checked 1000 indices against extraction\)"
        problems += _expect(re.search(pattern, stdout) is not None, f"8m+7 line does not match {pattern!r}")
    if argv[0] == "verify":
        problems += _expect(lines[-1:] == ["PASS"], "last line is not PASS")
    return problems


_PARITY_LINE = re.compile(r"n=(\d+): (odd|even|unknown) \[[^\]]*\](?: series=(odd|even))?")


def check_query(argv: list[str], stdout: str, exact) -> list[str]:
    """Check one query's stdout; `exact` is a(0..QUERY_CHECK_LIMIT) from the DP oracle."""
    problems = check_common(stdout)
    if argv[0] == "a-value":
        n = int(argv[1])
        return problems + _expect(stdout == f"{exact[n]}\n", f"a({n}) printed as {stdout.strip()!r}")
    lo, _, hi = argv[1].partition("..")
    expected = list(range(int(lo), int(hi or lo) + 1))
    lines = stdout.splitlines()
    problems += _expect(len(lines) == len(expected), f"{len(lines)} lines for {len(expected)} indices")
    for n, line in zip(expected, lines):
        match = _PARITY_LINE.match(line)
        if not match or int(match.group(1)) != n:
            problems.append(f"unexpected line for n={n}: {line!r}")
        elif n <= QUERY_CHECK_LIMIT:
            truth = "odd" if exact[n] & 1 else "even"
            answers = {match.group(2), match.group(3)} - {"unknown", None}
            if answers != {truth}:
                problems.append(f"n={n}: {line!r} but a(n) is {truth}")
    return problems
