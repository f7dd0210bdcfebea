"""oddmult benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload {identities,verify,density,queries,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`, never from an installed copy. With `--trace 0` each
workload is repeated in fresh processes for about S seconds (at least
three times) and the medians are reported. With `--trace 1` each workload runs
once traced with one worker process, once untraced with the same setting
to give the tracing overhead, and, for batch workloads, once traced at a
tenth of its size to give each layer's growth exponent. Every output is
checked. Human-readable lines come first; the last line of stdout is one
JSON object with the metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
TIME_LIMIT_S = 170  # a whole run, all workloads' child processes included
SETUP_SAMPLES = 7
MIN_REPS = 3


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


def spawn(argv: list[str], deadline: float, threads: int | None = None) -> Proc:
    """Run argv to completion; peak RSS is the largest of the process and its reaped children."""
    env = {k: v for k, v in os.environ.items() if k not in ("ODDMULT_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env["ODDMULT_THREADS"] = str(threads)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024, out.read().decode(), err.read().decode())


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- machine facts and set-up ----------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_facts(numpy_version: str) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(f"{index}/size")
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
            "cpu": cpu, "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown")}


_SETUP_CODE = "import time, oddmult, numpy; print(time.monotonic(), numpy.__version__, oddmult.__file__)"


def measure_setup(deadline: float) -> tuple[list[float], str]:
    """Seconds from starting a fresh interpreter to `import oddmult` returning; one warm-up first."""
    samples, numpy_version = [], "unknown"
    for i in range(SETUP_SAMPLES + 1):
        started = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
        proc = spawn([sys.executable, "-c", _SETUP_CODE], deadline)
        if proc.code != 0:
            fail(f"cannot import oddmult from {ROOT / 'src'}:\n{proc.stderr}")
        imported, numpy_version, module_file = proc.stdout.split()
        if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
            fail(f"oddmult was imported from {module_file}, not from this checkout")
        if i:
            samples.append(float(imported) - started)
    return samples, numpy_version


# -- timed runs ------------------------------------------------------------


class Tally:
    """Operations attempted and failed, and every problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def _proc_problems(proc: Proc) -> list[str]:
    return [] if proc.code == 0 else [f"exit code {proc.code}: {proc.stderr.strip()[-500:]}"]


def _keep_going(walls: list[float], started: float, seconds: float, deadline: float) -> bool:
    if len(walls) < MIN_REPS:
        return True
    next_end = time.monotonic() + statistics.median(walls)
    return next_end - started <= seconds and next_end < deadline


def time_batch(name: str, seconds: float, deadline: float, tally: Tally) -> dict:
    argvs = workloads.batch_argvs(name, workloads.BATCH[name]["limit"])
    walls, rsses, first = [], [], None
    started = time.monotonic()
    while _keep_going(walls, started, seconds, deadline):
        procs = [spawn([sys.executable, "-m", "oddmult", *argv], deadline) for argv in argvs]
        outputs = [p.stdout for p in procs]
        first = first or outputs
        for argv, proc, out, ref in zip(argvs, procs, outputs, first):
            same = [] if out == ref else ["stdout differs from the first run"]
            tally.record(" ".join(argv), _proc_problems(proc) + workloads.check_batch(argv, out) + same)
        walls.append(sum(p.wall_s for p in procs))
        rsses.append(max(p.rss_mib for p in procs))
    return {"walls": walls, "rsses": rsses, "stdout": "".join(first)}


def run_queries(queries: list[list[str]], deadline: float, trace_out: Path | None = None,
                threads: int | None = None) -> tuple[Proc, list[dict]]:
    argv = [sys.executable, str(CHILD), json.dumps(queries)] + ([str(trace_out)] if trace_out else [])
    proc = spawn(argv, deadline, threads)
    results = json.loads(proc.stdout)["results"] if proc.code == 0 else []
    return proc, results


def check_results(proc: Proc, results: list[dict], check, tally: Tally, reference=None) -> None:
    """Record one operation per invocation the client ran; `check(argv, stdout)` lists problems."""
    if proc.code != 0:
        tally.record("client", _proc_problems(proc))
    for i, result in enumerate(results):
        problems = check(result["argv"], result["stdout"])
        if result["code"] != 0 or result["error"]:
            problems.append(f"exit code {result['code']} {result['error'] or ''}".strip())
        if reference is not None and result["stdout"] != reference[i]["stdout"]:
            problems.append("stdout differs from the first run")
        tally.record(" ".join(result["argv"]), problems)


def time_queries(seed: int, seconds: float, deadline: float, tally: Tally, exact) -> dict:
    queries = workloads.make_queries(seed)
    walls, rsses, latencies, first = [], [], [], None
    started = time.monotonic()
    while _keep_going(walls, started, seconds, deadline):
        proc, results = run_queries(queries, deadline)
        first = first or results
        check_results(proc, results, partial(workloads.check_query, exact=exact), tally, first)
        walls.append(proc.wall_s)
        rsses.append(proc.rss_mib)
        latencies += [r["latency_s"] * 1000 for r in results]
    return {"walls": walls, "rsses": rsses, "latencies": latencies,
            "stdout": "".join(r["stdout"] for r in first)}


def exact_table(deadline: float) -> list[int]:
    """a(0..QUERY_CHECK_LIMIT) from the package's exact DP, built once outside any timing.

    It is built in a child because a child's ru_maxrss can include the pages
    of the process that started it, so this process must stay small.
    """
    code = ("import json; from oddmult.partition_oracle import build_table; "
            f"print(json.dumps(build_table({workloads.QUERY_CHECK_LIMIT}).values))")
    proc = spawn([sys.executable, "-c", code], deadline)
    if proc.code != 0:
        fail(f"cannot build the exact table:\n{proc.stderr}")
    return json.loads(proc.stdout)


# -- traced runs -----------------------------------------------------------


def trace_workload(name: str, seed: int, deadline: float, tally: Tally, exact) -> dict:
    """Traced and untraced runs with one worker; batch workloads also traced at a tenth of their size."""
    if name == "queries":
        jobs = {"full": [workloads.make_queries(seed)]}
        check = partial(workloads.check_query, exact=exact)
    else:
        check = workloads.check_batch
        limit = workloads.BATCH[name]["limit"]
        jobs = {size: [[argv] for argv in workloads.batch_argvs(name, lim)]
                for size, lim in (("full", limit), ("tenth", limit // 10))}
    report = {}
    for size, batches in jobs.items():
        totals, walls, plain_walls = [], [], []
        for i, argvs in enumerate(batches):
            trace_file = OUT_DIR / f"spans-{name}-seed{seed}-{size}-{i}.json"
            proc, results = run_queries(argvs, deadline, trace_file, threads=1)
            check_results(proc, results, check, tally)
            walls.append(proc.wall_s)
            if proc.code == 0:
                totals.append(json.loads(trace_file.read_text())["totals"])
            if size == "full":
                plain, plain_results = run_queries(argvs, deadline, threads=1)
                check_results(plain, plain_results, check, tally, results)
                plain_walls.append(plain.wall_s)
        report[size] = {"totals": tracer.merge(totals), "traced_s": sum(walls)}
        if plain_walls:
            report[size]["untraced_s"] = sum(plain_walls)
    full = report["full"]
    full["overhead"] = full["traced_s"] / full["untraced_s"] - 1
    if "tenth" in report:
        tenth = report["tenth"]["totals"]
        full["growth"] = {
            key[: -len(".self_s")] + ".growth": math.log10(value / tenth[key])
            for key, value in full["totals"].items()
            if key.endswith(".self_s") and value > 0 and tenth.get(key, 0) > 0
        }
    return report


# -- reporting -------------------------------------------------------------


def _line(workload: str, metric: str, value: float, unit: str, note: str = "") -> None:
    shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
    print(f"{workload:<11} {metric:<44} {shown} {unit:<6} {note}".rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "oddmult" / "__init__.py").is_file():
        fail(f"no oddmult sources under {ROOT / 'src'}; run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    setup, numpy_version = measure_setup(deadline)
    facts = machine_facts(numpy_version)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    exact = exact_table(deadline) if "queries" in names else None
    tally = Tally()
    metrics: dict[str, dict] = {}
    for name in names:
        if name == "queries":
            queries = workloads.make_queries(args.seed)
            biggest = workloads.largest_series_bits(name, queries=queries)
        else:
            biggest = workloads.largest_series_bits(name, workloads.BATCH[name]["limit"])
        print(f"{name}: largest series {biggest} coefficients = {(biggest + 7) // 8} B (computed), "
              f"L2 {facts['l2']}")
        before = (tally.attempted, tally.failed)
        if args.trace:
            report = trace_workload(name, args.seed, deadline, tally, exact)
            full = report["full"]
            values = full["totals"]
            for key in sorted(values):
                _line(name, key, values[key], "s" if key.endswith("_s") else "")
            for key, value in sorted(full.get("growth", {}).items()):
                _line(name, key, value, "log10", "self_s at full size over a tenth")
            _line(name, "trace_overhead", full["overhead"], "ratio",
                  f"traced {full['traced_s']:.3f} s vs untraced {full['untraced_s']:.3f} s, ODDMULT_THREADS=1")
            report["facts"] = facts
            (OUT_DIR / f"trace-{name}-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
            measured = {m["name"]: values.get(m["name"], 0) for m in declared}
        else:
            timed = (time_queries(args.seed, args.seconds, deadline, tally, exact) if name == "queries"
                     else time_batch(name, args.seconds, deadline, tally))
            measured = {
                "wall_s": statistics.median(timed["walls"]),
                "peak_rss_mib": statistics.median(timed["rsses"]),
                "setup_s": statistics.median(setup),
            }
            runs = f"median of {len(timed['walls'])} runs"
            _line(name, "wall_s", measured["wall_s"], "s",
                  f"{runs}: " + " ".join(f"{w:.3f}" for w in timed["walls"]))
            _line(name, "peak_rss_mib", measured["peak_rss_mib"], "MiB", runs)
            _line(name, "setup_s", measured["setup_s"], "s", f"median of {len(setup)} interpreters")
            print(f"{name}: stdout sha256 {hashlib.sha256(timed['stdout'].encode()).hexdigest()}")
            if name == "queries":
                lat = timed["latencies"]
                for q in (50, 90):
                    value = tracer.percentile(lat, q)
                    _line(name, f"query_p{q}_ms", math.nan if value is None else value, "ms",
                          f"of {len(lat)} queries")
        attempted, failed = tally.attempted - before[0], tally.failed - before[1]
        _line(name, "fail_ratio", failed / max(attempted, 1), "ratio", f"{failed} of {attempted} operations")
        for key, value in measured.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            unit = next((m["unit"] for m in declared if m["name"] == key), "")
            metrics[label] = {"value": value, "unit": unit}
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
