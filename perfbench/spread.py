"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads identities,verify] [--out FILE]

Seeds run in the outer loop and workloads in the inner one, so a slow spell
on the machine touches every workload alike. For each workload and metric
it prints the median, the quartiles (`statistics.quantiles(n=4)`) and the
spread, (q3 - q1) / median, next to the metric's bound in BENCHMARK.json. It
also reports a batch workload whose stdout digest differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {}
    digests: dict[str, set[str]] = {}
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            digests.setdefault(workload, set()).update(
                line.rsplit(" ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith(f"{workload}: stdout sha256 "))
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + " ".join(
                f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    for workload, metrics in values.items():
        for metric in spec["end_to_end"]:
            xs = metrics[metric["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            spread = (q3 - q1) / median
            summary.setdefault(workload, {})[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": len(xs), "values": xs}
            print(f"{workload:<11} {metric['name']:<13} median {median:10.4f} {metric['unit']:<4} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} (bound {metric['bound']}, "
                  f"bound/3 {metric['bound'] / 3:.3f})")
    for workload in set(digests) & set(workloads.BATCH):
        if len(digests[workload]) != 1:  # batch inputs do not depend on the seed
            print(f"{workload}: stdout differs between runs: {sorted(digests[workload])}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
