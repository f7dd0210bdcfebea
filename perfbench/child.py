"""One closed-loop client: runs oddmult CLI invocations in this process, one after another.

    python3 perfbench/child.py ARGVS_JSON [TRACE_OUT]

ARGVS_JSON is a JSON list of argument lists for `oddmult.cli.main`. The
next invocation starts only after the previous one returned. Prints one
JSON object with each invocation's exit code, latency and stdout. With
TRACE_OUT, the package is traced and the per-layer totals and spans are
written to that file; stdout is the same either way.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oddmult  # noqa: E402
import oddmult.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_one(argv: list[str]) -> dict:
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = oddmult.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crash of one query is a failed operation, not a dead client
        code, error = 1, traceback.format_exc()
    latency = time.perf_counter() - start
    return {"argv": argv, "code": code, "latency_s": latency, "stdout": out.getvalue(), "error": error}


def main() -> int:
    if not Path(oddmult.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"oddmult imported from {oddmult.__file__}, not from this checkout", file=sys.stderr)
        return 2
    argvs = json.loads(sys.argv[1])
    tracer = Tracer() if len(sys.argv) > 2 else None
    if tracer:
        tracer.install(oddmult)
    results = [run_one(argv) for argv in argvs]
    if tracer:
        tracer.uninstall()
        totals = tracer.finish()
        Path(sys.argv[2]).write_text(json.dumps({"totals": totals, "spans": tracer.spans}))
    print(json.dumps({"results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
