"""Per-layer tracing of the oddmult package from outside it.

The tracer wraps the functions of each package module at the names their
callers look them up by, so that a traced run of the unchanged CLI can
attribute its time to layers. Functions called a few times per run record
one span per call: name, start, end and the span that caused it. The
per-index functions, called up to about a million times, are "hot": they
record no span, only a call count and self time per name, and their
duration is charged to the enclosing call so its self time excludes them.

Self time of a span is its duration minus the union of its children's
intervals. A child's interval runs from entering its wrapper to leaving
it, so the tracer's own bookkeeping, counters included, lands in no
layer's self time.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (metric prefix, owner, attribute, hot). A class owner is patched in place.
# A module owner is patched too, and so is every other oddmult module global
# or dispatch-table entry that holds the same function object, because the
# modules import names directly (`cli.predict_parity`, the predicates inside
# `density.CENSUS_CLASSES`). `gf2series.mul` is the shift-XOR product kernel,
# so it also counts the products made inside `inverse` and `pow`.
TARGETS = (
    ("cli.main", "cli", "main", False),
    ("gf2series.mul", "gf2series", "_mul_bits", False),
    ("gf2series.inverse", "gf2series.Gf2Series", "inverse", False),
    ("gf2series.from_support", "gf2series.Gf2Series", "from_support", False),
    ("gf2series.square", "gf2series.Gf2Series", "square", False),
    ("gf2series.pow", "gf2series.Gf2Series", "pow", False),
    ("gf2series.extract", "gf2series.Gf2Series", "extract", False),
    ("gf2series.getitem", "gf2series.Gf2Series", "__getitem__", True),
    ("etaq.eval", "etaq.EtaQuotient", "eval", False),
    ("etaq.a_parity_series", "etaq", "a_parity_series", False),
    ("partition_oracle.build_table", "partition_oracle", "build_table", False),
    ("numtheory.factorize", "numtheory", "factorize", True),
    ("numtheory.is_square", "numtheory", "is_square", True),
    ("numtheory.is_three_times_square", "numtheory", "is_three_times_square", True),
    ("characterize.predict_parity", "characterize", "predict_parity", True),
    ("characterize.parity_even_index", "characterize", "parity_even_index", True),
    ("characterize.parity_4m1", "characterize", "parity_4m1", True),
    ("characterize.parity_8m3", "characterize", "parity_8m3", True),
    ("congruence.verify_family", "congruence", "verify_family", False),
    ("density.sparse_odd_census", "density", "sparse_odd_census", False),
    ("density.density_8m7", "density", "density_8m7", False),
)


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of [start, end] that no child interval covers.

    Children may nest inside each other or overlap, as spans from parallel
    workers do; each stretch of time is subtracted once.
    """
    covered = 0.0
    run_start = run_end = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if run_end is not None and lo <= run_end:
            run_end = max(run_end, hi)
            continue
        if run_end is not None:
            covered += run_end - run_start
        run_start, run_end = lo, hi
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def percentile(samples: list[float], q: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than min_beyond samples lie above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def _count_mul(stat, args, result) -> None:
    # imported here, not at the top, so that the benchmark's own process, which
    # imports this module for merge() and percentile(), stays small
    import numpy as np

    # mirrors _mul_bits: one shifted XOR of the denser operand per set bit of the sparser
    a, b, trunc_len = args
    if a.bit_count() > b.bit_count():
        a, b = b, a
    buf = np.frombuffer(a.to_bytes((a.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    shifts = np.flatnonzero(np.unpackbits(buf, bitorder="little"))
    width = b.bit_length()
    stat["shift_xors"] += len(shifts)
    stat["bytes_computed"] += len(shifts) * ((trunc_len + 7) // 8) * 3
    stat["bits_shifted"] += len(shifts) * width
    stat["bits_kept"] += int(np.clip(trunc_len - shifts, 0, width).sum())


def _count_inverse(stat, args, result) -> None:
    stat["coeffs"] += args[0].trunc_len


def _count_verify_family(stat, args, result) -> None:
    stat["checked"] += result.checked


def _count_eval(stat, args, result) -> None:
    stat["max_trunc_len"] = max(stat["max_trunc_len"], result.trunc_len)


COUNTERS = {
    "gf2series.mul": _count_mul,
    "gf2series.inverse": _count_inverse,
    "congruence.verify_family": _count_verify_family,
    "etaq.eval": _count_eval,
}


class Tracer:
    """Spans and per-name totals for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._stack: list[list] = []  # per open call: [span index or None if hot, hot child seconds]
        self._restore: list[tuple[object, object, object]] = []
        self._parity_cache = None
        self._hits_before = 0

    def wrap(self, name: str, fn, hot: bool = False, count=None):
        """`fn` with its calls recorded under `name`."""
        clock, stack, spans, stat = self.clock, self._stack, self.spans, self.stats[name]

        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1][0] if stack else None
            frame = [None if hot else len(spans), 0.0]
            if not hot:
                spans.append({"name": name, "parent": parent})
            stack.append(frame)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                stat["calls"] += 1
                if returned and count is not None:
                    count(stat, args, result)
                exited = clock()
                if hot:
                    stat["self_s"] += end - start - frame[1]
                else:
                    spans[frame[0]].update(entered=entered, start=start, end=end, exited=exited,
                                           hot_child_s=frame[1])
                if stack and (hot or stack[-1][0] is None):
                    stack[-1][1] += exited - entered

        traced.__wrapped__ = fn
        return traced

    # -- installing into the package ---------------------------------------

    def install(self, package) -> None:
        """Wrap every target present in the imported package; uninstall() undoes it."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        self._parity_cache = getattr(package.etaq, "a_parity_series", None)
        if hasattr(self._parity_cache, "cache_info"):
            self._hits_before = self._parity_cache.cache_info().hits
        for name, owner_path, attr, hot in TARGETS:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue  # gone from the package: its metrics read zero
            raw = vars(owner)[attr]
            original = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.wrap(name, original, hot, COUNTERS.get(name))
            self._set(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._set(module, key, wrapped)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for entry_key, entry in list(value.items()):
                            if isinstance(entry, tuple) and any(x is original for x in entry):
                                self._set(value, entry_key,
                                          tuple(wrapped if x is original else x for x in entry))

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def finish(self) -> dict[str, float]:
        """Resolve span self times and return flat `<module>.<function>.<stat>` totals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["entered"], span["exited"]))
        for index, span in enumerate(self.spans):
            span["self_s"] = self_time(span["start"], span["end"], children[index]) - span["hot_child_s"]
            self.stats[span["name"]]["self_s"] += span["self_s"]

        out: dict[str, float] = {}
        for name in sorted({target[0] for target in TARGETS} | set(self.stats)):
            stat = self.stats[name]
            out[f"{name}.calls"] = stat["calls"]
            out[f"{name}.self_s"] = float(stat["self_s"])
            out.update((f"{name}.{key}", value) for key, value in stat.items() if key not in ("calls", "self_s"))
        if self.stats["etaq.a_parity_series"]["calls"] and hasattr(self._parity_cache, "cache_info"):
            out["etaq.a_parity_series.cache_hits"] = self._parity_cache.cache_info().hits - self._hits_before
        return out


def merge(totals: list[dict[str, float]]) -> dict[str, float]:
    """Combine the totals of several traced processes and derive the ratios."""
    out: dict[str, float] = defaultdict(int)
    for one in totals:
        for key, value in one.items():
            out[key] = max(out[key], value) if key.endswith(".max_trunc_len") else out[key] + value
    shifted = out["gf2series.mul.bits_shifted"]
    out["gf2series.mul.kept_ratio"] = out["gf2series.mul.bits_kept"] / shifted if shifted else 0.0
    calls = out["etaq.a_parity_series.calls"]
    out["etaq.a_parity_series.cache_hit_ratio"] = (
        out["etaq.a_parity_series.cache_hits"] / calls if calls else 0.0
    )
    return dict(out)
