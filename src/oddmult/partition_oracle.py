"""Exact values of a(n): partitions whose parts all appear with odd multiplicity.

Ground truth for every parity claim in the package, deliberately computed
with exact integer arithmetic and no GF(2) machinery: a generating-function
DP over the per-part factors 1 + q^i + q^{3i} + q^{5i} + ... on 40-bit limbs
in int64 words. The tests check it, for small n, against an explicit
enumeration of the qualifying partitions (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PartitionCountTable", "build_table"]

# The DP is quadratic: a fresh build takes about 0.8 s at 10^4 and 4-5 s at
# this limit on one core of a 2-core Xeon VM.
RECOMMENDED_TABLE_LIMIT = 20_000

# a(n) < 2^(_ROOT_BITS sqrt(n)) for n >= 1: at x = e^-t, a(n) x^n <= prod_i (1 + 1/(2 sinh it)),
# whose log is at most 1/t times the integral of the falling log(1 + 1/(2 sinh u)) over u > 0,
# C = pi^2/12 + 2 log(phi)^2 by Landen's values of Li2 at 1/phi and -phi; take t = sqrt(C/n).
_ROOT_BITS = math.sqrt(math.pi**2 / 3 + 8 * math.log((1 + math.sqrt(5)) / 2) ** 2) / math.log(2)
_LIMB_BITS = 40  # leaves 22 bits of each int64 to add into between carries
_LIMB_MASK = 2**_LIMB_BITS - 1


@dataclass(frozen=True)
class PartitionCountTable:
    """a(0..limit) as exact integers."""

    limit: int
    values: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.values[n]


_longest_table: PartitionCountTable | None = None


def build_table(limit: int) -> PartitionCountTable:
    """Compute a(0..limit) exactly.

    Entry n does not depend on limit, so the longest table built so far is
    kept and every smaller request is served by slicing it.
    """
    global _longest_table
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if _longest_table is None or limit > _longest_table.limit:
        _longest_table = PartitionCountTable(limit, _count_values(limit))
    if limit == _longest_table.limit:
        return _longest_table
    return PartitionCountTable(limit, _longest_table.values[: limit + 1])


def _count_values(limit: int) -> tuple[int, ...]:
    """a(0..limit) by multiplying in the factor 1 + q^p + q^{3p} + ... of each part p.

    Part p adds (old * q^p) / (1 - q^{2p}): running sums of the old rows
    along chains of stride 2p, built one block of 2p rows at a time. A row
    holds its count in limbs, low first, carried lazily; every sum counts some
    partitions of an n <= limit, so it fits once swept (see _ROOT_BITS). A
    part adds at most 1 + span // (2p) < 2^22 rows to a row (limit < 2^23),
    so a sweep before any limb could pass 2^62 keeps every int64 exact.
    A part above h = limit // 2 appears at most once, and no two fit, so
    those parts together add to row n > h the old rows 0 .. n - h - 1: one
    prefix sum of fewer than 2^22 swept rows.
    """
    v = np.zeros((limit + 1, int(_ROOT_BITS * math.sqrt(limit)) // _LIMB_BITS + 1), np.int64)
    buf = np.empty_like(v)
    v[0, 0] = bound = 1
    half = limit // 2
    for part in range(1, half + 1):
        span, width = limit + 1 - part, 2 * part
        bound *= 2 + span // width
        buf[:span] = v[:span]
        for start in range(width, span, width):
            stop = min(start + width, span)
            buf[start:stop] += buf[start - width : stop - width]
        v[part:] += buf[:span]
        if bound * (2 + (span - 1) // (width + 2)) > 2**62:  # the next part could overflow
            _carry(v)
            bound = _LIMB_MASK
    _carry(v)
    v[half + 1 :] += np.cumsum(v[: limit - half], axis=0, out=buf[: limit - half])
    _carry(v)
    if v.min() < 0 or v.max() > _LIMB_MASK:
        raise RuntimeError(f"limb overflow in the DP to {limit}")
    del buf  # before the ints; a row's value is its limbs' low bytes, little-endian
    rows = v.astype("<i8", copy=False).view(np.uint8).reshape(limit + 1, -1, 8)
    return tuple(int.from_bytes(row[:, : _LIMB_BITS // 8].tobytes(), "little") for row in rows)


def _carry(v: np.ndarray) -> None:
    """Move each limb's bits above _LIMB_BITS into the next limb."""
    for i in range(v.shape[1] - 1):
        v[:, i + 1] += v[:, i] >> _LIMB_BITS
        v[:, i] &= _LIMB_MASK
