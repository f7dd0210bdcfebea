"""Exact values of a(n): partitions whose parts all appear with odd multiplicity.

Ground truth for every parity claim in the package, deliberately computed
with plain integer arithmetic and no GF(2) machinery. Two independent
routes are provided: a generating-function DP over the per-part factors
1 + q^i + q^{3i} + q^{5i} + ..., and, for small n, explicit enumeration of
the qualifying partitions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "PartitionCountTable",
    "build_table",
    "enumerate_partitions",
    "qualifying_partitions",
    "ENUMERATION_LIMIT",
]

# Enumeration is a desk-scale spot check; past this it stops being one.
ENUMERATION_LIMIT = 45

# The DP is quadratic: a fresh build takes about 2.6 s at 10^4 and 13 s at
# this limit on one core of a 2-core Xeon VM; callers wanting more should
# expect a proportionally quadratic wait.
RECOMMENDED_TABLE_LIMIT = 20_000


@dataclass(frozen=True)
class PartitionCountTable:
    """a(0..limit) as exact integers."""

    limit: int
    values: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def parity(self, n: int) -> int:
        return self.values[n] & 1


# The longest table built so far; smaller requests are slices of it.
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
    """a(0..limit) by multiplying in the factor of each part size.

    The factor for part p is 1 + q^p + q^{3p} + q^{5p} + ... truncated at
    limit. Its contribution t = (old * q^p) / (1 - q^{2p}) is a running sum
    of the old values along chains of stride 2p, so it is built row by row:
    each block of 2p entries adds in the block before it. The entries are
    Python ints in an object array, so the O(limit^2) additions stay exact
    and loop in C.
    """
    values = np.zeros(limit + 1, dtype=object)
    values[0] = 1
    for part in range(1, limit + 1):
        span = limit + 1 - part
        width = 2 * part
        contrib = values[:span].copy()
        for start in range(width, span, width):
            stop = min(start + width, span)
            contrib[start:stop] += contrib[start - width : stop - width]
        values[part:] += contrib
    return tuple(values.tolist())


def qualifying_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n in which every part has odd multiplicity.

    Parts appear in decreasing order within each partition; partitions come
    out ordered by largest part descending.
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(max_part, remaining), 0, -1):
            for count in range(1, remaining // part + 1, 2):
                for rest in gen(remaining - part * count, part - 1):
                    yield (part,) * count + rest

    return gen(n, n)


def enumerate_partitions(n: int) -> int:
    """Count the qualifying partitions of n by explicit generation."""
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration guard: n={n} exceeds {ENUMERATION_LIMIT}; use build_table"
        )
    return sum(1 for _ in qualifying_partitions(n))
