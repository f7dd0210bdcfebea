"""Odd-density experiments over the residue classes of n.

Two regimes coexist. In the three characterized classes (n even,
n == 1 mod 4, n == 3 mod 8) odd values of a(n) thin out toward density
zero; the census counts them in the GF(2) parity series and checks that
series bit for bit against the arithmetic predicates, through the keys of
case, flag and bit that parity_keys makes for `verify theorems` and
`a-parity` too. In the leftover class n == 7 (mod 8) the conjectured
picture is density 1/2; the experiment evaluates f_3^8 / f_1^3 directly and
reports the running density at logarithmically spaced checkpoints. Nothing
here proves anything; the checks that matter are the exact cross-route
agreements. Both read bits in bounded parts: counts go through odd_count,
parity_keys makes its keys in parts of at most 2^15 n, and the 8m+7
cross-check reads its sample from both routes without building either
one's series to 8 * limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .characterize import REASONS, cases, odd_flag_windows, predict_parity
from .etaq import DISSECTION_CLASSES, a_parity_at, a_parity_series
from .gf2series import Gf2Series

__all__ = [
    "DensityCheckpoint",
    "DensityReport",
    "CENSUS_CLASSES",
    "DISAGREES",
    "checkpoints_upto",
    "density_8m7",
    "parity_keys",
    "sparse_odd_census",
]

_SAMPLE_SEED = 0x0DD

# class tag -> (step, offset): the class is n == offset (mod step)
CENSUS_CLASSES = {
    "even": (2, 0),
    "4m+1": (4, 1),
    "8m+3": (8, 3),
}


@dataclass(frozen=True)
class DensityCheckpoint:
    x: int
    odd_count: int
    density: float


@dataclass(frozen=True)
class DensityReport:
    """One class's running odd counts, and the first n where its two routes
    disagree: predicate and series in the census, closed form and extraction
    at 8m+7, which also sets how many indices it cross-checked."""

    class_tag: str
    checkpoints: tuple[DensityCheckpoint, ...]
    mismatch: int | None = None
    cross_checked: int = 0


def checkpoints_upto(limit: int) -> list[int]:
    """Decades from 10^3 up to (and then including) the limit itself."""
    points = [10**k for k in range(3, len(str(limit))) if 10**k < limit]
    points.append(limit)
    return points


def density_8m7(limit_m: int) -> DensityReport:
    """Running odd-density of the first limit_m coefficients of f_3^8 / f_1^3.

    Coefficient m is a(8m+7) mod 2. A seeded sample of min(1000, limit_m)
    indices is cross-checked against a(8m+7) read from the class rows of
    the plan of f_3 / f_1^3 at those degrees alone (a_parity_at), which uses
    no dissection identity, so the longest series held is 1/f_1 to about
    2 * limit_m. The report keeps the first sampled n = 8m+7 where the two
    disagree, which would mean a kernel inconsistency. Identical calls give
    identical reports.
    """
    if limit_m < 1:
        raise ValueError("limit_m must be >= 1")
    sample = sorted(random.Random(_SAMPLE_SEED).sample(range(limit_m), min(1000, limit_m)))
    # The cross-check goes first: it builds the longest cached 1/f_1 (to
    # about 2 * limit_m), which the closed form then reads a truncation of.
    degrees = [8 * m + 7 for m in sample]
    extracted = a_parity_at(degrees)
    series = DISSECTION_CLASSES["8m+7"][2].eval(limit_m)
    marks = []
    for x in checkpoints_upto(limit_m):
        odd = series.odd_count(upto=x)
        marks.append(DensityCheckpoint(x, odd, odd / x))

    mismatches = np.flatnonzero(series.mul_dilated_at([0], 1, [0], sample) != extracted)
    mismatch = degrees[mismatches[0]] if mismatches.size else None
    return DensityReport("8m+7", tuple(marks), mismatch, len(sample))


# Whether the odd flag and the series bit disagree, at key 4 * case + 2 * flag
# + bit: they differ, outside the uncharacterized class 8m+7.
DISAGREES = np.array(
    [flag != bit and case % 8 != 7 for case in range(len(REASONS) // 2) for flag in (0, 1) for bit in (0, 1)]
)


def parity_keys(parity: Gf2Series, lo: int, hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, keys) for each part of at most 2^15 n of [lo, hi), in order:
    keys[i] is 4 * case + 2 * flag + bit of n = start + i, as uint8, where
    bit is coefficient n of the parity series.

    One n takes its flag from predict_parity: a window of odd_flag_windows
    would first sieve every prime below n / 25. Any other range walks those
    windows, each dropped before the next is built, so one is held at a time.
    """
    windows = [(lo, np.array([predict_parity(lo)]))] if hi == lo + 1 else odd_flag_windows(hi, lo)
    for start, flags in windows:
        stop = start + len(flags)
        for at in range(start, stop, 1 << 15):
            # in place; doubled by *=, since numpy 2.4 shifts uint8 about 8 times slower
            keys = cases(at, min(at + (1 << 15), stop))
            keys *= 2
            keys |= flags[at - start : at - start + len(keys)]
            keys *= 2
            keys |= parity.to_bit_array(at, at + len(keys))
            yield at, keys
        del flags  # before the next window is built


def sparse_odd_census(limit_n: int) -> list[DensityReport]:
    """Count odd a(n) in each characterized class for n < limit_n.

    The counts decimate the parity series, which the predicates must match
    at every n; each class keeps its first mismatch. Densities are odd
    members over members scanned.
    """
    if limit_n < 1:
        raise ValueError("limit_n must be >= 1")
    parity = a_parity_series(limit_n)
    first: dict[str, int] = {}
    for start, keys in parity_keys(parity, 0, limit_n):
        ns = start + np.flatnonzero(DISAGREES[keys])
        for tag, (step, offset) in CENSUS_CLASSES.items():
            hits = ns[ns % step == offset]
            if hits.size and tag not in first:
                first[tag] = int(hits[0])

    results = []
    for tag, (step, offset) in CENSUS_CLASSES.items():
        class_bits = parity.extract(step, offset) if limit_n > offset else None
        marks = []
        for x in checkpoints_upto(limit_n):
            members = len(range(offset, x, step))
            odd = class_bits.odd_count(upto=members) if members else 0
            marks.append(DensityCheckpoint(x, odd, odd / (members or 1)))
        results.append(DensityReport(tag, tuple(marks), first.get(tag)))
    return results
