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
agreements. Both read bits in bounded parts: the census counts the keys of
each part of at most 2^15 n into one histogram, the source of all its counts,
and the 8m+7 cross-check reads its sample from both routes without building
either one's series to 8 * limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .characterize import CASE_CLASSES, cases, odd_flag_windows, predict_parity
from .etaq import DISSECTION_CLASSES, a_parity_at, a_parity_series
from .gf2series import Gf2Series

__all__ = [
    "DensityCheckpoint",
    "DensityReport",
    "DISAGREES",
    "checkpoints_upto",
    "density_8m7",
    "key_counts",
    "parity_keys",
    "sparse_odd_census",
]

_SAMPLE_SEED = 0x0DD


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
    # The cross-check goes first: it builds the longest held 1/f_1 (to
    # about 2 * limit_m), which the closed form then reads a truncation of.
    degrees = [8 * m + 7 for m in sample]
    extracted = a_parity_at(degrees)
    series = DISSECTION_CLASSES["8m+7"][2].eval(limit_m)
    points = checkpoints_upto(limit_m)
    odd = [series.odd_count(upto=x) for x in points]
    marks = map(DensityCheckpoint, points, odd, [o / x for o, x in zip(odd, points)])

    mismatches = np.flatnonzero(series.mul_dilated_at([0], 1, [0], sample) != extracted)
    mismatch = degrees[mismatches[0]] if mismatches.size else None
    return DensityReport("8m+7", tuple(marks), mismatch, len(sample))


# Whether the odd flag and the series bit disagree, at key 4 * case + 2 * flag
# + bit: they differ, outside the uncharacterized class 8m+7.
DISAGREES = np.array([flag != bit and tag != "8m+7" for tag in CASE_CLASSES for flag in (0, 1) for bit in (0, 1)])


def key_counts(keys: np.ndarray) -> np.ndarray:
    """The number of keys of each value below len(DISAGREES), counted in slices
    of 2^13: bincount casts what it counts to intp, 8 bytes a key."""
    counts = np.zeros(len(DISAGREES), dtype=np.int64)
    for at in range(0, len(keys), 1 << 13):
        counts += np.bincount(keys[at : at + (1 << 13)], minlength=len(DISAGREES))
    return counts


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
    """Count odd a(n) in each characterized class for n < limit_n, in the
    histogram of the keys of n below each checkpoint. The predicates must match
    the series at every n; each class keeps its first mismatch. Densities are
    odd members over members scanned."""
    if limit_n < 1:
        raise ValueError("limit_n must be >= 1")
    points = checkpoints_upto(limit_n)
    counts, at_points, first = np.zeros(len(DISAGREES), dtype=np.int64), [], {}
    for start, keys in parity_keys(a_parity_series(limit_n), 0, limit_n):
        # a checkpoint on the part's end is counted here, and not at the next part's start
        at_points += [counts + key_counts(keys[: x - start]) for x in points if start < x <= start + len(keys)]
        part = key_counts(keys)
        counts += part
        for i in np.flatnonzero(DISAGREES[keys]).tolist() if DISAGREES @ part else ():
            first.setdefault(CASE_CLASSES[keys[i] >> 2], start + i)

    by_case = np.array(at_points).reshape(len(points), -1, 4)  # checkpoint, case, 2 * flag + bit
    results = []
    for tag in ("even", "4m+1", "8m+3"):
        members = by_case[:, CASE_CLASSES == tag].sum(axis=(1, 2)).tolist()
        odd = by_case[:, CASE_CLASSES == tag, 1::2].sum(axis=(1, 2)).tolist()
        marks = map(DensityCheckpoint, points, odd, [o / (m or 1) for o, m in zip(odd, members)])
        results.append(DensityReport(tag, tuple(marks), first.get(tag)))
    return results
