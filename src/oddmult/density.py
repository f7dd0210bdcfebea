"""Odd-density experiments over the residue classes of n.

Two regimes coexist. In the three characterized classes (n even,
n == 1 mod 4, n == 3 mod 8) odd values of a(n) thin out toward density
zero; the census counts them in the GF(2) parity series and checks that
series bit for bit against the arithmetic predicates, through the window
walk `verify theorems` shares. In the leftover class n == 7 (mod 8) the
conjectured picture is density 1/2; the experiment evaluates f_3^8 / f_1^3
directly and reports the running density at logarithmically spaced
checkpoints. Nothing here proves anything; the checks that matter are the
exact cross-route agreements. Both read bits in bounded parts: counts go
through odd_count, the census compares each flag window in eighths, and the
8m+7 cross-check reads its sample from both routes without building
either one's series to 8 * limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .characterize import FLAG_WINDOW, odd_flag_windows
from .etaq import DISSECTION_CLASSES, a_parity_at, a_parity_series
from .gf2series import Gf2Series

__all__ = [
    "DensityCheckpoint",
    "DensityReport",
    "CENSUS_CLASSES",
    "checkpoints_upto",
    "density_8m7",
    "predicate_mismatches",
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


def predicate_mismatches(parity: Gf2Series, limit: int) -> Iterator[np.ndarray]:
    """Per window of odd_flag_windows(limit), the n != 7 (mod 8), ascending,
    whose odd flag differs from the bit of the parity series.

    Each window is compared in parts of FLAG_WINDOW // 8 flags, so the
    unpacked bits take an eighth of the window's flags, and each window is
    dropped before the next is built, so one is held at a time.
    """
    part = FLAG_WINDOW // 8
    for lo, flags in odd_flag_windows(limit):
        found = []
        for at in range(lo, lo + len(flags), part):
            mismatch = parity.to_bit_array(at, min(at + part, lo + len(flags)))
            mismatch ^= flags[at - lo : at - lo + part]
            mismatch[(7 - at) % 8 :: 8] = 0  # the uncharacterized class
            found.append(at + np.flatnonzero(mismatch))
        del flags  # before the next window is built
        yield np.concatenate(found)


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
    for ns in predicate_mismatches(parity, limit_n):
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
