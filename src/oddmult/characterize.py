"""Parity predicates for a(n), split by residue class of n.

Each predicate decides odd/even from arithmetic properties of n alone
(squareness, or the shape of the prime factorization), with no series
computation. Every verdict carries the case that produced it, so a failed
comparison against the series names the branch that lied. The class
n == 7 (mod 8) has no characterization and always comes back Unknown.
`odd_flags` gives the same verdicts for a whole range at once by marking
the odd sets directly, without factorizing anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .numtheory import Factorization, _sieve, factorize, is_square, is_three_times_square

__all__ = [
    "Parity",
    "ParityVerdict",
    "parity_even_index",
    "parity_4m1",
    "parity_8m3",
    "predict_parity",
    "odd_flags",
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


def odd_flags(limit: int) -> np.ndarray:
    """Bool array whose entry n is predict_parity(n).is_odd, for every n < limit.

    Entries at n == 7 (mod 8) are meaningless. The odd sets are marked
    directly: 2k^2 with k = 0 or 3 not | k; odd k^2 with 3 not | k (the
    square branch of 4m+1); 3k^2 with k odd (that of 8m+3); and, inside the
    m == 1 (mod 3) subclasses n == 5 (mod 12) and n == 11 (mod 24), every
    n = p^e * k^2 with p not | k and e == 1 (mod 4).
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    top = limit - 1
    flags = np.zeros(limit, dtype=bool)
    k = np.arange(isqrt(top // 2) + 1)
    flags[2 * k[(k == 0) | (k % 3 != 0)] ** 2] = True
    k = np.arange(1, isqrt(top) + 1, 2)
    flags[k[k % 3 != 0] ** 2] = True
    k = np.arange(1, isqrt(top // 3) + 1, 2)
    flags[3 * k**2] = True

    # every prime power p^e <= top with e == 1 (mod 4), beside its prime p
    primes = _sieve(top)
    higher = []
    for p in map(int, primes):
        if p**5 > top:
            break
        higher += [(p**e, p) for e in range(5, top.bit_length(), 4) if p**e <= top]
    pairs = np.array(higher, dtype=primes.dtype).reshape(-1, 2)
    power = np.concatenate((primes, pairs[:, 0]))
    root = np.concatenate((primes, pairs[:, 1]))
    order = np.argsort(power)
    power, root = power[order], root[order]
    for k in range(1, isqrt(top) + 1):
        cut = np.searchsorted(power, top // (k * k), side="right")
        if cut == 0:
            break
        n = power[:cut] * (k * k)
        keep = ((n % 12 == 5) | (n % 24 == 11)) & (k % root[:cut] != 0)
        flags[n[keep]] = True
    return flags
