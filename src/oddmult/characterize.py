"""Parity predicates for a(n), split by residue class of n.

`predict_parity(n)` gives the odd flag of n from arithmetic properties of n
alone (squareness, or the shape of the prime factorization), with no series
computation. `odd_flag_windows` gives the same flags for a whole range, one
window at a time, by marking the odd sets directly, without factorizing
anything. The reason for a flag is the entry of the flag and the case of n,
which `cases` alone gives, in the one table `REASONS`; it names the branch,
so a failed comparison against the series names the branch that lied. The
class n == 7 (mod 8) has no characterization: its flag is meaningless.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np

from .numtheory import MAX_INPUT, _sieve, factorize, is_square, is_three_times_square

__all__ = [
    "predict_parity",
    "REASONS",
    "cases",
    "odd_flag_windows",
]


# The reason of every case and odd flag, at index 2 * case + odd, "{0}"
# standing for n in the reason. The case of n is n mod 24, save the two even n
# whose reason that does not fix: n = 0 (ZERO) and n = 18 j^2 with j >= 1
# (TRIPLE_ROOT). The residue fixes the class of n and, in the odd classes,
# m mod 3. A case of fixed parity names the contradiction under the other flag.
# Neither extra case is 7 (mod 8), so a case is 7 (mod 8) exactly when its n is.
ZERO, TRIPLE_ROOT = 24, 25


def _odd_class_reasons(tag: str, square_desc: str) -> list[tuple[str, str]]:
    """The reasons of the odd class tag for an even and an odd flag, by m mod 3."""
    return [
        (f"{tag}: m == 0 (mod 3), {{0}} not {square_desc}", f"{tag}: m == 0 (mod 3), {{0}} {square_desc}"),
        (f"{tag}: m == 1 (mod 3), exponent pattern fails",
         f"{tag}: m == 1 (mod 3), lone odd prime exponent == 1 (mod 4)"),
        _fixed(f"{tag}: m == 2 (mod 3)", False),
    ]


def _fixed(reason: str, odd: bool) -> tuple[str, str]:
    """The reasons for an even and an odd flag of a case that is always odd, or always even."""
    wrong = f"{reason} is always {('even', 'odd')[odd]}, but {{0}} is flagged {('odd', 'even')[odd]}"
    return (wrong, reason) if odd else (reason, wrong)


def _case_reasons() -> tuple[str, ...]:
    four, eight = _odd_class_reasons("4m+1", "a square"), _odd_class_reasons("8m+3", "3 times a square")
    reasons = []
    for r in range(24):
        if r % 2 == 0:
            reasons.append(("2m: m not a square", "2m: m = k^2 with 3 not | k"))
        elif r % 4 == 1:
            reasons.append(four[(r - 1) // 4 % 3])
        elif r % 8 == 3:
            reasons.append(eight[(r - 3) // 8 % 3])
        else:
            reasons.append(("8m+7: uncharacterized class",) * 2)
    reasons += [_fixed("2m: m = 0", True), _fixed("2m: m = k^2 but 3 | k", False)]
    return tuple(reason for pair in reasons for reason in pair)


REASONS = _case_reasons()


def cases(lo: int, hi: int) -> np.ndarray:
    """The case of each n in [lo, hi), lo < hi, as uint8."""
    # int32, not int64: its remainders cost a quarter as much on a 2^18 window
    out = (np.arange(lo % 24, lo % 24 + hi - lo, dtype=np.int32) % 24).astype(np.uint8)
    # j runs from the least j >= 1 with 18 j^2 >= lo
    j = np.arange(isqrt(max(lo - 1, 0) // 18) + 1, isqrt((hi - 1) // 18) + 1)
    out[18 * j * j - lo] = TRIPLE_ROOT
    if lo == 0:
        out[0] = ZERO
    return out


def predict_parity(n: int) -> bool:
    """Whether a(n) is odd, for 0 <= n <= MAX_INPUT = 2^63, the range of factorize;
    any other n is refused with ValueError. The flag is meaningless when n == 7 (mod 8).

    a(2m) is odd iff m = 0 or m = k^2 with 3 not | k. For n = 4m+1 or 8m+3,
    a(n) is even when m == 2 (mod 3); when m == 0 (mod 3) it is odd iff n is
    a square (4m+1) or 3 times a square (8m+3); when m == 1 (mod 3) it is odd
    iff exactly one prime exponent of n is odd, and that one is 1 (mod 4).
    """
    if not 0 <= n <= MAX_INPUT:
        raise ValueError(f"predict_parity supports 0 <= n <= 2^63, got {n}")
    if n % 2 == 0:
        root = isqrt(n // 2)
        # 0 = 0^2 has a root 3 divides, yet a(0) = 1 is odd
        return n == 0 or (root * root == n // 2 and root % 3 != 0)
    m = n // 4 if n % 4 == 1 else n // 8
    if n % 8 == 7 or m % 3 == 2:
        return False
    if m % 3 == 0:
        return is_square(n) if n % 4 == 1 else is_three_times_square(n)
    odd_exponents = [e for _, e in factorize(n) if e % 2]
    return len(odd_exponents) == 1 and odd_exponents[0] % 4 == 1


# Width of the windows odd_flag_windows yields. A window costs a few bytes per
# entry, and its sieve loops once per prime up to sqrt(limit). On a 2-core
# Xeon VM a walk to 10^7 took 0.03 s and peaked at 1.1 MB traced; 2^16 took
# 2.7 times as long, and 2^20 peaked at 2.5 MB.
FLAG_WINDOW = 1 << 18

# p^e * k^2 with p not | k and e == 1 (mod 4) is odd-valued in the classes
# n == 5 (mod 12) and n == 11 (mod 24). There 3 not | n and n is odd, so k is
# prime to 6, k^2 == 1 and p^e == p (mod 24): the classes pick out p mod 24.
_PRIME_RESIDUES = (5, 11, 17)


def odd_flag_windows(limit: int, start: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """The windows [lo, lo + FLAG_WINDOW) tiling [start, limit), in order, as (lo, flags).

    flags is a bool array whose entry i is predict_parity(lo + i);
    entries at lo + i == 7 (mod 8) are meaningless. The odd sets are marked
    directly: 2k^2 with k = 0 or 3 not | k; odd k^2 with 3 not | k (the
    square branch of 4m+1); 3k^2 with k odd (that of 8m+3); and every
    p^e * k^2 with p == 5, 11, 17 (mod 24), p not | k, k prime to 6 and
    e == 1 (mod 4). Each window finds its own primes (k = 1, e = 1) by a
    segmented sieve. Every other p^e * k^2 is p * K^2 with K = p^((e-1)/2) k
    >= 5, and those are exactly the p * K^2 in which p divides K an even
    number of times. They and the squares, about sqrt(limit) of them, are
    all the other odd n below limit; each is listed once in one sorted
    array from start on, which each window slices.
    """
    if not 0 <= start < limit:
        raise ValueError("need 0 <= start < limit")
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
    # p * K^2 with K >= 5 in [start, limit): for each K a run of primes,
    # primes[first:last], laid end to end
    k = np.arange(5, isqrt(top // 5) + 1, 2)
    k = k[k % 3 != 0]
    first = np.searchsorted(primes, -(-start // (k * k)))
    counts = np.maximum(np.searchsorted(primes, top // (k * k), side="right") - first, 0)
    k = np.repeat(k, counts)
    p = primes[np.arange(len(k)) + np.repeat(first - np.cumsum(counts) + counts, counts)]
    # keep the pairs where p divides K an even number of times
    m, even = k.copy(), np.ones(len(k), dtype=bool)
    while (hits := m % p == 0).any():
        even ^= hits
        m[hits] //= p[hits]
    rest.append(p[even] * k[even] ** 2)
    rest = np.sort(np.concatenate(rest))
    rest = rest[np.searchsorted(rest, start) :]

    width = FLAG_WINDOW
    return ((lo, _window(lo, min(lo + width, limit), base, rest)) for lo in range(start, limit, width))


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
