"""Parity predicates for a(n), split by residue class of n.

`predict_parity(n)` gives the odd flag of n from arithmetic properties of n
alone (squareness, or the shape of the prime factorization), with no series
computation. `odd_flag_windows` gives the same flags for a whole range, one
window at a time, by marking the odd sets directly, without factorizing
anything: its square branches are the c k^2 whose case has odd set c. Each
case of n, which `cases` alone gives, has one row of the table `CASES`: its
odd set and its reasons for an even and an odd flag, and one entry of
`CASE_CLASSES`, its class. The reason names the branch, so a failed
comparison against the series names the branch that lied. The class
n == 7 (mod 8) has no characterization: its flag is meaningless.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator

import numpy as np

from .numtheory import MAX_INPUT, _sieve, factorize, is_square

__all__ = [
    "predict_parity",
    "CASE_CLASSES",
    "REASONS",
    "cases",
    "odd_flag_windows",
]


# The case of n is n mod 24, save the two even n whose odd set the residue does
# not fix: n = 0 (ZERO) and n = 18 j^2 with j >= 1 (TRIPLE_ROOT). It fixes
# the class of n and, in the odd classes, m mod 3. Neither extra case is
# 7 (mod 8), so a case is 7 (mod 8) exactly when its n is.
ZERO, TRIPLE_ROOT = 24, 25

# The class of n in each case: that of n mod 8, save ZERO and TRIPLE_ROOT, both even.
CASE_CLASSES = np.array(("even", "4m+1", "even", "8m+3", "even", "4m+1", "even", "8m+7") * 3 + ("even",) * 2)


def _odd_class(tag: str, c: int, square_desc: str) -> list[tuple]:
    """The rows of the odd class tag, whose m == 0 (mod 3) are odd at c k^2, by m mod 3."""
    return [
        (c, f"{tag}: m == 0 (mod 3), {{0}} not {square_desc}", f"{tag}: m == 0 (mod 3), {{0}} {square_desc}"),
        ("prime", f"{tag}: m == 1 (mod 3), exponent pattern fails",
         f"{tag}: m == 1 (mod 3), lone odd prime exponent == 1 (mod 4)"),
        _fixed(f"{tag}: m == 2 (mod 3)", False),
    ]


def _fixed(reason: str, odd: bool) -> tuple:
    """The row of a case of fixed parity, whose reason under the other flag names the contradiction."""
    wrong = f"{reason} is always {('even', 'odd')[odd]}, but {{0}} is flagged {('odd', 'even')[odd]}"
    return ("all", wrong, reason) if odd else ("none", reason, wrong)


def _case_table() -> tuple[tuple, ...]:
    four, eight = _odd_class("4m+1", 1, "a square"), _odd_class("8m+3", 3, "3 times a square")
    rows = []
    for r, tag in enumerate(CASE_CLASSES[:24].tolist()):
        if tag == "even":
            rows.append((2, "2m: m not a square", "2m: m = k^2 with 3 not | k"))
        elif tag == "4m+1":
            rows.append(four[(r - 1) // 4 % 3])
        elif tag == "8m+3":
            rows.append(eight[(r - 3) // 8 % 3])
        else:
            rows.append(("none", *("8m+7: uncharacterized class",) * 2))
    return (*rows, _fixed("2m: m = 0", True), _fixed("2m: m = k^2 but 3 | k", False))


# Row i is case i's (odd set, reason for an even flag, reason for an odd
# flag), "{0}" standing for n in a reason. The odd set, the n of the case
# whose a(n) is odd, is "all", "none", an int c for the n = c k^2, or "prime"
# for the n with exactly one odd prime exponent, that one == 1 (mod 4).
CASES = _case_table()

# The reason of every case and odd flag, at index 2 * case + odd.
REASONS = tuple(reason for _, *pair in CASES for reason in pair)


def cases(lo: int, hi: int) -> np.ndarray:
    """The case of each n in [lo, hi), 0 <= lo < hi, as uint8."""
    out = np.tile(np.arange(lo % 24, lo % 24 + 24, dtype=np.uint8) % 24, -(-(hi - lo) // 24))[: hi - lo]
    # the 18 j^2 in [lo, hi) with j >= 1, in Python ints: near 2^63 they overflow int64
    out[[18 * j * j - lo for j in range(isqrt(max(lo - 1, 0) // 18) + 1, isqrt((hi - 1) // 18) + 1)]] = TRIPLE_ROOT
    if lo == 0:
        out[0] = ZERO
    return out


def predict_parity(n: int) -> bool:
    """Whether a(n) is odd, for 0 <= n <= MAX_INPUT = 2^63, the range of factorize;
    any other n is refused with ValueError. The flag is meaningless when n == 7 (mod 8).

    n is odd-valued iff it lies in the odd set of its case in CASES.
    """
    if not 0 <= n <= MAX_INPUT:
        raise ValueError(f"predict_parity supports 0 <= n <= 2^63, got {n}")
    odd_set = CASES[cases(n, n + 1)[0]][0]
    if odd_set == "prime":
        odd_exponents = [e for _, e in factorize(n) if e % 2]
        return len(odd_exponents) == 1 and odd_exponents[0] % 4 == 1
    if odd_set in ("all", "none"):
        return odd_set == "all"
    return n % odd_set == 0 and is_square(n // odd_set)


# Width of the windows odd_flag_windows yields. A window costs a few bytes per
# entry, and its sieve loops once per prime up to sqrt(limit). On a 2-core
# Xeon VM a walk to 10^7 took 0.02 s and peaked at 2.0 MB traced; 2^16 took
# 2.4 times as long, and 2^20 peaked at 2.5 MB.
FLAG_WINDOW = 1 << 18

# The residues whose odd set is "prime". There 3 not | n and n is odd, so in
# p^e * k^2 with p not | k the k is prime to 6, k^2 == 1 and, with e == 1
# (mod 4), p^e == p (mod 24): the residues pick out p mod 24.
_PRIME_RESIDUES = tuple(r for r, (odd_set, *_) in enumerate(CASES) if odd_set == "prime")


def odd_flag_windows(limit: int, start: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """The windows [lo, lo + FLAG_WINDOW) tiling [start, limit), in order, as (lo, flags).

    flags is a bool array whose entry i is predict_parity(lo + i);
    entries at lo + i == 7 (mod 8) are meaningless. The odd sets are marked
    directly: for each int odd set c of CASES, read at the call, the c k^2
    whose case has odd set c, or "all" (n = 0); and every p^e * k^2 with
    p == 5, 11, 17 (mod 24), p not | k, k prime to 6 and e == 1 (mod 4).
    Each window finds its own primes (k = 1, e = 1) by a segmented sieve.
    Every other p^e * k^2 is p * K^2 with K = p^((e-1)/2) k >= 5, and those
    are exactly the p * K^2 in which p divides K an even number of times.
    They and the c k^2, about sqrt(limit) of them, are all the other odd n
    below limit; all are listed in one sorted array from start on, which
    each window slices.
    """
    if not 0 <= start < limit:
        raise ValueError("need 0 <= start < limit")
    top = limit - 1
    base = _sieve(isqrt(top))
    base = base[base >= 5]
    primes = _sieve(top // 25)
    primes = primes[np.isin(primes % 24, _PRIME_RESIDUES)]

    # the c * k^2 whose case (from the value) has odd set c or "all" (n = 0); one 18 j^2 past top ends the search
    rest, triple = [], 18 * np.arange(1, isqrt(top // 18) + 2) ** 2
    for c in {odd_set for odd_set, *_ in CASES if isinstance(odd_set, int)}:
        n = c * np.arange(isqrt(top // c) + 1) ** 2
        case = np.where(n == 0, ZERO, np.where(triple[np.searchsorted(triple, n)] == n, TRIPLE_ROOT, n % 24))
        rest.append(n[np.array([odd_set in (c, "all") for odd_set, *_ in CASES])[case]])
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
