"""Integer factorization, square tests, the theta-pair counter, residues.

Factorization is trial division for small inputs and deterministic
Miller-Rabin plus Brent's variant of Pollard rho beyond, valid for the
whole supported range n <= 2^63. One counter, count_theta_pairs, counts
the theta-product forms of a(4m+1) and a(8m+3): the ways to write m as a
triangular number plus 3 (resp. 6) times a generalized pentagonal number.
"""

from __future__ import annotations

import itertools
from math import gcd, isqrt

import numpy as np

__all__ = [
    "factorize",
    "is_prime",
    "is_square",
    "count_theta_pairs",
]

MAX_INPUT = 2**63

# Witnesses proving primality for every n < 3.3 * 10^24, far past MAX_INPUT.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sieve(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, by the sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return np.flatnonzero(flags)


_TRIAL_PRIMES = _sieve(10_000).tolist()  # full factorization by trial division below 1e8


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n <= 2^63."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, Brent's cycle variant."""
    for c in itertools.count(1):
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated for this c; retry with the next polynomial


def _factor_into(n: int, out: dict[int, int]) -> None:
    """Add the factorization of n > 1, free of primes below 10^4, to out."""
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Complete prime factorization of 1 <= n <= 2^63: the pairs (p, e) of
    n = prod p^e, primes ascending and exponents >= 1."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n > MAX_INPUT:
        raise ValueError(f"factorize supports n <= 2^63, got {n}")
    remaining = n
    found: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > remaining:
            break
        while remaining % p == 0:
            found[p] = found.get(p, 0) + 1
            remaining //= p
    if remaining > 1:
        if remaining < _TRIAL_PRIMES[-1] ** 2:
            found[remaining] = found.get(remaining, 0) + 1
        else:
            _factor_into(remaining, found)
    return tuple(sorted(found.items()))


def is_square(n: int) -> bool:
    if n < 0:
        raise ValueError("n must be >= 0")
    r = isqrt(n)
    return r * r == n


def count_theta_pairs(m: int, scale: int) -> int:
    """Pairs (k >= 0, j in Z) with k(k+1)/2 + scale * j(3j-1)/2 = m.

    Mod 2, f1^3 f3 = T(q) f3 and f1^3 f3^2 = T(q) f6, so the count is a(4m+1)
    at scale 3 and a(8m+3) at scale 6, mod 2. Completing the squares, they
    count 8m+2 = (2k+1)^2 + (6j-1)^2 and 8m+3 = c^2 + 2d^2 (c, d > 0, 3 not | d).
    x >= 0 is j(3j-1)/2 for one j if 24x + 1 is a square, for none otherwise.
    """
    if m < 0 or scale < 1:
        raise ValueError(f"count_theta_pairs needs m >= 0 and scale >= 1, got {m}, {scale}")
    count = 0
    for k in range((isqrt(8 * m + 1) + 1) // 2):
        rest = m - k * (k + 1) // 2
        if rest % scale == 0 and is_square(24 * rest // scale + 1):
            count += 1
    return count


def _euler_criterion(a: int, p: int) -> int:
    """The Legendre symbol of a mod p, an odd prime its caller has checked:
    1, -1, or 0. The zero class (p | a) is kept distinct on purpose: family
    generation must skip it, since 0 is neither a residue nor a nonresidue."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1
