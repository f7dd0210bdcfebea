"""Integer factorization, divisor statistics, and quadratic-form counters.

Factorization is trial division for small inputs and deterministic
Miller-Rabin plus Brent's variant of Pollard rho beyond, valid for the
whole supported range n <= 2^63. The representation counters for
c^2 + d^2 and c^2 + 2 d^2 are deliberate brute-force oracles: iterate one
variable, test the residual for squareness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

__all__ = [
    "Factorization",
    "DivisorClassCounts",
    "factorize",
    "is_prime",
    "is_square",
    "is_three_times_square",
    "sigma0",
    "divisors",
    "divisor_classes_mod8",
    "count_reps_two_squares_constrained",
    "r2",
    "r2_bruteforce",
    "r2_from_divisors",
    "count_reps_c2_plus_2d2",
    "signed_reps_c2_plus_2d2",
    "legendre_symbol",
    "is_quadratic_residue",
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


@dataclass(frozen=True)
class Factorization:
    """n = prod p_i^e_i with primes ascending and exponents >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n <= 2^63."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    if n % 2 == 0:
        return 2
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
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> Factorization:
    """Complete prime factorization of 1 <= n <= 2^63."""
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
    return Factorization(n, tuple(sorted(found.items())))


def is_square(n: int) -> bool:
    if n < 0:
        raise ValueError("n must be >= 0")
    r = isqrt(n)
    return r * r == n


def is_three_times_square(n: int) -> bool:
    if n < 0:
        raise ValueError("n must be >= 0")
    return n % 3 == 0 and is_square(n // 3)


def sigma0(factorization: Factorization) -> int:
    """Number of positive divisors: prod (e_i + 1)."""
    count = 1
    for _, e in factorization:
        count *= e + 1
    return count


def divisors(factorization: Factorization) -> list[int]:
    """All positive divisors, ascending."""
    out = [1]
    for p, e in factorization:
        powers = [p**k for k in range(e + 1)]
        out = [d * pw for d in out for pw in powers]
    return sorted(out)


@dataclass(frozen=True)
class DivisorClassCounts:
    """Divisor counts of an odd integer split by residue mod 8."""

    d1: int
    d3: int
    d5: int
    d7: int

    @property
    def total(self) -> int:
        return self.d1 + self.d3 + self.d5 + self.d7

    @property
    def dirichlet_weight(self) -> int:
        return self.d1 + self.d3 - self.d5 - self.d7


def divisor_classes_mod8(n: int) -> DivisorClassCounts:
    if n < 1 or n % 2 == 0:
        raise ValueError("divisor classes mod 8 are defined here for odd n >= 1")
    counts = [0, 0, 0, 0]
    for d in divisors(factorize(n)):
        counts[(d % 8) >> 1] += 1  # residues 1,3,5,7 -> slots 0,1,2,3
    return DivisorClassCounts(*counts)


def count_reps_two_squares_constrained(n: int) -> int:
    """Representations n = (2a+1)^2 + (6b-1)^2 with a >= 0, b in Z.

    Requires n == 2 (mod 8); these arise as 8m+2 from completing the square
    in m = a(a+1)/2 + 3b(3b-1)/2.
    """
    if n % 8 != 2:
        raise ValueError(f"expected n == 2 (mod 8), got {n}")
    count = 0
    a = 0
    while (2 * a + 1) ** 2 <= n:
        rest = n - (2 * a + 1) ** 2
        s = isqrt(rest)
        # rest = (6b-1)^2 has one solution b when s = +-1 (mod 6), none otherwise
        if s * s == rest and s % 6 in (1, 5):
            count += 1
        a += 1
    return count


def r2_bruteforce(n: int) -> int:
    """Ordered integer pairs (c, d) with c^2 + d^2 = n, by scanning c >= 0."""
    count = 0
    for c in range(isqrt(n) + 1):
        rest = n - c * c
        s = isqrt(rest)
        if s * s == rest:
            count += (1 if c == 0 else 2) * (1 if s == 0 else 2)
    return count


def r2_from_divisors(n: int) -> int:
    """Classical divisor formula: 4 * (d_{1,4}(n) - d_{3,4}(n))."""
    total = 4
    for p, e in factorize(n):
        if p == 2:
            continue
        if p % 4 == 1:
            total *= e + 1
        elif e % 2 == 1:
            return 0
    return total


_R2_BRUTE_LIMIT = 10**8


def r2(n: int) -> int:
    """r_2(n): brute force up to 1e8, divisor formula beyond."""
    if n < 1:
        raise ValueError("r2 requires n >= 1")
    if n <= _R2_BRUTE_LIMIT:
        return r2_bruteforce(n)
    return r2_from_divisors(n)


def count_reps_c2_plus_2d2(n: int, d_coprime_to_3: bool = False) -> int:
    """Positive pairs (c, d) with c^2 + 2 d^2 = n, optionally with 3 not | d."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    d = 1
    while 2 * d * d < n:
        if not (d_coprime_to_3 and d % 3 == 0):
            rest = n - 2 * d * d
            s = isqrt(rest)
            if s * s == rest:
                count += 1
        d += 1
    return count


def signed_reps_c2_plus_2d2(n: int) -> int:
    """All integer pairs (c, d) with c^2 + 2 d^2 = n, signs and zeros included."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    for d in range(isqrt(n // 2) + 1):
        rest = n - 2 * d * d
        s = isqrt(rest)
        if s * s == rest:
            count += (1 if d == 0 else 2) * (1 if s == 0 else 2)
    return count


def legendre_symbol(a: int, p: int) -> int:
    """Three-way residue class of a mod an odd prime p: 1, -1, or 0.

    The zero class (p | a) is kept distinct on purpose: congruence-family
    generation must skip it, since 0 is neither a residue nor a nonresidue.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def is_quadratic_residue(a: int, p: int) -> bool:
    return legendre_symbol(a, p) == 1
