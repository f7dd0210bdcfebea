"""Exact oracles that only the tests use.

The qualifying partitions of n listed one by one, and their count, against
which the DP of partition_oracle.build_table is checked for small n
(criteria 1 and 3, the paper's worked example a(5) = 5).

Divisor classes mod 8 and brute-force representation counts of c^2 + d^2
and c^2 + 2 d^2, for criterion 5 (the Dirichlet formula and the eightfold
relation) and their own checks. The package keeps only the counter its
parity proofs name (numtheory.count_theta_pairs). Also the term-by-term loops
for the pentagonal and triangular exponents, against which etaq's
vectorized ones are checked.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from oddmult.numtheory import factorize

# Enumeration is a desk-scale spot check; past this it stops being one.
ENUMERATION_LIMIT = 45


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


def divisors(factorization: tuple[tuple[int, int], ...]) -> list[int]:
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


def pentagonal_exponents_loop(trunc_len: int, scale: int = 1) -> list[int]:
    """Generalized pentagonal numbers times scale below trunc_len, one k at a
    time. It always lists 0, even for trunc_len <= 0."""
    out = [0]
    k = 1
    while True:
        e = scale * (k * (3 * k - 1) // 2)
        if e >= trunc_len:
            break
        out.append(e)
        e = scale * (k * (3 * k + 1) // 2)
        if e < trunc_len:
            out.append(e)
        k += 1
    return sorted(out)


def triangular_exponents_loop(trunc_len: int, scale: int = 1) -> list[int]:
    """Triangular numbers times scale below trunc_len, one k at a time."""
    out = []
    k = 0
    while scale * (k * (k + 1) // 2) < trunc_len:
        out.append(scale * (k * (k + 1) // 2))
        k += 1
    return out
