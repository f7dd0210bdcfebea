"""Congruence families a(An+B) == 0 (mod 2) and their empirical verification.

Three fixed families fall straight out of the parity characterizations;
two generator schemes produce infinitely many more, one per (prime p,
residue r) pair whose progression avoids squares because 12r+1 (resp.
8r+1) is a quadratic nonresidue mod p. Verification checks the GF(2)
parity series directly, which is itself validated against the exact
integer oracle elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2series import Gf2Series
from .numtheory import _euler_criterion, is_prime

__all__ = [
    "CongruenceFamily",
    "FamilyVerification",
    "fixed_families",
    "generate_12p_family",
    "generate_24p_family",
    "all_families",
    "verify_family",
]


@dataclass(frozen=True)
class CongruenceFamily:
    """Asserts a(modulus * n + residue) is even for all n >= 0."""

    modulus: int
    residue: int
    source: str
    p: int | None = None
    r: int | None = None

    def __post_init__(self):
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} outside 0..{self.modulus - 1}")

    @property
    def label(self) -> str:
        return f"a({self.modulus}n+{self.residue})"

    @property
    def origin(self) -> str:
        """' (p=..., r=...)' after the congruence of a family made from a prime, '' for a fixed one."""
        return f" (p={self.p}, r={self.r})" if self.p is not None else ""


@dataclass(frozen=True)
class FamilyVerification:
    checked: int
    counterexample: int | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def fixed_families() -> tuple[CongruenceFamily, ...]:
    """The three stand-alone families."""
    return (
        CongruenceFamily(12, 9, "12n+9 = 4(3n+2)+1: m == 2 (mod 3)"),
        CongruenceFamily(24, 13, "24n+13 = 4(6n+3)+1: 24n+13 == 5 (mod 8) is never a square"),
        CongruenceFamily(24, 19, "24n+19 = 8(3n+2)+3: m == 2 (mod 3)"),
    )


def generate_12p_family(p: int) -> list[CongruenceFamily]:
    """Families a(12pn + 12r+1) even, one per r with 12r+1 a nonresidue mod p.

    Requires p prime and >= 5. The zero class (p | 12r+1) is skipped: it is
    neither residue nor nonresidue, and its progression meets multiples of
    p^2, where squares do occur.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    return _nonresidue_families(p, 12, 1, "4m+1")


def generate_24p_family(p: int) -> list[CongruenceFamily]:
    """Families a(24pn + 24r+3) even, one per r with 8r+1 a nonresidue mod p.

    Requires p an odd prime (p >= 3).
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return _nonresidue_families(p, 8, 3, "8m+3")


def _nonresidue_families(p: int, slope: int, scale: int, progression: str) -> list[CongruenceFamily]:
    """One family a(scale * (slope*p*n + slope*r+1)) per r in 1..p-1 with
    slope*r+1 a nonresidue mod p; the caller has checked that p is prime."""
    return [
        CongruenceFamily(
            scale * slope * p, scale * (slope * r + 1), f"nonresidue progression in {progression} (p={p}, r={r})", p, r
        )
        for r in range(1, p)
        if _euler_criterion(slope * r + 1, p) == -1
    ]


# The primes whose generated families all_families lists.
PRIMES_12P = (5, 7, 11)
PRIMES_24P = (3, 5, 7, 11)


def all_families() -> list[CongruenceFamily]:
    """Fixed families plus both generated schemes for PRIMES_12P and PRIMES_24P."""
    out = list(fixed_families())
    for p in PRIMES_12P:
        out.extend(generate_12p_family(p))
    for p in PRIMES_24P:
        out.extend(generate_24p_family(p))
    return out


def verify_family(family: CongruenceFamily, parity: Gf2Series) -> FamilyVerification:
    """Check a(An+B) even for every An+B < parity.trunc_len against the parity series.

    A counterexample is reported, not raised. The parity series is passed
    in so that one build serves many families.
    """
    if family.residue >= parity.trunc_len:
        return FamilyVerification(0, None)
    members = parity.extract(family.modulus, family.residue)
    odd = members.support()
    if odd:
        return FamilyVerification(odd[0], family.modulus * odd[0] + family.residue)
    return FamilyVerification(members.trunc_len, None)
