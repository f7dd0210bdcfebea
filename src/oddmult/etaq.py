"""Eta-quotients over GF(2) and the parity series for a(n).

An eta-quotient is a product of factors f_r = prod_{i>=1} (1 - q^{r*i})
with signed integer exponents. Modulo 2 each f_r is the pentagonal-number
series dilated by r (Euler), f_r^3 is the triangular-number series dilated
by r (Jacobi), and the Frobenius map gives f_r^2 = f_2r. So f_r is a power
of f_s for the odd part s of r, and a quotient folds into one signed
exponent per odd scale: its normal form. EtaQuotient.plan turns that form
into one plan, plain data that eval runs: the single cached inverse
P = 1/f_1, taken at q^t, times a few factors of square-root-sized
support, at O(N * sqrt(N)) bit operations for truncation N and with no
product of two dense series. A quotient in which two odd scales keep a
negative exponent, such as 1/(f1 f5), would need P at two scales and is
refused by plan. The factor with the most terms multiplies the undilated
P one residue class mod t at a time, so P(q^t) itself is never built. P
is built the same way: mod 2, 1/f_1 = f_1^3 / f_4 = T(q) * P(q^4), so P
to N coefficients is one such product against P to N/4.

The parity of a(n), the number of partitions of n whose parts all appear
with odd multiplicity, is the coefficient series of f_3 / f_1^3. Its 2-,
4- and 8-dissections are also available in closed form (DISSECTION_CLASSES),
and every closed form is cross-checkable against coefficient extraction
from the parity series itself. A few scattered a(n) are read without it,
from the class rows of its plan at those degrees alone (a_parity_at). The
identity suite is a table of quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Iterator

import numpy as np

from .gf2series import Gf2Series

__all__ = [
    "EtaQuotient",
    "pentagonal_exponents",
    "triangular_exponents",
    "a_parity_series",
    "a_parity_at",
    "identity_suite",
    "DISSECTION_CLASSES",
]


def pentagonal_exponents(trunc_len: int, scale: int = 1) -> list[int]:
    """Generalized pentagonal numbers k(3k-1)/2 (k in Z) below trunc_len,
    dilated by scale, ascending."""
    if scale < 1:
        raise ValueError("scale must be positive")
    # k(3k-1)/2 >= k^2, so every term has k <= isqrt(trunc_len // scale)
    k = np.arange(isqrt(max(trunc_len, 0) // scale) + 1, dtype=np.int64)
    pent = scale * np.stack([k * (3 * k - 1) // 2, k * (3 * k + 1) // 2], axis=1).ravel()[1:]
    return pent[pent < trunc_len].tolist()


def triangular_exponents(trunc_len: int, scale: int = 1) -> list[int]:
    """Triangular numbers k(k+1)/2 (k >= 0) below trunc_len, dilated by scale."""
    if scale < 1:
        raise ValueError("scale must be positive")
    # k(k+1)/2 >= k^2/2, so every term has k <= isqrt(2 trunc_len // scale)
    k = np.arange(isqrt(2 * max(trunc_len, 0) // scale) + 1, dtype=np.int64)
    tri = scale * (k * (k + 1) // 2)
    return tri[tri < trunc_len].tolist()


@dataclass(frozen=True)
class EtaQuotient:
    """Symbolic product of eta factors: ((scale, exponent), ...).

    Scales are positive, exponents are nonzero signed integers, factors are
    sorted by scale with duplicate scales merged.
    """

    factors: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, factors: dict[int, int] | list[tuple[int, int]]) -> EtaQuotient:
        pairs = factors.items() if isinstance(factors, dict) else factors
        merged: dict[int, int] = {}
        for scale, exponent in pairs:
            if scale < 1:
                raise ValueError(f"eta factor scale must be positive, got {scale}")
            merged[scale] = merged.get(scale, 0) + exponent
        return cls(tuple(sorted((r, e) for r, e in merged.items() if e != 0)))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        num = [f"f{r}" + (f"^{e}" if e > 1 else "") for r, e in self.factors if e > 0]
        den = [f"f{r}" + (f"^{-e}" if e < -1 else "") for r, e in self.factors if e < 0]
        text = " ".join(num) if num else "1"
        if den:
            text += " / " + " ".join(den)
        return text

    def plan(self, trunc_len: int) -> tuple[int, list[tuple[int, list[int]]]]:
        """The plan that eval runs to trunc_len: (t, [(scale, exponents), ...]).

        Mod 2, f_r^2 = f_2r, so f_r = f_s^(r/s) for the odd part s of r, and
        the quotient folds into one signed exponent E_s per odd scale s. A
        negative E_s is lifted by the smallest 2^k >= -E_s: 1/f_s^-E_s =
        f_s^(E_s + 2^k) * P(q^t) with P = 1/f_1 and t = s*2^k (t = 0 when
        nothing is inverted). The set bits j of the lifted E_s, lowest first,
        give the sparse factors, each as its scale u and exponents: two
        adjacent bits j, j+1 are one triangular T(q^u) = f_u^3 at u = s*2^j
        (Jacobi), a lone bit the pentagonal f_u. The first factor F has the
        most terms: it multiplies P(q^t) class by class mod t against the
        undilated P, at |F| * N/(64*t) word XORs, or is laid down alone when
        t = 0. The rest follow in ascending (terms, scale) order, one sparse
        product each, so no two dense series are ever multiplied. A quotient
        is refused with a ValueError, before anything is allocated, exactly
        when two odd scales keep a negative exponent, such as 1/(f1 f5);
        1/(f1 f2) = f1 P(q^4) evaluates.
        """
        if trunc_len < 1:
            raise ValueError("trunc_len must be >= 1")
        folded: dict[int, int] = {}  # odd scale s -> E_s
        for scale, exponent in self.factors:
            twos = scale & -scale
            folded[scale // twos] = folded.get(scale // twos, 0) + twos * exponent
        negative = sum(e < 0 for e in folded.values())
        if negative > 1:
            raise ValueError(f"cannot evaluate {self}: its denominator keeps {negative} odd scales, the plan inverts one")
        inverted = 0
        sparse = []
        for scale, exponent in folded.items():
            if exponent < 0:
                k = (-exponent - 1).bit_length()  # smallest 2^k >= -exponent
                inverted = scale << k
                exponent += 1 << k
            while exponent:
                if exponent & 3 == 3:
                    sparse.append((scale, triangular_exponents(trunc_len, scale)))
                    exponent, scale = exponent >> 2, scale << 2
                else:
                    if exponent & 1:
                        sparse.append((scale, pentagonal_exponents(trunc_len, scale)))
                    exponent, scale = exponent >> 1, scale << 1
        sparse.sort(key=lambda factor: (len(factor[1]), factor[0]))
        return inverted, sparse[-1:] + sparse[:-1]

    def eval(self, trunc_len: int) -> Gf2Series:
        """Evaluate to a truncated GF(2) series by running plan(trunc_len), exact mod 2."""
        return _run(*self.plan(trunc_len), trunc_len)


def _run(t: int, factors: list[tuple[int, list[int]]], trunc_len: int) -> Gf2Series:
    """The product that the plan (t, factors) stands for, to trunc_len."""
    first = factors[0][1] if factors else [0]
    if t:
        acc = _inverse_f1(-(-trunc_len // t)).mul_dilated(first, t, trunc_len)
    else:
        acc = Gf2Series.from_support(first, trunc_len)
    for _, exponents in factors[1:]:
        acc = acc.mul_dilated(exponents, 1, trunc_len)
    return acc


# The longest P = 1/f_1 built so far. Like the parity series below it is
# prefix-stable, so every shorter request is served by truncating this one.
_longest_inverse: Gf2Series | None = None


def _inverse_f1(trunc_len: int) -> Gf2Series:
    """P = 1/f_1 to trunc_len coefficients.

    Mod 2, f_1^4 = f_4, so 1/f_1 = f_1^3 / f_4 = T(q) * P(q^4) with Jacobi's
    triangular T = f_1^3. P to n > 1 coefficients is therefore one
    class-split product of T against P to ceil(n/4), which is read from
    the cached P when that is long enough; P = 1 at n = 1.
    """
    global _longest_inverse
    if _longest_inverse is None or trunc_len > _longest_inverse.trunc_len:
        if trunc_len == 1:
            _longest_inverse = Gf2Series.from_support([0], 1)
        else:
            inner = _inverse_f1(-(-trunc_len // 4))
            _longest_inverse = inner.mul_dilated(triangular_exponents(trunc_len), 4, trunc_len)
    return _longest_inverse.truncate(trunc_len)


# The parity generating function: sum a(n) q^n = f_3 / f_1^3 (mod 2).
A_PARITY_QUOTIENT = EtaQuotient.of({3: 1, 1: -3})

# For each residue class, the series whose coefficient m is a(<class at m>)
# mod 2, keyed by tag; values are (step, offset, closed-form quotient).
DISSECTION_CLASSES: dict[str, tuple[int, int, EtaQuotient]] = {
    "2m": (2, 0, EtaQuotient.of({1: 3, 3: -1})),
    "2m+1": (2, 1, EtaQuotient.of({3: 5, 1: -3})),
    "4m+1": (4, 1, EtaQuotient.of({1: 3, 3: 1})),
    "4m+3": (4, 3, EtaQuotient.of({3: 7, 1: -3})),
    "8m+3": (8, 3, EtaQuotient.of({1: 3, 3: 2})),
    "8m+7": (8, 7, EtaQuotient.of({3: 8, 1: -3})),
}


# The longest parity series built so far. Coefficient n does not depend on
# the truncation, so every shorter request is served by truncating this one.
_longest_parity: Gf2Series | None = None


def a_parity_series(trunc_len: int) -> Gf2Series:
    """Coefficient n is a(n) mod 2, for n < trunc_len.

    A request past the longest series builds at least twice its length, so
    a run of growing requests rebuilds O(log) times, never once per request,
    and the series held is at most twice the longest request.
    """
    global _longest_parity
    if _longest_parity is None:
        _longest_parity = A_PARITY_QUOTIENT.eval(trunc_len)
    elif trunc_len > _longest_parity.trunc_len:
        _longest_parity = A_PARITY_QUOTIENT.eval(max(trunc_len, 2 * _longest_parity.trunc_len))
    return _longest_parity.truncate(trunc_len)


def a_parity_at(degrees: Iterable[int]) -> np.ndarray:
    """a(n) mod 2 for each n in degrees, as uint8 0/1.

    The parity plan to the largest degree is (t, [F, G]): a(n) is
    coefficient n of F * G * P(q^t). G times P(q^t) is taken one class row
    mod t at a time, and each row is read at the listed n alone, through F
    (mul_dilated_at), so neither G * P(q^t) nor any series longer than P
    is built. No dissection identity is used, so this checks the closed
    forms.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    trunc_len = int(degrees.max()) + 1 if len(degrees) else 1
    t, (first, second) = A_PARITY_QUOTIENT.plan(trunc_len)
    return _inverse_f1(-(-trunc_len // t)).mul_dilated_at(second[1], t, first[1], degrees)


# The identities lhs = rhs + q * rhs_q as (name, lhs, rhs, rhs_q), each side
# given as {scale: exponent}: the base congruences, the three dissection steps
# that peel f_3/f_1^3 down to the 8m+7 remainder, and the two product forms
# used by the alternative square-detection arguments.
IDENTITIES: list[tuple[str, dict[int, int], dict[int, int], dict[int, int]]] = [
    ("f1^3 = f3 + q f9^3", {1: 3}, {3: 1}, {9: 3}),
    ("f1^3 f3^3 = f1^12 + q f3^12", {1: 3, 3: 3}, {1: 12}, {3: 12}),
    ("f3/f1^3 = f1^6/f3^2 + q f3^10/f1^6", {3: 1, 1: -3}, {1: 6, 3: -2}, {3: 10, 1: -6}),
    ("f3^5/f1^3 = f1^6 f3^2 + q f3^14/f1^6", {3: 5, 1: -3}, {1: 6, 3: 2}, {3: 14, 1: -6}),
    ("f3^7/f1^3 = f1^6 f3^4 + q f3^16/f1^6", {3: 7, 1: -3}, {1: 6, 3: 4}, {3: 16, 1: -6}),
    ("f1^3 f3 = f3^2 + q f3 f9^3", {1: 3, 3: 1}, {3: 2}, {3: 1, 9: 3}),
    ("f1^3 f3^2 = f3^3 + q f3^2 f9^3", {1: 3, 3: 2}, {3: 3}, {3: 2, 9: 3}),
]


def identity_suite(trunc_len: int) -> Iterator[tuple[str, Gf2Series, Gf2Series]]:
    """The identities as (name, lhs, rhs), each exact mod 2, built one at a
    time: the rows of IDENTITIES, with f_3^3/f_1 against its explicit
    support third."""

    def ev(factors: dict[int, int]) -> Gf2Series:
        return EtaQuotient.of(factors).eval(trunc_len)

    for i, (name, lhs, rhs, q) in enumerate(IDENTITIES):
        if i == 2:
            # the support k(3k-2), k in Z, of f_3^3 / f_1 is the (j^2 - 1) / 3 with 3 not | j: 3k(3k-2) + 1 = (3k-1)^2
            eq33_support = [(j * j - 1) // 3 for j in range(1, isqrt(3 * trunc_len) + 1) if j % 3]
            yield "f3^3/f1 = sum_k q^(k(3k-2))", ev({3: 3, 1: -1}), Gf2Series.from_support(eq33_support, trunc_len)
        yield name, ev(lhs), ev(rhs) + ev(q).mul_dilated([1], 1, trunc_len)
