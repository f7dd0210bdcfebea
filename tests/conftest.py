"""Fixtures, the hypothesis profile, and a Python-int reference for GF(2)
series and eta-quotients.

Every hypothesis test draws the same examples on every run: the profile
loaded here derandomizes them all, so tier-1 is deterministic.

The reference holds a truncated series as a Python int whose bit k is the
coefficient of q^k. It shares no code with gf2series or with the plan of
EtaQuotient.eval: a product is one shift-XOR per set bit of the sparser
operand, f(q^d) spreads the bits of f, an inverse is Newton lifting, and
an eta factor comes from Euler's pentagonal number theorem. int_series
turns such an int into a series, through from_support, to compare with.
"""

from math import isqrt

import pytest
from hypothesis import settings

import oddmult.density
from oddmult import Gf2Series, a_parity_series, build_table, odd_flag_windows, predict_parity

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def oracle_2000():
    """Exact a(0..2000), the integer ground truth for parity spot checks."""
    return build_table(2000)


@pytest.fixture(scope="session")
def parity_10k():
    return a_parity_series(10_000)


@pytest.fixture
def flip_flags(monkeypatch):
    """flip_flags(*ns) makes the flag windows that parity_keys walks for the
    census, `verify theorems` and `a-parity` ranges, and the odd flag it
    takes for a single `a-parity n`, give the wrong verdict at each n in ns."""

    def flip(*ns):
        def flipped(limit, start=0):
            for lo, flags in odd_flag_windows(limit, start):
                for n in ns:
                    if lo <= n < lo + len(flags):
                        flags[n - lo] = not flags[n - lo]
                yield lo, flags

        monkeypatch.setattr(oddmult.density, "odd_flag_windows", flipped)
        monkeypatch.setattr(oddmult.density, "predict_parity", lambda n: predict_parity(n) != (n in ns))

    return flip


def set_bits(a: int) -> list[int]:
    """Positions of the set bits of a >= 0, ascending."""
    digits = bin(a)[:1:-1]  # least significant first, without "0b"
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def int_series(n: int, bits: int = 0) -> Gf2Series:
    """The series of n coefficients whose coefficient k is bit k of bits, through from_support."""
    return Gf2Series.from_support(set_bits(bits & ((1 << n) - 1)), n)


def ref_mul(a: int, b: int, n: int) -> int:
    """The product a * b truncated to n terms, one shift-XOR per set bit of
    the operand with fewer of them."""
    mask = (1 << n) - 1
    a, b = a & mask, b & mask
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    for e in set_bits(a):
        acc ^= b << e
    return acc & mask


def ref_dilate(a: int, d: int, n: int) -> int:
    """a(q^d) truncated to n terms: bit k of a moves to bit d*k."""
    a &= (1 << -(-n // d)) - 1
    if not a:
        return 0
    return int(("0" * (d - 1)).join(bin(a)[2:]), 2) & ((1 << n) - 1)


def ref_inverse(factors: list[int], n: int) -> int:
    """1 / prod(factors) truncated to n terms, each factor with constant term 1.

    Newton lifting mod 2: if b inverts a to k terms, a * b(q^2) inverts it
    to 2k. The product is never formed; each step multiplies by every factor.
    """
    if not all(f & 1 for f in factors):
        raise ValueError("constant term is 0: not invertible")
    b, k = 1, 1
    while k < n:
        k = min(2 * k, n)
        b = ref_dilate(b, 2, k)
        for f in factors:
            b = ref_mul(f, b, k)
    return b


def ref_eta(scale: int, n: int) -> int:
    """f_scale mod 2 to n terms: q^(scale * k(3k-1)/2) for every integer k."""
    bits = 0
    for k in range(-isqrt(n) - 1, isqrt(n) + 2):
        e = scale * (k * (3 * k - 1) // 2)
        if e < n:
            bits |= 1 << e
    return bits


def reference_eval(quotient, trunc_len: int) -> int:
    """The bits of an EtaQuotient mod 2 to trunc_len terms, by the generic route.

    f_r^e is the product of f_r(q^(2^j)) over the set bits j of |e|. The
    denominator's factors are inverted together, and the numerator's
    multiply that inverse one at a time.
    """
    numerator, denominator = [], []
    for scale, exponent in quotient.factors:
        factor, e = ref_eta(scale, trunc_len), abs(exponent)
        while e:
            if e & 1:
                (numerator if exponent > 0 else denominator).append(factor)
            e >>= 1
            factor = ref_dilate(factor, 2, trunc_len)
    acc = ref_inverse(denominator, trunc_len)
    for factor in numerator:
        acc = ref_mul(factor, acc, trunc_len)
    return acc
