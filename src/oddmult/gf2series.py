"""Truncated formal power series over GF(2), bit-packed into Python ints.

A series is stored as a single arbitrary-precision integer whose bit k is
the coefficient of q^k, together with an explicit truncation length: the
series is known for degrees 0 .. trunc_len-1 and every higher bit is zero.
Python ints give us word-packed coefficients for free, so addition is a
single XOR and squaring uses the GF(2) Frobenius map (bit spreading) in one
vectorized pass. Multiplication is shift-XOR over the support of the
sparser operand. Short series shift Python ints. Long ones are
word-sliced: the product runs on little-endian uint64 numpy arrays, with
one bit-shifted copy of the denser operand per residue e mod 64 of the
sparse exponents e, XORed in place at word offset e // 64. Dilation
f(q) -> f(q^d) scatters bytes with strided numpy ORs, and inversion is
Newton lifting against one factor or against a product of sparse factors
that is never formed.

Series objects are immutable; every operation returns a fresh value, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["Gf2Series", "inverse_of_product", "sparse_support"]

# Maps a byte to the 16-bit word with the same bits spread to even positions,
# i.e. the Frobenius square of the byte viewed as a GF(2) polynomial.
_SPREAD = np.zeros(256, dtype="<u2")
for _b in range(256):
    _w = 0
    for _i in range(8):
        if _b >> _i & 1:
            _w |= 1 << (2 * _i)
    _SPREAD[_b] = _w
del _b, _w, _i

# Below this size plain int bit-twiddling beats the numpy round-trip.
_NUMPY_CUTOFF = 4096

# Truncation length from which _mul_bits runs on uint64 words instead of
# Python-int shifts: a numpy call costs about a microsecond, which an XOR of
# trunc_len/64 words only repays from here on (see BENCH_4.json).
_WORD_MUL_CUTOFF = 1 << 16


def sparse_support(exponents: Iterable[int]) -> tuple[int, ...]:
    """Validate and normalize a sparse support: distinct degrees, ascending."""
    support = tuple(sorted(exponents))
    if support and support[0] < 0:
        raise ValueError("support exponents must be non-negative")
    for a, b in zip(support, support[1:]):
        if a == b:
            raise ValueError(f"duplicate exponent {a} in support")
    return support


def _words(bits: int, bit_len: int) -> np.ndarray:
    """Read-only little-endian uint64 words of a bitset below bit bit_len."""
    return np.frombuffer(bits.to_bytes(8 * ((bit_len + 63) >> 6), "little"), dtype="<u8")


def _word_support(words: np.ndarray) -> np.ndarray:
    """Positions of set bits, ascending, unpacking only the nonzero words."""
    nonzero = np.flatnonzero(words)
    bits = np.flatnonzero(np.unpackbits(words[nonzero].view(np.uint8), bitorder="little"))
    return nonzero[bits >> 6] * 64 + (bits & 63)


def _support_of(bits: int, trunc_len: int) -> list[int]:
    """Positions of set bits, ascending."""
    if trunc_len < _NUMPY_CUTOFF:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    return _word_support(_words(bits, trunc_len)).tolist()


def _spread_bits(bits: int, bit_len: int) -> int:
    """Frobenius square on the raw bitset: bit k moves to bit 2k."""
    if bit_len < _NUMPY_CUTOFF:
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << (2 * (low.bit_length() - 1))
            bits ^= low
        return out
    nbytes = (bit_len + 7) // 8
    buf = np.frombuffer(bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    return int.from_bytes(_SPREAD[buf].tobytes(), "little")


def _mul_bits(a: int, b: int, trunc_len: int) -> int:
    """Truncated carryless product via shift-XOR over the sparser operand."""
    if max(a.bit_length(), b.bit_length()) > trunc_len:
        mask = (1 << trunc_len) - 1
        a, b = a & mask, b & mask
    if a.bit_count() > b.bit_count():
        a, b = b, a
    if trunc_len >= _WORD_MUL_CUTOFF:
        return int.from_bytes(_mul_words(a, b, trunc_len).tobytes(), "little")
    acc = 0
    for e in _support_of(a, trunc_len):
        acc ^= b << e
    return acc & ((1 << trunc_len) - 1)


def _mul_words(sparse: int, dense: int, trunc_len: int) -> np.ndarray:
    """_mul_bits on uint64 words: one bit-shifted copy of dense per residue e % 64.

    Every exponent e of sparse then costs one in-place XOR of that copy,
    moved by e // 64 whole words, into the accumulator, which is returned.
    Both operands must already be truncated to trunc_len bits.
    """
    word_offsets: dict[int, list[int]] = {}
    for e in _word_support(_words(sparse, trunc_len)).tolist():
        word_offsets.setdefault(e & 63, []).append(e >> 6)
    dense_words = _words(dense, trunc_len)
    nwords = len(dense_words)
    acc = np.zeros(nwords, dtype="<u8")
    shifted = np.empty(nwords, dtype="<u8")
    carry = np.empty(nwords - 1, dtype="<u8")
    for r, offsets in word_offsets.items():
        if r:
            np.left_shift(dense_words, r, out=shifted)
            np.right_shift(dense_words[:-1], 64 - r, out=carry)
            shifted[1:] |= carry
            source = shifted
        else:
            source = dense_words
        for q in offsets:
            acc[q:] ^= source[: nwords - q]
    if trunc_len & 63:
        acc[-1] &= np.uint64((1 << (trunc_len & 63)) - 1)
    return acc


def inverse_of_product(factors: list[Gf2Series]) -> Gf2Series:
    """Inverse of the product of factors, each with constant term 1.

    Newton lifting: if b inverts a to k coefficients then a*b^2 inverts it
    to 2k. Each step is one Frobenius square plus one multiplication per
    factor, and the product itself is never formed, so for factors with
    sparse support of total size s the cost stays O(trunc_len * s) bit
    operations.
    """
    n = factors[0].trunc_len
    for factor in factors:
        factors[0]._check_len(factor)
        if not factor._bits & 1:
            raise ValueError("constant term is 0: series is not invertible")
    b = 1
    prec = 1
    while prec < n:
        new_prec = min(2 * prec, n)
        b = _spread_bits(b, prec) & ((1 << new_prec) - 1)
        for factor in factors:
            b = _mul_bits(factor._bits, b, new_prec)
        prec = new_prec
    return Gf2Series(n, b)


class Gf2Series:
    """A power series over GF(2) truncated to ``trunc_len`` coefficients."""

    __slots__ = ("trunc_len", "_bits")

    def __init__(self, trunc_len: int, bits: int = 0):
        if trunc_len < 1:
            raise ValueError("trunc_len must be >= 1")
        self.trunc_len = trunc_len
        self._bits = bits & ((1 << trunc_len) - 1)

    @classmethod
    def zero(cls, trunc_len: int) -> Gf2Series:
        return cls(trunc_len, 0)

    @classmethod
    def one(cls, trunc_len: int) -> Gf2Series:
        return cls(trunc_len, 1)

    @classmethod
    def from_support(cls, exponents: Iterable[int], trunc_len: int) -> Gf2Series:
        """Series with coefficient 1 at each listed degree.

        Exponents at or beyond the truncation are dropped silently: supports
        such as the pentagonal numbers are naturally infinite.
        """
        kept = np.array([e for e in sparse_support(exponents) if e < trunc_len], dtype=np.int64)
        words = np.zeros((trunc_len + 63) >> 6, dtype="<u8")
        np.bitwise_or.at(words, kept >> 6, np.left_shift(np.uint64(1), (kept & 63).astype(np.uint64)))
        return cls(trunc_len, int.from_bytes(words.tobytes(), "little"))

    # -- queries ---------------------------------------------------------

    def __getitem__(self, degree: int) -> int:
        if not 0 <= degree < self.trunc_len:
            raise IndexError(f"degree {degree} outside 0..{self.trunc_len - 1}")
        return self._bits >> degree & 1

    def support(self) -> list[int]:
        return _support_of(self._bits, self.trunc_len)

    def is_zero(self) -> bool:
        return self._bits == 0

    def odd_count(self, upto: int | None = None) -> int:
        """Number of nonzero coefficients among degrees < upto (default: all)."""
        if upto is None or upto >= self.trunc_len:
            return self._bits.bit_count()
        return (self._bits & ((1 << upto) - 1)).bit_count()

    def to_bit_array(self) -> np.ndarray:
        """Coefficients as a uint8 0/1 array of length trunc_len."""
        nbytes = (self.trunc_len + 7) // 8
        buf = np.frombuffer(self._bits.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(buf, bitorder="little", count=self.trunc_len)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Series):
            return NotImplemented
        return self.trunc_len == other.trunc_len and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.trunc_len, self._bits))

    def __repr__(self) -> str:
        support = self.support()
        head = support[:8]
        tail = ", ..." if len(support) > 8 else ""
        return f"Gf2Series(trunc_len={self.trunc_len}, support=[{', '.join(map(str, head))}{tail}])"

    def _check_len(self, other: Gf2Series) -> None:
        if self.trunc_len != other.trunc_len:
            raise ValueError(
                f"truncation length mismatch: {self.trunc_len} != {other.trunc_len}"
            )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Gf2Series) -> Gf2Series:
        self._check_len(other)
        return Gf2Series(self.trunc_len, self._bits ^ other._bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: Gf2Series) -> Gf2Series:
        self._check_len(other)
        return Gf2Series(self.trunc_len, _mul_bits(self._bits, other._bits, self.trunc_len))

    def square(self) -> Gf2Series:
        """Frobenius square: coefficient of q^(2k) is this series' q^k one."""
        n = self.trunc_len
        keep = (n + 1) // 2  # only degrees < ceil(n/2) survive doubling
        return Gf2Series(n, _spread_bits(self._bits & ((1 << keep) - 1), keep))

    def inverse(self) -> Gf2Series:
        """Multiplicative inverse of a series with constant term 1."""
        return inverse_of_product([self])

    def dilate(self, factor: int, trunc_len: int) -> Gf2Series:
        """The series f(q^factor): coefficient factor*k is this one's coefficient k.

        The result is known below factor * self.trunc_len, so trunc_len may
        not exceed that. Source byte i lands in the factor bytes from byte
        factor*i on, so the scatter is eight strided ORs, one per bit of a
        byte, with no per-coefficient index array.
        """
        if factor < 1:
            raise ValueError("dilation factor must be positive")
        if trunc_len > factor * self.trunc_len:
            raise ValueError("cannot extend a truncated series")
        keep = -(-trunc_len // factor)  # source degrees that land below trunc_len
        low = self._bits & ((1 << keep) - 1)
        src = np.frombuffer(low.to_bytes((keep + 7) // 8, "little"), dtype=np.uint8)
        out = np.zeros(len(src) * factor, dtype=np.uint8)
        for bit in range(8):
            out[(factor * bit) >> 3 :: factor] |= ((src >> bit) & 1) << ((factor * bit) & 7)
        return Gf2Series(trunc_len, int.from_bytes(out.tobytes(), "little"))

    def shift(self, k: int) -> Gf2Series:
        """Multiply by the monomial q^k (k >= 0), truncating as usual."""
        if k < 0:
            raise ValueError("shift distance must be non-negative")
        return Gf2Series(self.trunc_len, self._bits << k)

    def truncate(self, new_len: int) -> Gf2Series:
        if new_len > self.trunc_len:
            raise ValueError("cannot extend a truncated series")
        return Gf2Series(new_len, self._bits)

    def extract(self, step: int, offset: int) -> Gf2Series:
        """Decimate: coefficient m of the result is coefficient step*m+offset.

        The result keeps every source degree below trunc_len, so its length
        is ceil((trunc_len - offset) / step).
        """
        if step < 1:
            raise ValueError("step must be >= 1")
        if not 0 <= offset < self.trunc_len:
            raise ValueError(f"offset {offset} outside 0..{self.trunc_len - 1}")
        if step == 1:
            return Gf2Series(self.trunc_len - offset, self._bits >> offset)
        out_len = (self.trunc_len - offset + step - 1) // step
        # Unpack about 2^20 source bits at a time, never the whole series: a
        # chunk is a multiple of 8 output coefficients, so the packed chunks
        # join bytewise. A step above 2^17 unpacks 8 * step bits per chunk.
        span = max(8, (1 << 20) // step // 8 * 8)
        buf = np.frombuffer(self._bits.to_bytes((self.trunc_len + 7) // 8, "little"), dtype=np.uint8)
        blocks = []
        for first in range(0, out_len, span):
            count = min(span, out_len - first)
            start = offset + first * step
            stop = start + (count - 1) * step + 1
            bits = np.unpackbits(buf[start >> 3 : (stop + 7) >> 3], bitorder="little")
            blocks.append(np.packbits(bits[start & 7 :: step][:count], bitorder="little"))
        return Gf2Series(out_len, int.from_bytes(np.concatenate(blocks).tobytes(), "little"))
