"""Truncated formal power series over GF(2), bit-packed into uint64 words.

A series is known for degrees 0 .. trunc_len-1 and is stored as a
read-only array of little-endian uint64 words whose bit k (bit k & 63 of
word k >> 6) is the coefficient of q^k; every bit at or above trunc_len is
zero. Every operation works on these words: addition is one XOR, and
every product is mul_dilated, a sparse factor F = sum_e q^e, given by its
exponents, times f(q^d). At d = 1 it XORs f into one accumulator in place
at byte offset e // 8, by Horner's rule over the residues e mod 8, and
moves the accumulator up in place between them. At d > 1 it does the same
one residue class of F's exponents mod d at a time against the undilated
f, and scatters each of these class rows into one output through a table
of the 256 byte values spread by d, one gather per chunk of source bytes.
A few coefficients of a sparse G times F * f(q^d) can be read without
forming the product: each class row is read at the degrees it reaches and
dropped before the next is built (mul_dilated_at), so nothing longer than
N/d bits is held; at F = 1 and d = 1 that reads G * f. No product of two
dense series is ever formed, and odd_count unpacks a series' bits a chunk
at a time.

Series objects are immutable: every operation returns a fresh value, and
the word arrays are read-only, so instances can be shared freely, across
threads too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Gf2Series"]

_BYTES = np.arange(256, dtype=np.uint8)

# Bytes gathered per chunk, by _sparse_gather (whose int32 byte indices take
# four times as much) and by _scatter (whose output takes factor times as
# much); odd_count unpacks 8 * _GATHER bits at a time, and _mul_words moves
# its accumulator up _GATHER words at a time.
_GATHER = 1 << 14


def _exponent_array(exponents: Iterable[int]) -> np.ndarray:
    """The exponents of a sparse factor sum_e q^e: distinct, non-negative, ascending int64."""
    support = np.sort(np.fromiter(exponents, dtype=np.int64))
    if len(support) and support[0] < 0:
        raise ValueError("support exponents must be non-negative")
    repeated = np.flatnonzero(support[1:] == support[:-1])
    if len(repeated):
        raise ValueError(f"duplicate exponent {support[repeated[0]]} in support")
    return support


def _nwords(trunc_len: int) -> int:
    """Words that hold trunc_len coefficients; a series has at least one."""
    if trunc_len < 1:
        raise ValueError("trunc_len must be >= 1")
    return (trunc_len + 63) >> 6


def _mul_words(exponents: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Carryless product of sum_e q^e and the words dense, cut to their length.

    Horner's rule over the residues r = e % 8, highest first: each e of
    residue r XORs dense's bytes in place, e // 8 bytes up, into a byte view
    of the accumulator, which then moves up in place by the gap to the next
    residue present, or to 0. So the returned accumulator is the one buffer
    as long as dense. Exponents past its last byte add nothing.
    """
    nbytes = 8 * len(dense)
    exponents = exponents[exponents < 8 * nbytes]
    acc = np.zeros(len(dense), dtype="<u8")
    out, source = acc.view(np.uint8), dense.view(np.uint8)
    offsets = [(exponents[(exponents & 7) == r] >> 3).tolist() for r in range(8)]
    residues = [r for r in range(7, -1, -1) if offsets[r]]
    for r, below in zip(residues, residues[1:] + [0]):
        for b in offsets[r]:
            out[b:] ^= source[: nbytes - b]
        if r > below:  # acc <<= r - below, top chunk first: each spill is read before its word moves
            gap = np.uint64(r - below)
            for hi in range(len(acc), 1, -_GATHER):
                lo = max(hi - _GATHER, 1)
                spill = acc[lo - 1 : hi - 1] >> (64 - gap)
                acc[lo:hi] <<= gap
                acc[lo:hi] |= spill
            acc[0] <<= gap
    return acc


# The package's quotients use a dozen (factor, offset) pairs; the bound keeps
# a caller with large factors from holding 256*factor bytes for every pair.
@lru_cache(maxsize=64)
def _spread_table(factor: int, offset: int) -> np.ndarray:
    """Entry b is byte b spread to factor bytes: bit t at bit factor*t + offset.

    offset < factor, so the eight bits stay inside the factor bytes. The
    entries are void scalars of factor bytes, so one take gathers them.
    """
    table = np.zeros((256, factor), dtype=np.uint8)
    for t in range(8):
        at = factor * t + offset
        table[:, at >> 3] |= (_BYTES >> t & 1) << (at & 7)
    return table.view(f"V{factor}").ravel()


def _scatter(words: np.ndarray, factor: int, offset: int, out: np.ndarray) -> None:
    """OR bit k of words into bit factor*k + offset of the byte array out.

    Source byte i lands in the factor bytes from byte factor*i on, so each
    chunk of _GATHER source bytes is one gather from _spread_table and one
    OR, with no per-coefficient index array. Bits that land past the end of
    out are dropped: a source byte whose group only starts inside out ORs
    the part of its group that fits.
    """
    src = words.view(np.uint8)
    table = _spread_table(factor, offset)
    groups = min(len(src), len(out) // factor)
    for first in range(0, groups, _GATHER):
        last = min(first + _GATHER, groups)
        out[factor * first : factor * last] |= table.take(src[first:last]).view(np.uint8)
    tail = len(out) - factor * groups
    if tail and groups < len(src):
        out[factor * groups :] |= table.take(src[groups : groups + 1]).view(np.uint8)[:tail]


def _sparse_gather(src: np.ndarray, support: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Coefficient n of (sum_e q^e) * s for each n in degrees, as uint8 0/1,
    where src holds the bytes of s and every degree indexes a bit of src.

    Exponent e <= n adds bit n - e of s. The exponents e = 8k + r of one
    residue r mod 8 read bit (n - r) & 7 of the bytes ((n - r) >> 3) - k, so
    each residue XORs whole bytes and shifts once per degree. The byte
    indices are int32 unless s has 2^31 bytes or more, and degrees go in
    chunks of about _GATHER gathered bytes, so the temporaries stay that
    small however many degrees and exponents there are.
    """
    index = np.int32 if len(src) < 1 << 31 else np.int64
    # Exponents above every degree add nothing, and the rest index src.
    support = support[support <= degrees.max(initial=-1)]
    out = np.zeros(len(degrees), dtype=np.uint8)
    for r in range(8):
        k = (support[(support & 7) == r] >> 3).astype(index)
        span = _GATHER // max(len(k), 1) + 1
        for first in range(0, len(degrees) if len(k) else 0, span):
            d = degrees[first : first + span] - r
            byte = (d >> 3).astype(index)[:, None] - k  # negative where e > n
            gathered = src.take(byte, mode="clip")
            gathered[byte < 0] = 0
            bits = np.bitwise_xor.reduce(gathered, axis=1) >> (d & 7).astype(np.uint8)
            out[first : first + span] ^= bits & 1
    return out


class Gf2Series:
    """A power series over GF(2) truncated to ``trunc_len`` coefficients, made by from_support or an operation."""

    __slots__ = ("trunc_len", "_words")

    @classmethod
    def _of_words(cls, trunc_len: int, words: np.ndarray) -> Gf2Series:
        """The series stored in words, which it takes over: the bits at and
        above trunc_len are cleared and the array is made read-only."""
        if trunc_len & 63:
            words[-1] &= np.uint64((1 << (trunc_len & 63)) - 1)
        words.flags.writeable = False
        series = cls.__new__(cls)
        series.trunc_len = trunc_len
        series._words = words
        return series

    @classmethod
    def from_support(cls, exponents: Iterable[int], trunc_len: int) -> Gf2Series:
        """Series with coefficient 1 at each listed degree.

        Exponents at or beyond the truncation are dropped silently, before
        the others are validated: supports such as the pentagonal numbers are
        naturally infinite, and a dropped exponent need not fit in int64.
        """
        kept = _exponent_array(e for e in exponents if e < trunc_len)
        words = np.zeros(_nwords(trunc_len), dtype="<u8")
        np.bitwise_or.at(words, kept >> 6, np.left_shift(np.uint64(1), (kept & 63).astype(np.uint64)))
        return cls._of_words(trunc_len, words)

    # -- queries ---------------------------------------------------------

    def __getitem__(self, degree: int) -> int:
        if not 0 <= degree < self.trunc_len:
            raise IndexError(f"degree {degree} outside 0..{self.trunc_len - 1}")
        return int(self.to_bit_array(degree, degree + 1)[0])

    def support(self) -> list[int]:
        return np.flatnonzero(self.to_bit_array()).tolist()

    def is_zero(self) -> bool:
        return not self._words.any()

    def odd_count(self, upto: int | None = None) -> int:
        """Number of nonzero coefficients among degrees < upto (default: all)."""
        n = self.trunc_len if upto is None else min(upto, self.trunc_len)
        if n < 0:
            raise ValueError(f"upto {n} is negative")
        chunk = 8 * _GATHER  # bits unpacked at a time
        return sum(int(self.to_bit_array(lo, min(lo + chunk, n)).sum()) for lo in range(0, n, chunk))

    def to_bit_array(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Coefficients lo .. hi-1 (default: all) as a uint8 0/1 array: the one
        reader of a series' bits, which unpacks only the bytes that hold them.
        """
        hi = self.trunc_len if hi is None else hi
        if not 0 <= lo <= hi <= self.trunc_len:
            raise ValueError(f"degrees {lo}..{hi - 1} outside 0..{self.trunc_len - 1}")
        bits = np.unpackbits(self._words.view(np.uint8)[lo >> 3 : (hi + 7) >> 3], bitorder="little")
        return bits[lo & 7 :][: hi - lo]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Series):
            return NotImplemented
        return self.trunc_len == other.trunc_len and np.array_equal(self._words, other._words)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Gf2Series) -> Gf2Series:
        if self.trunc_len != other.trunc_len:
            raise ValueError(f"truncation length mismatch: {self.trunc_len} != {other.trunc_len}")
        return Gf2Series._of_words(self.trunc_len, self._words ^ other._words)

    def mul_dilated(self, exponents: Iterable[int], factor: int, trunc_len: int) -> Gf2Series:
        """The product (sum_e q^e) * f(q^factor), truncated to trunc_len.

        Each class row F_j * f (_class_rows) is scattered from degree m to
        degree factor*m + j. So the XOR loop runs over trunc_len / factor
        bits per exponent, and no dilated copy of this series is built.
        Dilation f(q) -> f(q^factor) is the case exponents = [0]. At factor
        1 there is one class, and the XOR loop's words are the product with
        no scatter. The exponents drive that loop, so a sparse factor is
        never built as a series, and exponents at or past trunc_len add
        nothing.
        """
        support = self._checked(exponents, factor, trunc_len)
        if factor == 1:
            return Gf2Series._of_words(trunc_len, _mul_words(support, self._words[: _nwords(trunc_len)]))
        out = np.zeros(8 * _nwords(trunc_len), dtype=np.uint8)
        for j, row in self._class_rows(support, factor, trunc_len):
            # Bits of the row at and above its length land at or above trunc_len.
            _scatter(row, factor, j, out)
            del row  # before the next row is built
        return Gf2Series._of_words(trunc_len, out.view("<u8"))

    def mul_dilated_at(self, exponents: Iterable[int], factor: int, outer: Iterable[int], degrees: Iterable[int]) -> np.ndarray:
        """Coefficient n of (sum_o q^o) * (sum_e q^e) * f(q^factor) for each n
        in degrees, as uint8 0/1, without the product: the one reader of a
        product at given degrees, so mul_dilated_at([0], 1, outer, degrees)
        reads (sum_o q^o) * f.

        Degree factor*m + j of the inner product is bit m of class row j
        (_class_rows), so coefficient n XORs bit (n - o - j) / factor of row
        j over the outer o <= n - j with o == n - j (mod factor). For the o
        of one residue r that is a sparse read of row j, with exponents
        o // factor, at the degrees (n - j - r) / factor of the n == j + r.
        Each row is read and dropped before the next is built, so no
        temporary is longer than N / factor bits.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        if len(degrees) and degrees.min() < 0:
            raise ValueError("degrees must be non-negative")
        trunc_len = int(degrees.max(initial=0)) + 1
        inner = self._checked(exponents, factor, trunc_len)
        outer = _exponent_array(outer)
        by_residue = [outer[outer % factor == r] // factor for r in range(factor)]
        residues = degrees % factor
        out = np.zeros(len(degrees), dtype=np.uint8)
        for j, row in self._class_rows(inner, factor, trunc_len):
            for r, part in enumerate(by_residue):
                at = np.flatnonzero((residues == (j + r) % factor) & (degrees >= j + r))
                if len(at) and len(part):
                    out[at] ^= _sparse_gather(row.view(np.uint8), part, (degrees[at] - j - r) // factor)
            del row  # before the next row is built
        return out

    def _checked(self, exponents: Iterable[int], factor: int, trunc_len: int) -> np.ndarray:
        """The exponents of a product by f(q^factor) to trunc_len, validated."""
        if factor < 1:
            raise ValueError("dilation factor must be positive")
        if trunc_len > factor * self.trunc_len:
            raise ValueError("cannot extend a truncated series")
        return _exponent_array(exponents)

    def _class_rows(self, support: np.ndarray, factor: int, trunc_len: int) -> Iterator[tuple[int, np.ndarray]]:
        """(j, F_j * self) for each class j < factor that holds exponents.

        The sparse factor is sum_{j<factor} q^j F_j(q^factor), and F_j *
        self is taken undilated, to ceil((trunc_len - j) / factor) terms, as
        the words of the XOR loop; bits at and above that length are junk.
        The generator keeps no row, so a caller that drops each row holds
        one at a time.
        """
        for j in range(min(factor, trunc_len)):
            part = support[support % factor == j] // factor
            if len(part):
                n = -(-(trunc_len - j) // factor)
                yield j, _mul_words(part, self._words[: _nwords(n)])

    def truncate(self, new_len: int) -> Gf2Series:
        if new_len > self.trunc_len:
            raise ValueError("cannot extend a truncated series")
        if new_len == self.trunc_len:
            return self
        return Gf2Series._of_words(new_len, self._words[: _nwords(new_len)].copy())

    def extract(self, step: int, offset: int) -> Gf2Series:
        """Decimate: coefficient m of the result is coefficient step*m+offset.

        The result keeps every source degree below trunc_len, so its length
        is ceil((trunc_len - offset) / step). Output bit 8i + b is source bit
        step*(8i + b) + offset, so bit b of every output byte is one strided
        byte read of the source, eight reads in all, with no array of bits.
        """
        if step < 1:
            raise ValueError("step must be >= 1")
        if not 0 <= offset < self.trunc_len:
            raise ValueError(f"offset {offset} outside 0..{self.trunc_len - 1}")
        out_len = (self.trunc_len - offset + step - 1) // step
        src = self._words.view(np.uint8)
        out = np.zeros(8 * _nwords(out_len), dtype=np.uint8)
        for bit in range(8):
            first = step * bit + offset
            read = src[first >> 3 :: step][: len(out)]
            out[: len(read)] |= ((read >> (first & 7)) & 1) << bit
        return Gf2Series._of_words(out_len, out.view("<u8"))
