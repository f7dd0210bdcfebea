import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import int_series, ref_dilate, ref_eta, ref_inverse, ref_mul, set_bits
from oddmult import gf2series
from oddmult.etaq import EtaQuotient, pentagonal_exponents, triangular_exponents
from oddmult.gf2series import Gf2Series


def series(trunc, *exponents):
    return Gf2Series.from_support(exponents, trunc)


def convolution(a: Gf2Series, b: Gf2Series) -> Gf2Series:
    """Independent quadratic convolution, bit by bit."""
    n = a.trunc_len
    out = 0
    for i in a.support():
        for j in b.support():
            if i + j < n:
                out ^= 1 << (i + j)
    return int_series(n, out)


def bits_of(exponents) -> int:
    return sum(1 << e for e in set(exponents))


def to_int(s: Gf2Series) -> int:
    """The coefficients of s as one Python int, bit k for q^k."""
    return int.from_bytes(np.packbits(s.to_bit_array(), bitorder="little").tobytes(), "little")


def times(a: Gf2Series, b: Gf2Series) -> Gf2Series:
    """a * b through the kernel, a's support as the sparse factor."""
    return b.mul_dilated(a.support(), 1, b.trunc_len)


# -- construction ------------------------------------------------------------


def test_from_support_pentagonal():
    # k(3k-1)/2 for k in -2..2: 0, 1, 2, 5, 7
    pent = sorted(k * (3 * k - 1) // 2 for k in range(-2, 3))
    assert series(8, *pent).support() == [0, 1, 2, 5, 7]


def test_from_support_triangular():
    tri = [k * (k + 1) // 2 for k in range(5)]
    assert series(11, *tri).support() == [0, 1, 3, 6, 10]


def test_from_support_k_3k_minus_2():
    vals = sorted(k * (3 * k - 2) for k in range(-1, 3))
    assert series(9, *vals).support() == [0, 1, 5, 8]


def test_from_support_drops_out_of_range():
    assert series(5, 0, 4, 5, 100).support() == [0, 4]


@pytest.mark.parametrize("n", [64, 65, 127, 129, 4097, 65537, 100_003])
def test_from_support_and_support_at_word_edges(n):
    last_word = n // 64 * 64 if n % 64 else n - 64  # first degree of the last word
    edges = sorted(e for e in {0, 63, 64, 65, last_word, n - 1} if e < n)
    s = series(n, *edges, n, n + 1, n + 64, 10**30)
    assert s.support() == edges
    assert s == int_series(n, bits_of(edges))
    assert s.odd_count() == len(edges)
    with pytest.raises(ValueError):
        series(n, 0, n - 1, n - 1)
    with pytest.raises(ValueError):
        series(n, -1, 64)


@pytest.mark.parametrize("n", [100, 4097, 100_003])
def test_support_of_dense_series(n):
    s = int_series(n, random.Random(n).getrandbits(n))
    assert s.support() == np.flatnonzero(s.to_bit_array()).tolist()
    assert Gf2Series.from_support(s.support(), n) == s


@pytest.mark.parametrize("n", [100, 4097])
def test_to_bit_array_window(n):
    value = random.Random(n).getrandbits(n)
    s = int_series(n, value)
    rng = random.Random(n + 1)
    windows = [(0, n), (0, 0), (n, n), (1, 9), (63, 65), (7, n)]
    windows += [tuple(sorted((rng.randrange(n + 1), rng.randrange(n + 1)))) for _ in range(50)]
    for lo, hi in windows:
        assert s.to_bit_array(lo, hi).tolist() == [value >> k & 1 for k in range(lo, hi)], (lo, hi)
    for lo, hi in [(-1, 5), (5, 4), (0, n + 1)]:
        with pytest.raises(ValueError):
            s.to_bit_array(lo, hi)


def test_sparse_support_validation():
    # mul_dilated and from_support validate a sparse factor's exponents alike
    one = Gf2Series.from_support([0], 16)
    for check in (lambda e: one.mul_dilated(e, 1, 16), lambda e: Gf2Series.from_support(e, 16)):
        with pytest.raises(ValueError):
            check([3, -1])
        with pytest.raises(ValueError):
            check([2, 2])
        assert check([5, 1, 3]).support() == [1, 3, 5]
        with pytest.raises(ValueError, match="^support exponents must be non-negative$"):
            check(iter([4, -2, -2]))
        # the first repeat in ascending order is named
        with pytest.raises(ValueError, match="^duplicate exponent 3 in support$"):
            check(np.array([7, 3, 9, 7, 3]))
        assert check(e for e in (9, 0, 4)).support() == [0, 4, 9]
        assert check([]).is_zero()


def test_from_support_drops_exponents_past_the_truncation_before_validating():
    assert series(10, 9, 10, 10, 2**64, 10**30).support() == [9]
    for bad in ([1, 1, 12], [-1, 12]):
        with pytest.raises(ValueError):
            series(10, *bad)


def test_trunc_len_must_be_positive():
    with pytest.raises(ValueError):
        int_series(0)


# -- add ---------------------------------------------------------------------


def test_add_self_inverse():
    one_q = series(4, 0, 1)
    assert (one_q + one_q).is_zero()


def test_add_is_xor():
    assert series(4, 0, 1) + series(4, 1, 2) == series(4, 0, 2)


def test_add_eq11_identity():
    # f1^3 = f3 + q f9^3 at truncation 20
    f1_cubed = EtaQuotient.of({1: 3}).eval(20)
    f3 = EtaQuotient.of({3: 1}).eval(20)
    f9_cubed = EtaQuotient.of({9: 3}).eval(20)
    assert f3 + f9_cubed.mul_dilated([1], 1, 20) == f1_cubed


def test_add_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        series(4, 0) + series(5, 0)


# -- sparse times dense: mul_dilated at factor 1 -------------------------------


def test_mul_frobenius_on_binomial():
    one_q = series(4, 0, 1)
    assert one_q.mul_dilated([0, 1], 1, 4) == series(4, 0, 2)


def test_mul_inverse_is_one():
    # the plan's P = 1/f1 times f1, and P against the reference inverse
    p = EtaQuotient.of({1: -1}).eval(64)
    assert p.mul_dilated(pentagonal_exponents(64), 1, 64) == series(64, 0)
    assert p == int_series(64, ref_inverse([ref_eta(1, 64)], 64))


def test_mul_eq22_identity():
    # f1^3 f3^3 = f1^12 + q f3^12 at truncation 50
    lhs = EtaQuotient.of({1: 3}).eval(50).mul_dilated(triangular_exponents(50, 3), 1, 50)
    rhs = EtaQuotient.of({1: 12}).eval(50) + EtaQuotient.of({3: 12}).eval(50).mul_dilated([1], 1, 50)
    assert lhs == rhs


def test_mul_matches_reference_convolution():
    rng = random.Random(20260810)
    for _ in range(200):
        n = rng.randrange(1, 80)
        a = int_series(n, rng.getrandbits(n))
        b = int_series(n, rng.getrandbits(n))
        assert times(a, b) == convolution(a, b)
        assert times(b, a) == convolution(a, b)


WORD_PATH_LENGTHS = [65535, 65536, 65537, 100_003]


@pytest.mark.parametrize("n", WORD_PATH_LENGTHS)
def test_mul_word_path_matches_shift_xor(n):
    rng = random.Random(n)
    sparse = bits_of([0, 63, 64, 65, n - 1] + [rng.randrange(n) for _ in range(60)])
    dense = rng.getrandbits(n)
    expected = int_series(n, ref_mul(sparse, dense, n))
    assert int_series(n, dense).mul_dilated(set_bits(sparse), 1, n) == expected
    assert int_series(n, sparse).mul_dilated(set_bits(dense), 1, n) == expected
    # the top exponent keeps only the constant term of the other operand
    assert int_series(n, dense).mul_dilated([n - 1], 1, n).support() == [n - 1] * (dense & 1)


@pytest.mark.parametrize("n", WORD_PATH_LENGTHS)
def test_mul_word_path_matches_reference_convolution(n):
    rng = random.Random(n + 1)
    a = series(n, 0, n - 1, *rng.sample(range(1, n - 1), 30))
    b = series(n, 1, 64, *rng.sample(range(65, n), 40))
    assert times(a, b) == convolution(a, b)
    assert times(b, a) == convolution(a, b)


@pytest.mark.parametrize("n", WORD_PATH_LENGTHS)
def test_mul_word_path_drops_bits_above_truncation(n):
    rng = random.Random(n + 2)
    sparse = bits_of([0, 5, 64, n - 1])
    dense = rng.getrandbits(n + 200)
    assert dense >> n
    # the stored words hold no bit at or above n, in the last word too
    stored = int_series(n, dense)._words
    assert int.from_bytes(stored.tobytes(), "little") == dense & ((1 << n) - 1)
    expected = int_series(n, ref_mul(sparse, dense & ((1 << n) - 1), n))
    assert int_series(n, dense).mul_dilated(set_bits(sparse), 1, n) == expected
    assert int_series(n, sparse).mul_dilated(set_bits(dense & ((1 << n) - 1)), 1, n) == expected


@pytest.mark.parametrize("n", WORD_PATH_LENGTHS)
def test_mul_word_path_zero_operand(n):
    dense = int_series(n, random.Random(n + 3).getrandbits(n))
    zero = int_series(n)
    assert dense.mul_dilated([], 1, n).is_zero() and zero.mul_dilated(dense.support(), 1, n).is_zero()
    assert zero.mul_dilated([], 1, n).is_zero()


@pytest.mark.parametrize("n", WORD_PATH_LENGTHS)
def test_mul_word_path_many_exponents_in_one_word(n):
    rng = random.Random(n + 4)
    full_word = ((1 << 64) - 1) << 640  # every residue mod 64 once, one word
    sparse = full_word | bits_of(rng.sample(range(1280, 1344), 20))
    dense = rng.getrandbits(n)
    expected = ref_mul(sparse, dense, n)
    assert int_series(n, dense).mul_dilated(set_bits(sparse), 1, n) == int_series(n, expected)


# the residues mod 8 of a sparse factor's exponents: by Horner's rule the
# accumulator moves up once per gap between the residues present, and to 0
RESIDUE_PATTERNS = {"none": (), "0": (0,), "7": (7,), "0 and 7": (0, 7), "all": tuple(range(8))}


@pytest.mark.parametrize("pattern", RESIDUE_PATTERNS)
@pytest.mark.parametrize("gather, nwords", [(1, 14), (5, 14), (5, 15), (1 << 14, 2 * (1 << 14) + 3)])
def test_mul_word_path_shifts_in_place_across_chunk_edges(monkeypatch, pattern, gather, nwords):
    # the accumulator moves up a chunk of _GATHER words at a time, top chunk
    # first, so bits cross from each chunk's lowest word into the chunk above
    monkeypatch.setattr(gf2series, "_GATHER", gather)
    n = 64 * nwords - 3
    rng = random.Random(f"{pattern} {gather} {nwords}")
    offsets = [0, 1, 8, n // 8 - 1, *rng.sample(range(n // 8), 4)]  # e // 8, up to the last whole byte
    exponents = sorted({8 * b + r for r in RESIDUE_PATTERNS[pattern] for b in offsets})
    dense = rng.getrandbits(n) | 1 << 63 | 1 << (64 * gather - 1)  # bits that spill into the next word and chunk
    expected = int_series(n, ref_mul(bits_of(exponents), dense, n))
    assert int_series(n, dense).mul_dilated(exponents, 1, n) == expected, exponents


def test_mul_word_path_holds_one_buffer_as_long_as_its_operand():
    dense = np.random.default_rng(17).integers(0, 2**64, 1 << 17, dtype="<u8", endpoint=False)
    exponents = np.array([8 * 4099 * k + k % 8 for k in range(64)])  # every residue, so every shift runs
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        product = gf2series._mul_words(exponents, dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product.nbytes == dense.nbytes
    assert peak <= 1.5 * dense.nbytes, peak / dense.nbytes


def test_inverse_through_word_path():
    # 1/f1^3 = f1 P(q^4) by the plan, times f1^3 = T(q)
    n = 65537
    inverse = EtaQuotient.of({1: -3}).eval(n)
    assert inverse.mul_dilated(triangular_exponents(n), 1, n) == series(n, 0)


# -- square: the Frobenius map f(q)^2 = f(q^2) is mul_dilated([0], 2, n) -----


def test_square_binomial():
    assert series(4, 0, 1).mul_dilated([0], 2, 4) == series(4, 0, 2)


def test_square_equals_self_product():
    f3 = EtaQuotient.of({3: 1}).eval(40)
    assert f3.mul_dilated([0], 2, 40) == times(f3, f3)


def test_triple_square_is_eighth_power():
    f3 = EtaQuotient.of({3: 1}).eval(200)
    by_squares = f3
    for _ in range(3):
        by_squares = by_squares.mul_dilated([0], 2, 200)
    by_products = series(200, 0)
    for _ in range(8):
        by_products = times(f3, by_products)
    assert by_squares == by_products


# -- the Python-int reference of tests/conftest.py ---------------------------


def test_inverse_of_one():
    assert ref_inverse([1], 6) == 1
    assert ref_inverse([], 6) == 1


def test_inverse_geometric_series():
    # 1/(1+q) = 1 + q + q^2 + ...
    assert set_bits(ref_inverse([0b11], 6)) == [0, 1, 2, 3, 4, 5]


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError, match="not invertible"):
        ref_inverse([0b10], 6)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4097, 100_003])
def test_newton_lifting_doubles_every_step(monkeypatch, n):
    # the reference inverse lifts 1 -> n coefficients in ceil(log2(n))
    # doublings, one dilation by 2 each, and agrees with the plan's 1/f1
    steps = []
    real_dilate = conftest.ref_dilate

    def counting_dilate(a, d, k):
        steps.append(k)
        return real_dilate(a, d, k)

    monkeypatch.setattr(conftest, "ref_dilate", counting_dilate)
    f1 = ref_eta(1, n)
    inverse = ref_inverse([f1], n)
    assert steps == [min(2**i, n) for i in range(1, (n - 1).bit_length() + 1)]
    assert ref_mul(f1, inverse, n) == 1
    assert EtaQuotient.of({1: -1}).eval(n) == int_series(n, inverse)


# -- sparse times dilated, one residue class at a time -----------------------


SPLIT_CASES = [
    (s, n)
    for s in (1, 2, 3, 4, 6, 8, 24)
    for n in sorted({1, s - 1, 63, 64, 65, 4097, 65_541, 100_003} - {0})
]


@pytest.mark.parametrize("s, n", SPLIT_CASES)
def test_mul_dilated_matches_product_with_dilated_copy(s, n):
    dense = EtaQuotient.of({1: -1}).eval(-(-n // s) + 70)  # longer than needed
    sparse_factors = {
        "1": [0],  # plain dilation, one class
        "f1": pentagonal_exponents(n),
        "f3": pentagonal_exponents(n, 3),  # empty classes under s = 3, 6, 24
        "f24": pentagonal_exponents(n, 24),  # empty classes under every s here
        "q^(s-1) T(q^2)": [s - 1 + e for e in triangular_exponents(n - s + 1, 2)],
    }
    for name, exponents in sparse_factors.items():
        got = dense.mul_dilated(exponents, s, n)
        assert got.trunc_len == n
        assert got == int_series(n, ref_mul(bits_of(exponents), ref_dilate(to_int(dense), s, n), n)), (name, s, n)
        assert got == dense.truncate(-(-n // s)).mul_dilated(exponents, s, n), (name, s, n)
        assert got == dense.mul_dilated(exponents + [n, n + s + 1], s, n), (name, s, n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_factor_one_is_the_plain_product_without_a_scatter(data):
    # lengths 0, 1 and 63 mod 64, operands longer than the product, exponents
    # at and past the truncation, and the empty factor
    n = 64 * data.draw(st.integers(1, 3)) - data.draw(st.sampled_from([0, 63, 1]))
    m = n + data.draw(st.integers(0, 70))
    dense = data.draw(st.integers(0, (1 << m) - 1))
    exponents = sorted(data.draw(st.sets(st.integers(0, n + 70), max_size=24)))

    def forbidden(*args):
        raise AssertionError("a factor-1 product must not scatter")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2series, "_scatter", forbidden)
        got = int_series(m, dense).mul_dilated(exponents, 1, n)
        empty = int_series(m, dense).mul_dilated([], 1, n)
    assert got.trunc_len == n and got == int_series(n, ref_mul(bits_of(exponents), dense, n))
    assert empty.trunc_len == n and empty.is_zero()


def scatter_reference(words, factor, offset, out):
    """out with bit factor*k + offset set for each set bit k of words, one
    bit at a time; targets past the end of out are dropped."""
    spread = np.unpackbits(out, bitorder="little")
    for k in np.flatnonzero(np.unpackbits(words.view(np.uint8), bitorder="little")).tolist():
        if factor * k + offset < len(spread):
            spread[factor * k + offset] = 1
    return np.packbits(spread, bitorder="little")


@pytest.mark.parametrize("factor, offset", [(f, j) for f in range(1, 10) for j in range(f)])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_scatter_matches_a_bit_by_bit_spread(factor, offset, data):
    # sources shorter and longer than the output's groups, output lengths
    # off a multiple of the factor, and several gather chunks
    nwords = data.draw(st.integers(1, 6))
    nout = data.draw(st.integers(1, factor * 8 * nwords + 3 * factor))
    gather = data.draw(st.sampled_from([1, 3, 8, 1 << 14]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    words = rng.integers(0, 2**64, nwords, dtype="<u8", endpoint=False)
    if data.draw(st.booleans()):
        words[:] = ~np.uint64(0)
    out = rng.integers(0, 256, nout, dtype=np.uint8)
    want = scatter_reference(words, factor, offset, out.copy())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2series, "_GATHER", gather)
        gf2series._scatter(words, factor, offset, out)
    assert np.array_equal(out, want), (factor, offset, nwords, nout, gather)


@pytest.mark.parametrize("factor, offset, nout", [(1, 0, 20_000), (3, 2, 3 * 17_000 + 2), (7, 4, 7 * 2049 * 8 + 5)])
def test_scatter_past_one_gather_chunk(factor, offset, nout):
    words = np.random.default_rng(factor).integers(0, 2**64, 2049, dtype="<u8", endpoint=False)
    assert 8 * len(words) > gf2series._GATHER
    out = np.zeros(nout, dtype=np.uint8)
    want = scatter_reference(words, factor, offset, out.copy())
    gf2series._scatter(words, factor, offset, out)
    assert np.array_equal(out, want)


def test_mul_dilated_rejects_extension_and_bad_factor():
    with pytest.raises(ValueError, match="cannot extend"):
        series(10, 0).mul_dilated([0], 3, 31)
    with pytest.raises(ValueError):
        series(10, 0).mul_dilated([0], 0, 10)
    with pytest.raises(ValueError, match="non-negative"):
        series(10, 0).mul_dilated([-3, 1], 3, 30)
    assert series(10, 0).mul_dilated([1, 29], 3, 30) == series(30, 1, 29)


def test_factor_one_product_drives_by_its_exponents():
    dense = EtaQuotient.of({1: -1}).eval(4097)
    sparse = EtaQuotient.of({5: 1}).eval(4097)
    product = int_series(4097, ref_mul(to_int(sparse), to_int(dense), 4097))
    assert dense.mul_dilated(sparse.support(), 1, 4097) == product == sparse.mul_dilated(dense.support(), 1, 4097)
    # exponents at or past the truncation add nothing
    assert dense.mul_dilated(sparse.support() + [4097, 4160, 5000, 10**6], 1, 4097) == product
    with pytest.raises(ValueError, match="duplicate"):
        dense.mul_dilated([5, 5], 1, 4097)


# -- coefficients of a sparse product, read without forming it ---------------
# mul_dilated_at([0], 1, exponents, degrees) reads (sum_e q^e) * dense.


def sampled_reference(dense, exponents, degrees):
    product = ref_mul(bits_of(exponents), to_int(dense), dense.trunc_len)
    return np.array([product >> n & 1 for n in degrees], dtype=np.uint8)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 4097, 100_003])
@pytest.mark.parametrize("gather", [1, 1 << 14])
def test_sparse_product_at_matches_the_product(monkeypatch, n, gather):
    monkeypatch.setattr("oddmult.gf2series._GATHER", gather)  # 1: one degree per chunk
    dense = EtaQuotient.of({3: 1, 4: -1}).eval(n)
    rng = random.Random(n)
    edges = {0, 7, 8, 9, 63, 64, 65, n - 9, n - 8, n - 1}
    degrees = sorted(d for d in edges if 0 <= d < n) + [rng.randrange(n) for _ in range(300)]
    exponent_sets = {
        "1": [0],
        "f1": pentagonal_exponents(n),
        # every residue mod 8, exponents above most degrees, and past the truncation
        "mixed": sorted({0, 1, 5, 7, 8, 15, 62, 63, 64, 65, 71, n - 2, n - 1, n, n + 3} - {-1, -2}),
        "none": [],
    }
    for name, exponents in exponent_sets.items():
        got = dense.mul_dilated_at([0], 1, exponents, degrees)
        assert got.dtype == np.uint8 and got.shape == (len(degrees),)
        assert np.array_equal(got, sampled_reference(dense, exponents, degrees)), (name, n)
    assert dense.mul_dilated_at([0], 1, [0], degrees).tolist() == [dense[d] for d in degrees]
    assert dense.mul_dilated_at([0], 1, [0, 1], []).shape == (0,)


def per_degree_reference(dense, exponents, degrees):
    """Coefficient n of (sum_e q^e) * dense for each n, by its own sum."""
    out = []
    for n in degrees:
        out.append(sum(dense[n - e] for e in exponents if e <= n) & 1)
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_product_at_matches_a_per_degree_sum(data):
    # unsorted and repeated degrees, exponents above the degrees, residues
    # mod 8 with no exponent, and more degrees than one gather chunk holds
    n = data.draw(st.integers(1, 300))
    dense = int_series(n, data.draw(st.integers(0, (1 << n) - 1)))
    empty = data.draw(st.sets(st.integers(0, 7), max_size=7))
    exponents = [e for e in data.draw(st.sets(st.integers(0, n + 40), max_size=40)) if e % 8 not in empty]
    degrees = data.draw(st.lists(st.integers(0, n - 1), max_size=80))
    degrees += data.draw(st.lists(st.sampled_from(degrees), max_size=10)) if degrees else []
    gather = data.draw(st.sampled_from([1, 5, 1 << 14]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2series, "_GATHER", gather)
        got = dense.mul_dilated_at([0], 1, exponents, degrees)
    assert got.tolist() == per_degree_reference(dense, exponents, degrees)


def test_sparse_product_at_rejects_bad_degrees_and_exponents():
    dense = EtaQuotient.of({1: -1}).eval(100)
    for degrees, reason in (([100], "cannot extend"), ([-1], "non-negative"), ([3, 100], "cannot extend")):
        with pytest.raises(ValueError, match=reason):
            dense.mul_dilated_at([0], 1, [0], degrees)
    with pytest.raises(ValueError, match="non-negative"):
        dense.mul_dilated_at([0], 1, [-1], [5])


# -- coefficients of a sparse times a dilated product, one class row at a time --


@pytest.mark.parametrize("factor", [*range(1, 9), 12])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_dilated_at_is_the_sparse_read_of_the_product(factor, data):
    # random sparse factors with empty classes mod factor, rows of one to
    # five words, outer exponents past the degrees, degrees in every residue
    # and below factor (down to N = 1), no degrees at all, and gather chunks
    # of one degree
    m = data.draw(st.integers(1, 300))
    dense = int_series(m, data.draw(st.integers(0, (1 << m) - 1)))
    empty = data.draw(st.sets(st.integers(0, factor - 1), max_size=factor))
    inner = [e for e in data.draw(st.sets(st.integers(0, factor * m + 9), max_size=40)) if e % factor not in empty]
    outer = data.draw(st.sets(st.integers(0, factor * m + 9), max_size=40))
    degrees = data.draw(st.one_of(
        st.lists(st.integers(0, factor * m - 1), max_size=60),
        st.just(list(range(min(2 * factor, factor * m)))),
        st.just([0]),
    ))
    gather = data.draw(st.sampled_from([1, 5, 1 << 14]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf2series, "_GATHER", gather)
        got = dense.mul_dilated_at(inner, factor, outer, degrees)
    want = per_degree_reference(dense.mul_dilated(inner, factor, max(degrees, default=0) + 1), outer, degrees)
    assert got.dtype == np.uint8 and got.tolist() == want


def test_mul_dilated_at_rejects_what_mul_dilated_rejects():
    dense = series(10, 0, 3)
    with pytest.raises(ValueError, match="cannot extend"):
        dense.mul_dilated_at([0], 3, [0], [30])
    with pytest.raises(ValueError, match="positive"):
        dense.mul_dilated_at([0], 0, [0], [5])
    with pytest.raises(ValueError, match="non-negative"):
        dense.mul_dilated_at([0], 3, [0], [-1, 5])
    with pytest.raises(ValueError, match="non-negative"):
        dense.mul_dilated_at([0], 3, [-2], [5])
    assert dense.mul_dilated_at([1], 3, [0, 1], [29, 10, 11]).tolist() == [0, 1, 1]


# -- shape operations --------------------------------------------------------


def test_shift_and_truncate():
    s = series(6, 0, 2)
    assert s.mul_dilated([1], 1, 6).support() == [1, 3]
    assert s.mul_dilated([5], 1, 6).support() == [5]
    assert s.truncate(3).support() == [0, 2]
    with pytest.raises(ValueError):
        s.truncate(7)
    with pytest.raises(ValueError):
        s.mul_dilated([-1], 1, 6)


def test_extract_decimation():
    s = series(10, 0, 2, 4, 5, 8)
    evens = s.extract(2, 0)
    assert evens.trunc_len == 5 and evens.support() == [0, 1, 2, 4]
    odds = s.extract(2, 1)
    assert odds.trunc_len == 5 and odds.support() == [2]
    with pytest.raises(ValueError):
        s.extract(2, 10)
    with pytest.raises(ValueError):
        s.extract(0, 0)


def extract_span(step):
    """A multiple of 8 output coefficients, about 2^20 source bits long."""
    return max(8, (1 << 20) // step // 8 * 8)


@pytest.mark.parametrize("step", [2, 3, 8, 24 * 5, (1 << 20) + 7])
@pytest.mark.parametrize("chunks, delta", [(1, -1), (1, 1), (2, 1)])
def test_extract_by_chunks_matches_bit_array_slice(step, chunks, delta):
    n = chunks * extract_span(step) * step + delta
    s = int_series(n, random.Random(step + delta).getrandbits(n))
    for offset in (0, step - 1):
        want = s.to_bit_array()[offset::step]
        got = s.extract(step, offset)
        assert got.trunc_len == len(want)
        assert np.array_equal(got.to_bit_array(), want), (step, offset)


def test_getitem_and_iter():
    s = series(5, 1, 3)
    assert [s[i] for i in range(5)] == [0, 1, 0, 1, 0]
    assert list(s) == [0, 1, 0, 1, 0]
    with pytest.raises(IndexError):
        s[5]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 4097])
def test_queries_and_shape_at_word_edges(n):
    bits = random.Random(n + 5).getrandbits(n) | 1 | 1 << (n - 1)
    s = int_series(n, bits)
    assert [s[i] for i in range(n)] == [bits >> i & 1 for i in range(n)]
    for outside in (-1, n):
        with pytest.raises(IndexError):
            s[outside]
    for upto in sorted({0, 1, 32, 63, 64, 65, 96, n - 1, n, n + 1}):
        assert s.odd_count(upto) == (bits & ((1 << min(upto, n)) - 1)).bit_count(), upto
    for k in sorted({0, 1, 63, 64, 65, n - 1, n, n + 64}):
        assert s.mul_dilated([k], 1, n) == int_series(n, bits << k), k
    for m in sorted({1, 63, 64, 65, n - 1, n} & set(range(1, n + 1))):
        assert s.truncate(m) == int_series(m, bits), m
        assert s.truncate(m).odd_count() == (bits & ((1 << m) - 1)).bit_count(), m
    assert s == int_series(n, bits)  # no operation above wrote into s
    assert not int_series(n, 1 << (n - 1)).is_zero() and int_series(n).is_zero()


def test_stored_words_are_read_only():
    s = int_series(200, (1 << 200) - 1)
    t = series(200, 0, 3, 150)
    for made in (
        s, t, series(64, 0), s + t, s.mul_dilated([0, 3], 1, 200), s.mul_dilated([0, 5], 3, 200),
        s.mul_dilated([5], 1, 200), s.truncate(130), s.truncate(128), s.extract(1, 3), s.extract(3, 1),
    ):
        with pytest.raises(ValueError, match="read-only"):
            made._words[0] = 0
    assert s == int_series(200, (1 << 200) - 1)


def test_odd_count_prefix():
    s = series(10, 0, 3, 7, 9)
    assert s.odd_count() == 4
    assert s.odd_count(upto=4) == 2
    assert s.odd_count(upto=100) == 4
    with pytest.raises(ValueError):
        s.odd_count(-1)
    # odd_count unpacks 8 * _GATHER bits at a time: counts at the chunk edges
    chunk = 8 * gf2series._GATHER
    n = 2 * chunk + 77
    bits = random.Random(n).getrandbits(n)
    s = int_series(n, bits)
    for upto in (0, chunk - 1, chunk, chunk + 1, n - 1, n):
        assert s.odd_count(upto) == (bits & ((1 << upto) - 1)).bit_count(), upto
    with pytest.raises(ValueError):
        s.odd_count(-1)


def test_equality_and_hash():
    assert series(5, 1) == series(5, 1)
    assert series(5, 1) != series(6, 1)
    assert (series(1, 0) == 1) is False  # not a series: left to the int, then to identity
    with pytest.raises(TypeError, match="unhashable"):
        hash(series(5, 1))


# -- algebraic laws ----------------------------------------------------------


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    n = data.draw(st.integers(1, 192))
    bits = st.integers(0, (1 << n) - 1)
    a = int_series(n, data.draw(bits))
    b = int_series(n, data.draw(bits))
    c = int_series(n, data.draw(bits))
    assert times(a, b) == times(b, a) == int_series(n, ref_mul(to_int(a), to_int(b), n))
    assert times(times(a, b), c) == times(a, times(b, c))
    assert times(a, b + c) == times(a, b) + times(a, c)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_is_self_product(data):
    n = data.draw(st.integers(1, 256))
    bits = data.draw(st.integers(0, (1 << n) - 1))
    a = int_series(n, bits)
    assert a.mul_dilated([0], 2, n) == times(a, a) == int_series(n, ref_dilate(bits, 2, n))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_inverse_round_trip(data):
    # the reference inverse, checked by the reference product and by the kernel
    n = data.draw(st.integers(1, 256))
    a = data.draw(st.integers(0, (1 << n) - 1)) | 1
    inverse = ref_inverse([a], n)
    assert ref_mul(a, inverse, n) == 1
    assert int_series(n, a).mul_dilated(set_bits(inverse), 1, n) == series(n, 0)
