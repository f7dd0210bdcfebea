import random
import re
from collections import Counter

import pytest

from conftest import int_series, ref_eta, ref_inverse, ref_mul, reference_eval
from oracles import pentagonal_exponents_loop, triangular_exponents_loop
from oddmult import etaq
from oddmult.etaq import (
    A_PARITY_QUOTIENT,
    DISSECTION_CLASSES,
    EtaQuotient,
    a_parity_at,
    a_parity_series,
    identity_suite,
    pentagonal_exponents,
    triangular_exponents,
)
from oddmult.gf2series import Gf2Series

# parities of a(0..12); a(8)=9 and a(10)=20 pinned by the exact oracle below
A_PARITY_HEAD = [1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0]


def test_pentagonal_exponents_match_formula():
    expected = sorted(
        {k * (3 * k - 1) // 2 for k in range(-20, 21) if k * (3 * k - 1) // 2 < 100}
    )
    assert pentagonal_exponents(100) == expected
    scaled = sorted(
        {3 * (k * (3 * k - 1) // 2) for k in range(-20, 21) if 3 * (k * (3 * k - 1) // 2) < 100}
    )
    assert pentagonal_exponents(100, scale=3) == scaled


def test_triangular_exponents_match_formula():
    assert triangular_exponents(11) == [0, 1, 3, 6, 10]
    assert triangular_exponents(50, scale=2) == [2 * k * (k + 1) // 2 for k in range(7)]


@pytest.mark.parametrize("scale", [1, 2, 3, 4, 6, 9, 24])
def test_exponent_helpers_match_the_term_by_term_loops(scale):
    for n in [*range(-3, 301), 10**6 + 1, 8 * 10**6]:
        # the loop lists 0 even below trunc_len 1; no degree lies below it
        assert pentagonal_exponents(n, scale) == (pentagonal_exponents_loop(n, scale) if n > 0 else []), n
        assert triangular_exponents(n, scale) == triangular_exponents_loop(n, scale), n


def test_exponent_helpers_list_nothing_below_trunc_len_one():
    for n in (0, -1, -5):
        assert pentagonal_exponents(n) == triangular_exponents(n) == []
    assert pentagonal_exponents(1) == triangular_exponents(1) == [0]
    with pytest.raises(ValueError, match="scale"):
        pentagonal_exponents(10, 0)
    with pytest.raises(ValueError, match="scale"):
        triangular_exponents(10, -1)


def test_eval_f1():
    assert EtaQuotient.of({1: 1}).eval(8).support() == [0, 1, 2, 5, 7]


def test_eval_f1_cubed_is_triangular():
    assert EtaQuotient.of({1: 3}).eval(11).support() == [0, 1, 3, 6, 10]


def test_eval_parity_quotient_head():
    got = list(EtaQuotient.of({3: 1, 1: -3}).eval(6))
    assert got == [1, 1, 1, 1, 0, 1]


def test_eval_rejects_bad_truncation():
    with pytest.raises(ValueError):
        EtaQuotient.of({1: 1}).eval(0)
    with pytest.raises(ValueError, match="trunc_len must be >= 1"):
        EtaQuotient.of({1: 1}).plan(0)


def test_quotient_normalization():
    q = EtaQuotient.of([(3, 2), (1, -1), (3, -2), (9, 1)])
    assert q.factors == ((1, -1), (9, 1))
    with pytest.raises(ValueError):
        EtaQuotient.of({0: 1})
    assert str(EtaQuotient.of({3: 8, 1: -3})) == "f3^8 / f1^3"
    assert str(EtaQuotient.of({})) == "1"


def test_eval_distributes_over_concatenation():
    for left, right in [
        ({1: 3}, {3: 1}),
        ({3: 5, 1: -3}, {1: 2}),
        ({1: -1}, {3: 3}),
    ]:
        combined = EtaQuotient.of(list(left.items()) + list(right.items()))
        right_exponents = EtaQuotient.of(right).eval(600).support()
        assert combined.eval(600) == EtaQuotient.of(left).eval(600).mul_dilated(right_exponents, 1, 600)


def test_a_parity_head_matches_oracle(oracle_2000):
    parity = a_parity_series(13)
    assert [oracle_2000[n] & 1 for n in range(13)] == A_PARITY_HEAD
    assert list(parity) == A_PARITY_HEAD


def test_a_parity_known_values():
    parity = a_parity_series(6)
    assert parity[0] == 1  # a(0) = 1
    assert parity[5] == 1  # a(5) = 5


def test_dissection_examples():
    assert DISSECTION_CLASSES["2m"][2].eval(4)[1] == 1  # a(2) = 1
    assert DISSECTION_CLASSES["4m+1"][2].eval(4)[1] == 1  # a(5) = 5
    assert DISSECTION_CLASSES["8m+3"][2].eval(4)[0] == 1  # a(3) = 3


@pytest.mark.parametrize("tag", sorted(DISSECTION_CLASSES))
def test_dissection_both_routes_agree(tag):
    step, offset, quotient = DISSECTION_CLASSES[tag]
    length = 10_000 // step
    assert quotient.eval(length) == a_parity_series(step * length).extract(step, offset)


@pytest.mark.parametrize("tag", sorted(DISSECTION_CLASSES))
def test_dissection_matches_parity_series_directly(tag, parity_10k):
    step, offset, quotient = DISSECTION_CLASSES[tag]
    closed = quotient.eval(500)
    for m in range(500):
        assert closed[m] == parity_10k[step * m + offset], (tag, m)


def test_identity_suite_small():
    for name, lhs, rhs in identity_suite(2000):
        assert lhs == rhs, name


def test_identity_names_are_distinct():
    names = [name for name, _, _ in identity_suite(16)]
    assert len(names) == len(set(names)) == 8


@pytest.mark.parametrize("limit", [1, 2, 7, 8, 9, 100, 5000, 2**16 + 3])
def test_a_parity_at_matches_extraction(limit):
    # the 8m+7 cross-check of density_8m7: its own sample, plus both ends
    m = sorted(set(random.Random(0x0DD).sample(range(limit), min(1000, limit))) | {0, limit - 1})
    extracted = a_parity_series(8 * limit).extract(8, 7).to_bit_array()
    got = a_parity_at([8 * i + 7 for i in m])
    assert got.tolist() == extracted[m].tolist()


def test_a_parity_at_reads_any_degrees(oracle_2000):
    degrees = [2000, 0, 1, 7, 8, 1999, 64, 63, 5, 5]
    assert a_parity_at(degrees).tolist() == [oracle_2000[n] & 1 for n in degrees]
    assert a_parity_at([]).shape == (0,)


def test_parity_series_cached_value_is_consistent():
    # same truncation twice: identical object is fine, equal value is required
    assert a_parity_series(128) == a_parity_series(128)
    assert isinstance(a_parity_series(128), Gf2Series)


@pytest.mark.parametrize("first, then", [(5000, 1234), (1234, 5000), (777, 777), (4097, 64)])
def test_parity_series_after_another_length_matches_fresh_eval(monkeypatch, first, then):
    monkeypatch.setattr(etaq, "_longest", {})
    a_parity_series(first)
    got = a_parity_series(then)
    fresh = A_PARITY_QUOTIENT.eval(then)
    assert got.trunc_len == fresh.trunc_len == then
    assert got == fresh


def test_parity_series_truncation_leaves_the_cached_series_intact(monkeypatch):
    monkeypatch.setattr(etaq, "_longest", {})
    longest = a_parity_series(5000)
    for n in (4999, 4097, 100, 1):  # each clears bits inside a word the cache shares
        assert a_parity_series(n) == A_PARITY_QUOTIENT.eval(n), n
    assert a_parity_series(5000) is longest
    assert longest == A_PARITY_QUOTIENT.eval(5000)
    with pytest.raises(ValueError, match="read-only"):
        longest._words[-1] = 0


def test_parity_series_builds_only_past_the_longest(monkeypatch):
    built = []

    class CountingQuotient:
        def eval(self, trunc_len):
            built.append(trunc_len)
            return A_PARITY_QUOTIENT.eval(trunc_len)

    monkeypatch.setattr(etaq, "_longest", {})
    monkeypatch.setattr(etaq, "A_PARITY_QUOTIENT", CountingQuotient())
    for n in (300, 100, 2000, 2000, 5, 1999, 4096, 1, 300):
        assert a_parity_series(n) == A_PARITY_QUOTIENT.eval(n), n
    assert built == [300, 2000, 4096]


def test_parity_series_past_the_longest_builds_exactly_the_request(monkeypatch):
    built = []

    class CountingQuotient:
        def eval(self, trunc_len):
            built.append(trunc_len)
            return A_PARITY_QUOTIENT.eval(trunc_len)

    monkeypatch.setattr(etaq, "_longest", {})
    monkeypatch.setattr(etaq, "A_PARITY_QUOTIENT", CountingQuotient())
    for n in (1000, 1001, 1999, 2000, 2001, 9000, 5):
        assert a_parity_series(n) == A_PARITY_QUOTIENT.eval(n), n
    assert built == [1000, 1001, 1999, 2000, 2001, 9000]
    # P and the parity series are held side by side: a longer P leaves the parity series in place
    held = etaq._longest["parity"]
    assert etaq._longest["P"].trunc_len < 50_000
    assert etaq._inverse_f1(50_000).trunc_len == etaq._longest["P"].trunc_len == 50_000
    assert etaq._longest["parity"] is held and a_parity_series(9000) is held


def test_parity_series_rejects_empty_truncation_after_a_build():
    a_parity_series(64)
    with pytest.raises(ValueError):
        a_parity_series(0)


# -- the evaluation plan against the Python-int reference ---------------------


def reference(quotient, trunc_len):
    """reference_eval of tests/conftest.py as a series, to compare with eval."""
    return int_series(trunc_len, reference_eval(quotient, trunc_len))


def test_reference_matches_the_definition(oracle_2000):
    # the reference's parity series against the exact a(n), its f1 against
    # the product (1 + q)(1 + q^2)... itself, and its inverse against f1
    bits = reference_eval(A_PARITY_QUOTIENT, 2001)
    assert [bits >> n & 1 for n in range(2001)] == [oracle_2000[n] & 1 for n in range(2001)]
    product = 1
    for i in range(1, 300):
        product = ref_mul(product, 1 | 1 << i, 300)
    assert ref_eta(1, 300) == product
    for n in (1, 2, 64, 4099):
        f1 = ref_eta(1, n)
        assert ref_mul(ref_inverse([f1], n), f1, n) == 1, n


def random_quotients(seed, count, max_scale=24, max_exponent=16):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        factors = [(rng.randint(1, max_scale), rng.randint(-max_exponent, max_exponent))
                   for _ in range(rng.randint(1, 4))]
        out.append(EtaQuotient.of(factors))
    return out


def denominator_scales(quotient):
    """How many odd scales keep a negative exponent once every f_r is folded
    into f_s^(r/s), s the odd part of r (mod 2, f_r^2 = f_2r)."""
    folded = Counter()
    for r, e in quotient.factors:
        s = r
        while s % 2 == 0:
            s //= 2
        folded[s] += e * (r // s)
    return sum(e < 0 for e in folded.values())


@pytest.mark.parametrize("trunc_len", [1, 7, 64, 1000, 4099])
def test_plan_matches_reference_on_random_quotients(monkeypatch, trunc_len):
    monkeypatch.setattr(etaq, "_longest", {})
    for quotient in random_quotients(trunc_len, 40):
        if denominator_scales(quotient) > 1:
            for run in (quotient.plan, quotient.eval):
                with pytest.raises(ValueError, match=re.escape(str(quotient))):
                    run(trunc_len)
            continue
        # t > 0 exactly when one odd scale stays in the denominator; the first
        # factor has the most terms and the rest ascend by (terms, scale)
        t, factors = quotient.plan(trunc_len)
        assert (t > 0) == (denominator_scales(quotient) == 1), quotient
        lengths = [len(e) for _, e in factors]
        assert lengths[:1] == sorted(lengths)[-1:], quotient
        assert factors[1:] == sorted(factors[1:], key=lambda f: (len(f[1]), f[0])), quotient
        got = quotient.eval(trunc_len)
        assert got.trunc_len == trunc_len, quotient
        assert got == reference(quotient, trunc_len), quotient


@pytest.mark.parametrize("trunc_len", [65535, 65541])
def test_plan_matches_reference_across_the_word_cutoff(monkeypatch, trunc_len):
    monkeypatch.setattr(etaq, "_longest", {})
    quotients = [q for q in random_quotients(trunc_len, 12) if denominator_scales(q) <= 1] + [
        A_PARITY_QUOTIENT,
        EtaQuotient.of({3: 10, 1: -6}),
    ]
    for quotient in quotients:
        got = quotient.eval(trunc_len)
        assert got.trunc_len == trunc_len
        assert got == reference(quotient, trunc_len), quotient


def test_random_quotients_reach_the_fallback():
    # the random quotients reach both plans (no denominator, one odd scale) and the refusal
    scale_counts = [denominator_scales(q) for n in (1, 7, 64, 1000, 4099) for q in random_quotients(n, 40)]
    assert scale_counts.count(0) and scale_counts.count(1) and max(scale_counts) >= 2


@pytest.mark.parametrize(
    "factors",
    [{1: -3, 3: -2}, {2: -5, 7: -1, 1: 2}, {4: -1, 3: -1, 5: -1}, {1: -1, 5: -1}, {1: -3, 5: -1, 2: 1}, {2: -1, 6: -1}],
)
def test_two_denominator_scales_are_refused(factors):
    # the plan refuses the quotient itself, so eval allocates nothing for it
    quotient = EtaQuotient.of(factors)
    assert denominator_scales(quotient) >= 2
    for n in (1, 50, 5000):
        for run in (quotient.plan, quotient.eval):
            with pytest.raises(ValueError, match=re.escape(f"cannot evaluate {quotient}: its denominator keeps")):
                run(n)


@pytest.mark.parametrize("factors", [{1: -1, 2: -1}, {1: 1, 2: -1}, {1: -3, 2: -2}, {2: -3, 1: -1, 4: 1}])
def test_one_odd_scale_in_the_denominator_evaluates(monkeypatch, factors):
    # 1/(f1 f2) = 1/f1^3 = f1 P(q^4); f1/f2 = 1/f1 = P; 1/(f1^3 f2^2) = 1/f1^7 = f1 P(q^8);
    # f4/(f1 f2^3) = 1/f1^3
    monkeypatch.setattr(etaq, "_longest", {})
    quotient = EtaQuotient.of(factors)
    assert denominator_scales(quotient) == 1
    for n in (1, 63, 64, 65, 5001):
        got = quotient.eval(n)
        assert got.trunc_len == n
        assert got == reference(quotient, n), n


def test_f1_over_f2_is_the_inverse_alone():
    # f1/f2 = 1/f1: the plan is P at q^1 and no sparse factor
    n = 5001
    quotient = EtaQuotient.of({1: 1, 2: -1})
    assert quotient.plan(n) == (1, [])
    assert quotient.eval(n) == etaq._inverse_f1(n) == reference(quotient, n)


def test_equal_denominator_scales_carry_to_one_inverse():
    # 1/(f1^3 f2^2) = 1/f1^7 = f1 * P(q^8): one dilated inverse
    quotient = EtaQuotient.of({1: -3, 2: -2})
    assert quotient.plan(801) == (8, [(1, pentagonal_exponents(801))])
    assert quotient.eval(801) == reference(quotient, 801)


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 6, 8, 12, 24])
@pytest.mark.parametrize("trunc_len", [1, 5, 101, 4097, 100_003])
def test_dilate_matches_scaled_support(factor, trunc_len):
    # dilation f(q) -> f(q^factor) is mul_dilated with the exponent list [0]
    source = EtaQuotient.of({1: -1}).eval(-(-trunc_len // factor))
    got = source.mul_dilated([0], factor, trunc_len)
    want = Gf2Series.from_support([factor * e for e in source.support() if factor * e < trunc_len], trunc_len)
    assert got.trunc_len == trunc_len
    assert got == want


def test_dilate_rejects_extension_and_bad_factor():
    with pytest.raises(ValueError, match="cannot extend"):
        Gf2Series.from_support([0], 10).mul_dilated([0], 3, 31)
    with pytest.raises(ValueError):
        Gf2Series.from_support([0], 10).mul_dilated([0], 0, 10)
    assert Gf2Series.from_support([0], 10).mul_dilated([0], 3, 30) == Gf2Series.from_support([0], 30)


@pytest.mark.parametrize("factors, scale", [({1: 3}, 1), ({1: 3, 3: 1}, 1), ({9: 3}, 9), ({3: 7}, 3)])
def test_jacobi_pair_is_one_triangular_factor(factors, scale):
    # f1^3 = f1 f2 = T(q); f1^3 f3 = T(q) f3; f9^3 = T(q^9); f3^7 = f3 f6 f12 = T(q^3) f12.
    # T has the most terms, so it comes first, and every other factor is pentagonal.
    quotient = EtaQuotient.of(factors)
    t, plan = quotient.plan(3000)
    assert t == 0 and plan[0] == (scale, triangular_exponents(3000, scale))
    assert plan[1:] == [(s, pentagonal_exponents(3000, s)) for s, _ in plan[1:]]
    assert quotient.eval(3000) == reference(quotient, 3000)


def test_inverse_slot_builds_only_past_the_longest(monkeypatch):
    # P to n is T(q) P(q^4) against P to ceil(n/4), so each request that
    # passes the longest P builds T at each level above the longest, innermost first
    built = []

    def recording_triangular(trunc_len, scale=1):
        built.append(trunc_len)
        return triangular_exponents(trunc_len, scale)

    quotient = EtaQuotient.of({5: 1, 1: -1})  # f5 * P(q): no triangular factor of its own
    lengths = (300, 100, 2000, 2000, 5, 1999, 70_000, 1, 300)
    fresh = {n: reference(quotient, n) for n in set(lengths)}
    monkeypatch.setattr(etaq, "_longest", {})
    monkeypatch.setattr(etaq, "triangular_exponents", recording_triangular)
    for n in lengths:
        got = quotient.eval(n)
        assert got.trunc_len == n
        assert got == fresh[n], n
    assert built == [2, 5, 19, 75, 300, 500, 2000, 4375, 17_500, 70_000]
    assert etaq._longest["P"].trunc_len == 70_000


def test_longer_inverse_recurses_down_to_the_cached_one(monkeypatch):
    # 1/f1 = f1^3 / f4 = T(q) P(q^4): P to n is one class-split product of T
    # against P to ceil(n/4), recursing until the cached P is long enough
    lengths = (*range(1, 10), 63, 64, 65, 4097, 100_003)
    fresh = {n: int_series(n, ref_inverse([ref_eta(1, n)], n)) for n in lengths}
    products = []
    real_mul_dilated = Gf2Series.mul_dilated

    def recording(self, exponents, factor, trunc_len):
        assert list(exponents) == triangular_exponents(trunc_len) and factor == 4
        products.append((self.trunc_len, trunc_len))
        return real_mul_dilated(self, exponents, factor, trunc_len)

    monkeypatch.setattr(etaq, "_longest", {})
    monkeypatch.setattr(Gf2Series, "mul_dilated", recording)
    longest = 1
    for n in lengths:
        products.clear()
        got = etaq._inverse_f1(n)
        assert got == fresh[n], n
        levels = []
        while n > longest:
            levels.append((-(-n // 4), n))
            n = -(-n // 4)
        assert products == levels[::-1]
        longest = max(longest, got.trunc_len)
    assert etaq._longest["P"] is got


@pytest.mark.parametrize("quotient", [A_PARITY_QUOTIENT] + [q for _, _, q in DISSECTION_CLASSES.values()], ids=str)
def test_plan_products_count_no_bits_and_build_no_dilated_copy(monkeypatch, quotient):
    n = 100_003

    def forbidden(*args):
        raise AssertionError("the plan's products must not count or unpack bits")

    monkeypatch.setattr(Gf2Series, "odd_count", forbidden)
    # sparse factors reach the kernel as exponents, never as series to unpack
    monkeypatch.setattr(Gf2Series, "support", forbidden)
    monkeypatch.setattr(Gf2Series, "to_bit_array", forbidden)
    got = quotient.eval(n)
    monkeypatch.undo()
    assert got == reference(quotient, n)


def identity_quotients():
    """The distinct quotients identity_suite evaluates: every side of the
    IDENTITIES table, and the left side of f3^3/f1 = sum_k q^(k(3k-2))."""
    sides = [side for _, *row in etaq.IDENTITIES for side in row] + [{3: 3, 1: -1}]
    return {EtaQuotient.of(side) for side in sides}


@pytest.mark.parametrize("trunc_len", [2**16 - 5, 2**16 + 5])
def test_package_quotients_match_reference(monkeypatch, trunc_len):
    asked = identity_quotients()
    assert len(asked) == 22
    monkeypatch.setattr(etaq, "_longest", {})
    for quotient in sorted(asked | {q for _, _, q in DISSECTION_CLASSES.values()}, key=str):
        got = quotient.eval(trunc_len)
        assert got.trunc_len == trunc_len
        assert got == reference(quotient, trunc_len), str(quotient)


PENT, TRI = pentagonal_exponents, triangular_exponents


@pytest.mark.parametrize(
    "factors, t, plan",
    [
        ({3: 1, 1: -3}, 4, [(PENT, 1), (PENT, 3)]),
        ({3: 5, 1: -3}, 4, [(PENT, 1), (PENT, 12), (PENT, 3)]),
        ({1: 1, 3: 1, 6: 1, 5: -1}, 5, [(PENT, 1), (TRI, 3)]),
        ({3: 1, 4: -1}, 4, [(PENT, 3)]),
        (dict(DISSECTION_CLASSES["8m+7"][2].factors), 4, [(PENT, 1), (PENT, 24)]),
    ],
    ids=["factors0", "factors1", "factors2", "f3_over_f4", "8m+7"],
)
def test_split_takes_the_factor_with_most_terms(factors, t, plan):
    # f3/f1^3 = f1 f3 P(q^4); f3^5/f1^3 = f1 f3 f12 P(q^4); f1 f3 f6/f5 = f1 T(q^3) P(q^5);
    # f3/f4 = f3 P(q^4); f3^8/f1^3 = f1 f24 P(q^4). The factor with the most
    # terms multiplies P(q^t) at factor t, then each other sparse factor
    # follows at factor 1, fewest terms first.
    n = 5000
    quotient = EtaQuotient.of(factors)
    assert quotient.plan(n) == (t, [(scale, exponents(n, scale)) for exponents, scale in plan])
    assert quotient.eval(n) == reference(quotient, n)


@pytest.mark.parametrize("n", [1, 64, 65, 4099, 300_001])
def test_eval_runs_exactly_its_plan(monkeypatch, n):
    # each of the package's 24 quotients (the identity suite's and the closed
    # forms): the first factor multiplies P class by class mod t, then every
    # other factor follows at factor 1, in plan order. a_parity_at forms no
    # product: it reads the class rows of the parity plan's second factor
    # times P at the degrees, through the first factor.
    quotients = identity_quotients() | {q for _, _, q in DISSECTION_CLASSES.values()}
    assert len(quotients) == 24
    etaq._inverse_f1(n)  # P is itself built by mul_dilated; build it before the recorder
    calls = []
    real_mul_dilated = Gf2Series.mul_dilated

    def recording(self, exponents, factor, trunc_len):
        calls.append((self, list(exponents), factor, trunc_len))
        return real_mul_dilated(self, exponents, factor, trunc_len)

    def want_calls(t, factors):
        if t:
            return [(factors[0][1] if factors else [0], t, n)] + [(e, 1, n) for _, e in factors[1:]]
        return [(e, 1, n) for _, e in factors[1:]]

    monkeypatch.setattr(Gf2Series, "mul_dilated", recording)
    for quotient in sorted(quotients, key=str):
        t, factors = quotient.plan(n)
        calls.clear()
        quotient.eval(n)
        if t:
            assert calls[0][0] == etaq._inverse_f1(-(-n // t)), quotient
        assert [call[1:] for call in calls] == want_calls(t, factors), quotient
    t, (first, second) = A_PARITY_QUOTIENT.plan(n)
    reads = []
    real_mul_dilated_at = Gf2Series.mul_dilated_at

    def recording_at(self, exponents, factor, outer, degrees):
        reads.append((self, list(exponents), factor, list(outer)))
        return real_mul_dilated_at(self, exponents, factor, outer, degrees)

    monkeypatch.setattr(Gf2Series, "mul_dilated_at", recording_at)
    calls.clear()
    a_parity_at([n - 1])
    assert calls == []
    assert len(reads) == 1 and reads[0][0] == etaq._inverse_f1(-(-n // t))
    assert reads[0][1:] == (second[1], t, first[1])
