import pytest

from oddmult.characterize import (
    Parity,
    odd_flags,
    parity_4m1,
    parity_8m3,
    parity_even_index,
    predict_parity,
)


def test_even_index_examples():
    assert parity_even_index(0).parity is Parity.ODD  # a(0) = 1
    assert parity_even_index(1).parity is Parity.ODD  # a(2) = 1
    assert parity_even_index(9).parity is Parity.EVEN  # k = 3 divisible by 3
    assert parity_even_index(4).parity is Parity.ODD  # a(8) = 9
    assert parity_even_index(5).parity is Parity.EVEN


def test_even_index_m_zero_precedes_square_test():
    # 0 = 0^2 with root divisible by 3, but the m = 0 case wins
    verdict = parity_even_index(0)
    assert verdict.parity is Parity.ODD and "m = 0" in verdict.reason


def test_4m1_examples():
    assert parity_4m1(1).parity is Parity.ODD  # n=5=5^1, exponent 1 (mod 4)
    assert parity_4m1(6).parity is Parity.ODD  # n=25 square, m == 0 (mod 3)
    assert parity_4m1(31).parity is Parity.EVEN  # n=125=5^3, 3 != 1 (mod 4)
    assert parity_4m1(2).parity is Parity.EVEN  # m == 2 (mod 3)


def test_8m3_examples():
    assert parity_8m3(0).parity is Parity.ODD  # n=3 = 3*1^2
    assert parity_8m3(3).parity is Parity.ODD  # n=27 = 3*3^2
    assert parity_8m3(4).parity is Parity.EVEN  # n=35 = 5*7, two odd exponents
    assert parity_8m3(2).parity is Parity.EVEN  # m == 2 (mod 3)


def test_predict_examples():
    assert predict_parity(0).parity is Parity.ODD
    assert predict_parity(9).parity is Parity.EVEN  # a(12n+9) even
    assert predict_parity(7).parity is Parity.UNKNOWN


def test_unknown_exactly_on_7_mod_8():
    for n in range(500):
        verdict = predict_parity(n)
        assert (verdict.parity is Parity.UNKNOWN) == (n % 8 == 7), n


def test_reasons_are_never_empty():
    for n in range(200):
        assert predict_parity(n).reason


def test_domain_errors():
    for fn in (parity_even_index, parity_4m1, parity_8m3, predict_parity, odd_flags):
        with pytest.raises(ValueError):
            fn(-1)


def test_agreement_with_series_to_10k(parity_10k):
    for n in range(10_000):
        if n % 8 == 7:
            continue
        verdict = predict_parity(n)
        actual = Parity.ODD if parity_10k[n] else Parity.EVEN
        assert verdict.parity is actual, (n, verdict.reason)


def test_agreement_with_exact_oracle(oracle_2000):
    for n in range(oracle_2000.limit + 1):
        if n % 8 == 7:
            continue
        expected = Parity.ODD if oracle_2000.parity(n) else Parity.EVEN
        assert predict_parity(n).parity is expected, n


def test_odd_flags_match_predict_parity():
    for limit in [*range(1, 65), 20_000]:
        flags = odd_flags(limit)
        assert flags.shape == (limit,)
        for n in range(limit):
            if n % 8 != 7:
                assert flags[n] == predict_parity(n).is_odd, (limit, n)


def test_odd_flags_prime_powers():
    flags = odd_flags(1_953_126)
    # 5^3 even; 5^5, 11^5 (class 8m+3) and 5^9 odd; 27 = 3 * 3^2 odd
    pinned = {125: False, 3125: True, 161051: True, 1953125: True, 27: True}
    for n, odd in pinned.items():
        assert flags[n] == odd == predict_parity(n).is_odd, n
