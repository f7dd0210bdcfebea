import functools
import tracemalloc
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddmult import characterize
from oddmult.characterize import odd_flag_windows, predict_parity
from oddmult.cli import main
from oddmult.numtheory import MAX_INPUT, is_square


def verdict(n: int) -> str:
    """The reason `a-parity n` prints: the entry of n's case and odd flag in REASONS."""
    return characterize.REASONS[2 * int(characterize.cases(n, n + 1)[0]) + predict_parity(n)].format(n)


def unknown(n: int, capsys) -> bool:
    """Whether `a-parity n` prints its verdict as unknown."""
    main(["a-parity", str(n)])
    return f"n={n}: unknown [" in capsys.readouterr().out


def test_even_index_examples():
    assert predict_parity(2 * 0) is True  # a(0) = 1
    assert predict_parity(2 * 1) is True  # a(2) = 1
    assert predict_parity(2 * 9) is False  # k = 3 divisible by 3
    assert predict_parity(2 * 4) is True  # a(8) = 9
    assert predict_parity(2 * 5) is False


def test_even_index_m_zero_precedes_square_test():
    # 0 = 0^2 with root divisible by 3, but the m = 0 case wins
    assert predict_parity(2 * 0) is True and "m = 0" in verdict(0)


def test_4m1_examples():
    assert predict_parity(4 * 1 + 1) is True  # n=5=5^1, exponent 1 (mod 4)
    assert predict_parity(4 * 6 + 1) is True  # n=25 square, m == 0 (mod 3)
    assert predict_parity(4 * 31 + 1) is False  # n=125=5^3, 3 != 1 (mod 4)
    assert predict_parity(4 * 2 + 1) is False  # m == 2 (mod 3)


def test_8m3_examples():
    assert predict_parity(8 * 0 + 3) is True  # n=3 = 3*1^2
    assert predict_parity(8 * 3 + 3) is True  # n=27 = 3*3^2
    assert predict_parity(8 * 4 + 3) is False  # n=35 = 5*7, two odd exponents
    assert predict_parity(8 * 2 + 3) is False  # m == 2 (mod 3)


def test_predict_examples(capsys):
    assert predict_parity(0) is True
    assert predict_parity(9) is False  # a(12n+9) even
    assert unknown(7, capsys)


def test_unknown_exactly_on_7_mod_8(capsys):
    for n in range(500):
        assert unknown(n, capsys) == (n % 8 == 7), n


def test_each_case_gives_its_reason():
    # one n for every reason text, spelled out here rather than read from the table
    reasons = {
        0: "2m: m = 0",
        8: "2m: m = k^2 with 3 not | k",
        6: "2m: m not a square",
        18: "2m: m = k^2 but 3 | k",
        25: "4m+1: m == 0 (mod 3), 25 a square",
        13: "4m+1: m == 0 (mod 3), 13 not a square",
        5: "4m+1: m == 1 (mod 3), lone odd prime exponent == 1 (mod 4)",
        125: "4m+1: m == 1 (mod 3), exponent pattern fails",
        9: "4m+1: m == 2 (mod 3)",
        27: "8m+3: m == 0 (mod 3), 27 3 times a square",
        51: "8m+3: m == 0 (mod 3), 51 not 3 times a square",
        11: "8m+3: m == 1 (mod 3), lone odd prime exponent == 1 (mod 4)",
        35: "8m+3: m == 1 (mod 3), exponent pattern fails",
        19: "8m+3: m == 2 (mod 3)",
        7: "8m+7: uncharacterized class",
    }
    for n, reason in reasons.items():
        assert verdict(n) == reason, n


def test_reasons_are_never_empty():
    for n in range(200):
        assert verdict(n)


def test_domain_errors():
    for fn in (predict_parity, odd_flag_windows):
        with pytest.raises(ValueError):
            fn(-1)


def test_predict_parity_refuses_every_n_past_max_input():
    # 2^63 + 9 is 4m+1 with m == 1 (mod 3), whose branch factorizes; 2^63 + 19
    # is 8m+3 with m == 0 (mod 3), whose branch does not. Both are refused alike.
    for n in (MAX_INPUT + 9, MAX_INPUT + 19):
        with pytest.raises(ValueError, match=r"^predict_parity supports 0 <= n <= 2\^63, got \d+$"):
            predict_parity(n)
    assert predict_parity(MAX_INPUT) is True  # 2^63 = 2m with m = (2^31)^2 and 3 not | 2^31


def test_agreement_with_series_to_10k(parity_10k):
    for n in range(10_000):
        if n % 8 == 7:
            continue
        assert predict_parity(n) == parity_10k[n], (n, verdict(n))


def test_agreement_with_exact_oracle(oracle_2000):
    for n in range(oracle_2000.limit + 1):
        if n % 8 == 7:
            continue
        assert predict_parity(n) == oracle_2000[n] & 1, n


def joined_flags(limit: int, width: int) -> np.ndarray:
    """The flags of odd_flag_windows(limit) with windows of this width, joined."""
    with mock.patch.object(characterize, "FLAG_WINDOW", width):
        windows = list(odd_flag_windows(limit))
    assert [lo for lo, _ in windows] == list(range(0, limit, width))
    assert [len(flags) for _, flags in windows] == [min(width, limit - lo) for lo, _ in windows]
    return np.concatenate([flags for _, flags in windows])


def test_odd_flag_windows_match_predict_parity():
    for limit in [*range(1, 65), 20_000]:
        flags = joined_flags(limit, characterize.FLAG_WINDOW)
        assert flags.shape == (limit,)
        for n in range(limit):
            if n % 8 != 7:
                assert flags[n] == predict_parity(n), (limit, n)


def test_odd_flag_windows_match_predict_parity_at_the_top_of_the_a_parity_domain():
    # the last 2^16 n below 8 * 10^7, the a-parity bound, where the odd p * k^2
    # come from the primes up to limit / 25 and high powers reach their largest k
    limit, start = 8 * 10**7, 8 * 10**7 - 2**16
    flags = np.concatenate([flags for _, flags in odd_flag_windows(limit, start)])
    assert flags.shape == (limit - start,)
    for n in range(start, limit):
        if n % 8 != 7:
            assert flags[n - start] == predict_parity(n), n


def test_odd_flag_windows_prime_powers():
    flags = joined_flags(3_828_126, characterize.FLAG_WINDOW)
    # 5^3 even; 5^5, 11^5 (class 8m+3) and 5^9 odd; 27 = 3 * 3^2 odd;
    # 5^5 * 7^2 and 5^5 * 11^2 odd, 5^5 * 5^2 = 5^7 even; 5^7 * 7^2 = 5 * K^2
    # with K = 5^3 * 7, where 5 divides K an odd number of times, even
    pinned = {125: False, 3125: True, 161051: True, 1953125: True, 27: True,
              153125: True, 378125: True, 78125: False, 3828125: False}
    for n, odd in pinned.items():
        assert flags[n] == odd == predict_parity(n), n


@functools.cache
def predicted_below(limit: int) -> np.ndarray:
    return np.array([predict_parity(n) for n in range(limit)])


@settings(max_examples=25, deadline=None)
@example(limit=20_000, width=1)
@example(limit=20_000, width=7)
@example(limit=20_000, width=64)
@example(limit=20_000, width=1000)
@given(
    limit=st.integers(1, 20_000),
    width=st.sampled_from([1, 7, 64, 1000]) | st.integers(1, 20_000),
)
def test_windows_join_to_predict_parity(limit, width):
    flags = joined_flags(limit, width)
    keep = np.arange(limit) % 8 != 7
    assert np.array_equal(flags[keep], predicted_below(20_000)[:limit][keep])


@pytest.mark.parametrize("width", [7, 64, 1000, characterize.FLAG_WINDOW])
def test_windows_from_a_start_are_the_tail_of_the_windows_from_0(monkeypatch, width):
    limit = 20_000
    monkeypatch.setattr(characterize, "FLAG_WINDOW", width)
    whole = np.concatenate([flags for _, flags in odd_flag_windows(limit)])
    for start in sorted({1, 5, width - 1, width, width + 1, 3 * width, 18 * 33**2, limit - 1} & set(range(1, limit))):
        windows = list(odd_flag_windows(limit, start))
        assert [lo for lo, _ in windows] == list(range(start, limit, width)), start
        assert np.array_equal(np.concatenate([flags for _, flags in windows]), whole[start:]), start
    for start in (-1, limit):
        with pytest.raises(ValueError):
            odd_flag_windows(limit, start)


def test_cases_mark_zero_and_the_even_squares_whose_root_3_divides():
    for lo, hi in [(0, 1), (0, 700), (17, 19), (161, 163), (5000, 9000)]:
        expected = [
            characterize.ZERO if n == 0 else characterize.TRIPLE_ROOT if n % 18 == 0 and is_square(n // 18) else n % 24
            for n in range(lo, hi)
        ]
        assert characterize.cases(lo, hi).tolist() == expected, (lo, hi)


def test_cases_at_the_top_of_the_domain():
    # an index past 2^63 - 1 overflows int64; j is the largest with 18 j^2 <= 2^63
    j = isqrt(MAX_INPUT // 18)
    assert characterize.cases(MAX_INPUT - 2, MAX_INPUT + 1).tolist() == [6, 7, 8]
    for n, case, odd in (
        (18 * j * j, characterize.TRIPLE_ROOT, False),
        (18 * (2**29) ** 2, characterize.TRIPLE_ROOT, False),
        (2 * (2**30) ** 2, 2**61 % 24, True),
        (MAX_INPUT, 8, True),
    ):
        assert characterize.cases(n - 1, n + 2).tolist() == [(n - 1) % 24, case, (n + 1) % 24], n
        assert characterize.cases(n, n + 1).tolist() == [case], n
        assert predict_parity(n) is odd, n


def test_cases_of_one_flag_window_stay_small():
    # a window's cases are one uint8 per n; building them through int32 remainders peaked at 2.0 MiB
    characterize.cases(10**6, 10**6 + 2**18)
    tracemalloc.start()
    try:
        characterize.cases(10**6, 10**6 + 2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


# The odd set of every case, from the paper rather than from the table: a(2m)
# is odd iff m = 0 or m = k^2 with 3 not | k; a(4m+1) and a(8m+3) are even at
# m == 2 (mod 3), odd at m == 0 (mod 3) iff n is a square (4m+1) or 3 times a
# square (8m+3), and odd at m == 1 (mod 3) iff n has one odd prime exponent,
# that one == 1 (mod 4); 8m+7 is flagged even.
ODD_SETS = {
    **{r: 2 for r in range(0, 24, 2)},
    1: 1, 13: 1, 5: "prime", 17: "prime", 9: "none", 21: "none",
    3: 3, 11: "prime", 19: "none",
    7: "none", 15: "none", 23: "none",
    characterize.ZERO: "all", characterize.TRIPLE_ROOT: "none",
}


def test_each_case_has_the_odd_set_of_the_paper():
    assert [odd_set for odd_set, *_ in characterize.CASES] == [ODD_SETS[case] for case in range(26)]
    assert characterize._PRIME_RESIDUES == (5, 11, 17)
    assert characterize.REASONS == tuple(reason for _, *pair in characterize.CASES for reason in pair)


WHOLE = 1_953_126  # just past 5^9


@functools.cache
def one_window() -> np.ndarray:
    return joined_flags(WHOLE, WHOLE)


# points whose window seam is a hard case: high prime powers and the squares
# 2k^2, k^2, 3k^2 of the three square branches
seam_points = st.sampled_from([3125, 161051, 1953125]) | st.builds(
    lambda k, c: c * k * k, st.integers(1, isqrt(WHOLE // 3)), st.sampled_from([1, 2, 3])
)


@settings(max_examples=40, deadline=None)
@given(point=seam_points, shift=st.sampled_from([-1, 0, 1]), data=st.data())
def test_windows_straddling_a_seam_match_one_window(point, shift, data):
    # width point + shift puts a window edge just before, at or just after point
    width = max(point + shift, 1)
    limit = data.draw(st.integers(point + 1, min(WHOLE, point + 64 * width)), label="limit")
    assert np.array_equal(joined_flags(limit, width), one_window()[:limit])


def test_verdicts_of_opposite_parity_never_share_a_reason():
    # a case whose parity is fixed names the contradiction under the other
    # flag; entry i is the reason of case i >> 1 and odd flag i & 1
    parities = {}
    for i, reason in enumerate(characterize.REASONS):
        if (i >> 1) % 8 != 7:
            parities.setdefault(reason, set()).add(i & 1)
    assert len(characterize.REASONS) == 52
    assert [reason for reason, seen in parities.items() if {0, 1} <= seen] == []
