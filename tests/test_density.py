import numpy as np
import pytest

from oddmult import characterize, etaq
from oddmult.characterize import odd_flag_windows, predict_parity
from oddmult.density import (
    CENSUS_CLASSES,
    DISAGREES,
    DensityCheckpoint,
    DensityReport,
    checkpoints_upto,
    density_8m7,
    parity_keys,
    sparse_odd_census,
)
from oddmult.etaq import DISSECTION_CLASSES, a_parity_series
from oddmult.gf2series import Gf2Series
from oddmult.partition_oracle import build_table


def test_checkpoints_upto():
    assert checkpoints_upto(10**6) == [10**3, 10**4, 10**5, 10**6]
    assert checkpoints_upto(500) == [500]
    assert checkpoints_upto(2_500_000) == [10**3, 10**4, 10**5, 10**6, 2_500_000]
    assert checkpoints_upto(10**9) == [10**k for k in range(3, 10)]


def test_density_8m7_structure():
    report = density_8m7(10)
    assert report.class_tag == "8m+7"
    assert [c.x for c in report.checkpoints] == [10]
    counts = [c.odd_count for c in report.checkpoints]
    assert counts == sorted(counts)
    assert all(0.0 <= c.density <= 1.0 for c in report.checkpoints)
    assert report.cross_checked == 10
    assert report.mismatch is None


def test_density_8m7_first_coefficient_is_a7():
    # a(7) = 9 is odd
    table = build_table(7)
    report = density_8m7(1)
    assert report.checkpoints[0].odd_count == table[7] & 1 == 1


def test_density_8m7_deterministic():
    a = density_8m7(2000)
    b = density_8m7(2000)
    assert a == b and a.cross_checked == 1000


def test_density_8m7_cross_check_reports_first_mismatch(monkeypatch):
    # a closed form wrong at m = 37 and 80: the report keeps its counts and
    # the first sampled n = 8m+7 where the closed form and the extraction differ
    step, offset, quotient = DISSECTION_CLASSES["8m+7"]
    flipped = quotient.eval(100) + Gf2Series.from_support([37, 80], 100)

    class FlippedQuotient:
        def eval(self, trunc_len):
            return flipped.truncate(trunc_len)

    monkeypatch.setitem(DISSECTION_CLASSES, "8m+7", (step, offset, FlippedQuotient()))
    report = density_8m7(100)
    assert report.mismatch == 8 * 37 + 7
    assert report.cross_checked == 100
    odd = flipped.odd_count(upto=100)
    assert report.checkpoints == (DensityCheckpoint(100, odd, odd / 100),)


@pytest.mark.parametrize("limit", [1, 1000, 20_000])
def test_density_8m7_holds_no_series_past_twice_its_limit(monkeypatch, limit):
    # the cross-check reads the class rows of f3 * P(q^4) at the sampled
    # degrees, so nothing as long as the 8 * limit degrees it reads is built:
    # the longest series is P = 1/f1 to 2 * limit
    made = []
    real_of_words = Gf2Series._of_words

    def recording(cls, trunc_len, words):
        made.append(trunc_len)
        return real_of_words(trunc_len, words)

    monkeypatch.setattr(etaq, "_longest_inverse", None)
    monkeypatch.setattr(Gf2Series, "_of_words", classmethod(recording))
    density_8m7(limit)
    assert made and max(made) <= 2 * limit + 2, max(made)


def test_density_8m7_rejects_bad_limit():
    with pytest.raises(ValueError):
        density_8m7(0)


def key_of(n, parity):
    """4 * case + 2 * flag + bit of n, one n at a time."""
    return 4 * int(characterize.cases(n, n + 1)[0]) + 2 * predict_parity(n) + parity[n]


@pytest.mark.parametrize(
    "width, lo, hi",
    # windows of 7 and 1000 n; a window of 2^18 n whose second part starts
    # at 1000 + 2^15
    [(7, 157, 2100), (1000, 157, 2100), (1000, 32000, 34000), (characterize.FLAG_WINDOW, 1000, 40_000)],
)
def test_parity_keys_are_case_flag_and_bit(width, lo, hi, monkeypatch):
    monkeypatch.setattr(characterize, "FLAG_WINDOW", width)
    parity = a_parity_series(hi)
    parts = list(parity_keys(parity, lo, hi))
    assert [start for start, _ in parts] == list(range(lo, hi, min(width, 1 << 15)))
    keys = np.concatenate([keys for _, keys in parts])
    assert keys.dtype == np.uint8
    assert keys.tolist() == [key_of(n, parity) for n in range(lo, hi)]


def test_parity_keys_of_one_n_walk_no_window(monkeypatch):
    # 0, the 18 j^2 450 and 1007 == 7 (mod 8) take their flags from predict_parity
    monkeypatch.setattr("oddmult.density.odd_flag_windows", None)
    parity = a_parity_series(2000)
    for n in (0, 450, 1007):
        [(start, keys)] = parity_keys(parity, n, n + 1)
        assert (start, keys.tolist()) == (n, [key_of(n, parity)]), n


def test_disagrees_marks_a_flag_unlike_its_bit_outside_8m7():
    # the cases 7, 15 and 23 are the n == 7 (mod 8), whose flags mean nothing
    expected = [
        flag != bit and case not in (7, 15, 23) for case in range(26) for flag in (0, 1) for bit in (0, 1)
    ]
    assert DISAGREES.dtype == bool and DISAGREES.tolist() == expected


def test_census_two_routes_agree_at_10k():
    flags = [bool(f) for _, window in odd_flag_windows(10_000) for f in window]
    for result in sparse_odd_census(10_000):
        assert isinstance(result, DensityReport) and result.cross_checked == 0, result
        assert result.mismatch is None, result.class_tag
        step, offset = CENSUS_CLASSES[result.class_tag]
        pred = [sum(flags[offset:c.x:step]) for c in result.checkpoints]
        ser = [c.odd_count for c in result.checkpoints]
        assert pred == ser
        assert pred == sorted(pred)


@pytest.mark.parametrize("width", [8, characterize.FLAG_WINDOW])
def test_census_keeps_the_first_mismatch_of_each_class(width, flip_flags, monkeypatch):
    # n = 7 is in the uncharacterized class, which the walk skips; windows of
    # 8 put the later mismatches of each class in later windows
    monkeypatch.setattr(characterize, "FLAG_WINDOW", width)
    flip_flags(4, 5, 7, 9, 11, 19, 100)
    census = {r.class_tag: r for r in sparse_odd_census(2000)}
    assert {tag: r.mismatch for tag, r in census.items()} == {"even": 4, "4m+1": 5, "8m+3": 11}
    # the counts come from the series alone: the flips at 4 and 100 would add 2
    parity = a_parity_series(2000)
    for tag, (step, offset) in CENSUS_CLASSES.items():
        manual = sum(parity[n] for n in range(offset, 2000, step))
        assert census[tag].checkpoints[-1].odd_count == manual


def test_census_even_class_counts_squares():
    # within n < 10^4: member indices m < 5000; odd iff m = 0 or m = k^2, 3 not | k
    expected = sum(
        1 for m in range(5000) if m == 0 or (int(m**0.5 + 0.5) ** 2 == m and int(m**0.5 + 0.5) % 3)
    )
    census = {r.class_tag: r for r in sparse_odd_census(10_000)}
    assert census["even"].checkpoints[-1].odd_count == expected == 48


def test_census_density_decreases_by_decade():
    for result in sparse_odd_census(100_000):
        densities = [c.density for c in result.checkpoints]
        assert densities == sorted(densities, reverse=True), result.class_tag
        assert densities[-1] < densities[0]


def test_census_matches_parity_series_directly():
    parity = a_parity_series(4000)
    census = {r.class_tag: r for r in sparse_odd_census(4000)}
    for tag, (step, offset) in CENSUS_CLASSES.items():
        manual = sum(parity[n] for n in range(offset, 4000, step))
        assert census[tag].checkpoints[-1].odd_count == manual


def test_census_rejects_bad_limit():
    with pytest.raises(ValueError):
        sparse_odd_census(0)
