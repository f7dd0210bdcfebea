import tracemalloc

import numpy as np
import pytest

from oddmult import characterize, etaq
from oddmult.characterize import CASE_CLASSES, odd_flag_windows, predict_parity
from oddmult.density import (
    DISAGREES,
    DensityCheckpoint,
    DensityReport,
    checkpoints_upto,
    density_8m7,
    key_counts,
    parity_keys,
    sparse_odd_census,
)
from oddmult.etaq import DISSECTION_CLASSES, a_parity_series
from oddmult.gf2series import Gf2Series
from oddmult.partition_oracle import build_table

# class tag -> (step, offset): the class is n == offset (mod step), written out
# here so that the census is checked against the residues, not its own table
CLASSES = {"even": (2, 0), "4m+1": (4, 1), "8m+3": (8, 3)}


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

    monkeypatch.setattr(etaq, "_longest", {})
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


def test_case_classes_are_the_classes_of_n():
    # every residue mod 24, and the cases ZERO (n = 0) and TRIPLE_ROOT (n = 18 j^2)
    ns = range(2000)
    tags = CASE_CLASSES[characterize.cases(0, 2000)].tolist()
    expected = [next((t for t, (step, offset) in CLASSES.items() if n % step == offset), "8m+7") for n in ns]
    assert tags == expected
    assert set(characterize.cases(0, 2000).tolist()) == set(range(26))


def test_key_counts_is_the_histogram_of_the_keys():
    keys = np.concatenate([keys for _, keys in parity_keys(a_parity_series(50_000), 0, 50_000)])
    for part in (keys[:1], keys[:8192], keys[:8193], keys[: 1 << 15], keys):
        counts = key_counts(part)
        assert counts.dtype == np.int64
        assert counts.tolist() == np.bincount(part, minlength=len(DISAGREES)).tolist()


def test_key_counts_casts_a_slice_at_a_time():
    # bincount casts the uint8 keys to intp: 263 KB traced on a whole part of
    # 2^15 keys, about 68 KB on slices of 2^13
    [(_, keys)] = [part for part in parity_keys(a_parity_series(1 << 15), 0, 1 << 15)]
    assert len(keys) == 1 << 15
    tracemalloc.start()
    try:
        key_counts(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000, peak


def test_census_two_routes_agree_at_10k():
    flags = [bool(f) for _, window in odd_flag_windows(10_000) for f in window]
    for result in sparse_odd_census(10_000):
        assert isinstance(result, DensityReport) and result.cross_checked == 0, result
        assert result.mismatch is None, result.class_tag
        step, offset = CLASSES[result.class_tag]
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
    for tag, (step, offset) in CLASSES.items():
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
    for tag, (step, offset) in CLASSES.items():
        manual = sum(parity[n] for n in range(offset, 4000, step))
        assert census[tag].checkpoints[-1].odd_count == manual


@pytest.mark.parametrize("width", [1000, characterize.FLAG_WINDOW])
@pytest.mark.parametrize("limit", [8192, 32768, 32769, 65536, 100_000])
def test_census_counts_stop_at_each_checkpoint(limit, width, monkeypatch):
    # limits at the end of a slice of key_counts, of a part of parity_keys,
    # one past it, and between parts; windows of 1000 n end a part at every
    # decade, which must be counted once, and not again at the next part
    monkeypatch.setattr(characterize, "FLAG_WINDOW", width)
    bits = a_parity_series(limit).to_bit_array()
    census = {r.class_tag: r for r in sparse_odd_census(limit)}
    assert list(census) == list(CLASSES)
    for tag, (step, offset) in CLASSES.items():
        expected = []
        for x in checkpoints_upto(limit):
            odd = int(bits[offset:x:step].sum())
            expected.append(DensityCheckpoint(x, odd, odd / len(range(offset, x, step))))
        assert census[tag].checkpoints == tuple(expected), tag
        assert census[tag].mismatch is None


def test_census_never_extracts(monkeypatch):
    def refuse(self, step, offset):
        raise AssertionError(f"extract({step}, {offset})")

    monkeypatch.setattr(Gf2Series, "extract", refuse)
    assert [r.class_tag for r in sparse_odd_census(40_000)] == list(CLASSES)


def test_census_rejects_bad_limit():
    with pytest.raises(ValueError):
        sparse_odd_census(0)
