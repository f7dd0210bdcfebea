import pytest

from oddmult import etaq
from oddmult.etaq import (
    A_PARITY_QUOTIENT,
    DISSECTION_CLASSES,
    EtaQuotient,
    a_parity_series,
    dissection_by_extraction,
    dissection_series,
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
        combined = EtaQuotient.of(left) * EtaQuotient.of(right)
        assert combined.eval(600) == EtaQuotient.of(left).eval(600) * EtaQuotient.of(right).eval(600)


def test_a_parity_head_matches_oracle(oracle_2000):
    parity = a_parity_series(13)
    assert [oracle_2000.parity(n) for n in range(13)] == A_PARITY_HEAD
    assert list(parity) == A_PARITY_HEAD


def test_a_parity_known_values():
    parity = a_parity_series(6)
    assert parity[0] == 1  # a(0) = 1
    assert parity[5] == 1  # a(5) = 5


def test_dissection_examples():
    assert dissection_series("2m", 4)[1] == 1  # a(2) = 1
    assert dissection_series("4m+1", 4)[1] == 1  # a(5) = 5
    assert dissection_series("8m+3", 4)[0] == 1  # a(3) = 3


def test_dissection_unknown_tag():
    with pytest.raises(ValueError, match="unknown dissection class"):
        dissection_series("16m+11", 4)


@pytest.mark.parametrize("tag", sorted(DISSECTION_CLASSES))
def test_dissection_both_routes_agree(tag):
    step = DISSECTION_CLASSES[tag][0]
    length = 10_000 // step
    assert dissection_series(tag, length) == dissection_by_extraction(tag, length)


@pytest.mark.parametrize("tag", sorted(DISSECTION_CLASSES))
def test_dissection_matches_parity_series_directly(tag, parity_10k):
    step, offset, _ = DISSECTION_CLASSES[tag]
    closed = dissection_series(tag, 500)
    for m in range(500):
        assert closed[m] == parity_10k[step * m + offset], (tag, m)


def test_identity_suite_small():
    for name, lhs, rhs in identity_suite(2000):
        assert lhs == rhs, name


def test_identity_names_are_distinct():
    names = [name for name, _, _ in identity_suite(16)]
    assert len(names) == len(set(names)) == 8


def test_parity_series_cached_value_is_consistent():
    # same truncation twice: identical object is fine, equal value is required
    assert a_parity_series(128) == a_parity_series(128)
    assert isinstance(a_parity_series(128), Gf2Series)


@pytest.mark.parametrize("first, then", [(5000, 1234), (1234, 5000), (777, 777), (4097, 64)])
def test_parity_series_after_another_length_matches_fresh_eval(monkeypatch, first, then):
    monkeypatch.setattr(etaq, "_longest_parity", None)
    a_parity_series(first)
    got = a_parity_series(then)
    fresh = A_PARITY_QUOTIENT.eval(then)
    assert got.trunc_len == fresh.trunc_len == then
    assert got._bits == fresh._bits


def test_parity_series_builds_only_past_the_longest(monkeypatch):
    built = []

    class CountingQuotient:
        def eval(self, trunc_len):
            built.append(trunc_len)
            return A_PARITY_QUOTIENT.eval(trunc_len)

    monkeypatch.setattr(etaq, "_longest_parity", None)
    monkeypatch.setattr(etaq, "A_PARITY_QUOTIENT", CountingQuotient())
    for n in (300, 100, 2000, 2000, 5, 1999, 4096, 1, 300):
        assert a_parity_series(n) == A_PARITY_QUOTIENT.eval(n), n
    assert built == [300, 2000, 4096]


def test_parity_series_rejects_empty_truncation_after_a_build():
    a_parity_series(64)
    with pytest.raises(ValueError):
        a_parity_series(0)
