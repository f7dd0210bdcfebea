import hashlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddmult import partition_oracle
from oddmult.etaq import a_parity_series
from oddmult.partition_oracle import build_table
from oracles import ENUMERATION_LIMIT, enumerate_partitions, qualifying_partitions


def test_worked_example_a5():
    assert enumerate_partitions(5) == 5
    got = sorted(qualifying_partitions(5))
    assert got == sorted(
        [(5,), (4, 1), (3, 2), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    )


def test_rejected_partitions_of_5_have_even_multiplicity():
    got = set(qualifying_partitions(5))
    assert (3, 1, 1) not in got
    assert (2, 2, 1) not in got


def test_a4_partitions():
    assert sorted(qualifying_partitions(4)) == [(3, 1), (4,)]
    assert enumerate_partitions(4) == 2


def test_a3_partitions():
    assert sorted(qualifying_partitions(3)) == [(1, 1, 1), (2, 1), (3,)]


def test_a0_empty_partition():
    assert enumerate_partitions(0) == 1
    assert list(qualifying_partitions(0)) == [()]


def test_enumeration_guard():
    with pytest.raises(ValueError, match="guard"):
        enumerate_partitions(ENUMERATION_LIMIT + 1)
    with pytest.raises(ValueError):
        list(qualifying_partitions(-1))


def test_table_head_exact():
    table = build_table(12)
    assert list(table.values) == [1, 1, 1, 3, 2, 5, 6, 9, 9, 16, 20, 25, 32]


def test_table_examples():
    table = build_table(9)
    assert table.values[:6] == (1, 1, 1, 3, 2, 5)
    assert table[4] == 2
    assert table[9] & 1 == 0  # a(12n+9) is even at n=0


def test_table_rejects_negative_limit():
    with pytest.raises(ValueError):
        build_table(-1)


def test_enumeration_agrees_with_table_up_to_45():
    table = build_table(ENUMERATION_LIMIT)
    for n in range(ENUMERATION_LIMIT + 1):
        assert enumerate_partitions(n) == table[n], n


def test_table_parity_matches_series(oracle_2000):
    parity = a_parity_series(oracle_2000.limit + 1)
    for n in range(oracle_2000.limit + 1):
        assert oracle_2000[n] & 1 == parity[n], n


def reference_values(limit):
    """a(0..limit) by the plain per-index loop over the part factors."""
    values = [0] * (limit + 1)
    values[0] = 1
    for part in range(1, limit + 1):
        contrib = [0] * (limit + 1)
        for n in range(part, limit + 1):
            contrib[n] = values[n - part] + (contrib[n - 2 * part] if n >= 2 * part else 0)
        for n in range(part, limit + 1):
            values[n] += contrib[n]
    return values


def test_dp_matches_reference_loop():
    # limits up to 64 sweep the limbs' carries at most 3 times, 65..160 up
    # to 9 times, 300 19 times and 777 53 times
    for limit in [*range(161), 300, 777]:
        assert list(partition_oracle._count_values(limit)) == reference_values(limit), limit


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=600))
def test_dp_matches_reference_loop_at_random_limits(limit):
    assert list(partition_oracle._count_values(limit)) == reference_values(limit)


# Taken from the DP on Python ints in object arrays that the limb DP replaced.
TABLE_3000_SHA256 = "da8b98a989ce18c8ebfbec6681cfd4c7024495ab68ec81ee8a8936a39508c07b"
A_3000 = 52035353994673050601267787789671496160818185008590


def test_dp_table_at_3000_is_pinned(monkeypatch):
    monkeypatch.setattr(partition_oracle, "_longest_table", None)
    values = build_table(3000).values
    assert values[3000] == A_3000
    assert hashlib.sha256(repr(values).encode()).hexdigest() == TABLE_3000_SHA256


def test_limb_bound_covers_every_value_to_5000(monkeypatch):
    monkeypatch.setattr(partition_oracle, "_longest_table", None)
    values = build_table(5000).values
    for n in range(1, 5001):
        bits = partition_oracle._ROOT_BITS * math.sqrt(n)
        limb = partition_oracle._LIMB_BITS
        assert values[n] < 2**bits, n
        assert values[n].bit_length() <= limb * (int(bits) // limb + 1), n


def test_too_few_limbs_is_an_error_not_a_wrong_value(monkeypatch):
    # with one limb every value must fit 40 bits, and a(300) > 2^45 does not
    monkeypatch.setattr(partition_oracle, "_ROOT_BITS", 0.0)
    with pytest.raises(RuntimeError, match="limb overflow"):
        partition_oracle._count_values(300)


def test_build_table_memory_envelope(monkeypatch):
    # tracemalloc sees numpy's buffers; the object-array DP peaked at
    # 324028 B here, its Python ints included
    monkeypatch.setattr(partition_oracle, "_longest_table", None)
    tracemalloc.start()
    try:
        build_table(3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 324_028, peak


def test_dp_known_values_are_exact_ints(monkeypatch):
    monkeypatch.setattr(partition_oracle, "_longest_table", None)
    values = build_table(1000).values
    assert len(values) == 1001
    assert values[100] == 11960804
    assert values[500] == 3689508357141561380
    assert values[1000] == 2461486330273765535745891360
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("first, then", [(300, 120), (120, 300), (64, 64), (50, 0)])
def test_table_after_another_limit_matches_reference(monkeypatch, first, then):
    monkeypatch.setattr(partition_oracle, "_longest_table", None)
    build_table(first)
    table = build_table(then)
    assert table.limit == then
    assert len(table.values) == then + 1
    assert list(table.values) == reference_values(then)


def test_table_builds_only_past_the_largest(monkeypatch):
    built = []
    count_values = partition_oracle._count_values

    def counting(limit):
        built.append(limit)
        return count_values(limit)

    monkeypatch.setattr(partition_oracle, "_longest_table", None)
    monkeypatch.setattr(partition_oracle, "_count_values", counting)
    expected = reference_values(400)
    for limit in (30, 10, 200, 200, 0, 199, 400, 7, 30):
        table = build_table(limit)
        assert (table.limit, list(table.values)) == (limit, expected[: limit + 1]), limit
    assert built == [30, 200, 400]


def test_table_rejects_negative_limit_after_a_build():
    build_table(20)
    with pytest.raises(ValueError):
        build_table(-1)
