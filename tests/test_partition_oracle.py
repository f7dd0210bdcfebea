import pytest

from oddmult import partition_oracle
from oddmult.etaq import a_parity_series
from oddmult.partition_oracle import (
    ENUMERATION_LIMIT,
    build_table,
    enumerate_partitions,
    qualifying_partitions,
)


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
    assert table.parity(9) == 0  # a(12n+9) is even at n=0


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
        assert oracle_2000.parity(n) == parity[n], n


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
    for limit in range(65):
        assert list(partition_oracle._count_values(limit)) == reference_values(limit), limit


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
