"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import sys
from itertools import count
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oddmult  # noqa: E402
import oddmult.cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, percentile, self_time  # noqa: E402


@pytest.mark.parametrize(
    "children, expected",
    [
        ([], 10.0),
        ([(1, 3), (5, 6)], 7.0),  # disjoint
        ([(1, 8), (2, 4), (3, 5)], 3.0),  # nested inside the first child
        ([(1, 4), (3, 6), (5, 7)], 4.0),  # chained overlaps, as from parallel workers
        ([(-5, 2), (9, 20)], 7.0),  # clipped to the parent's interval
        ([(2, 2), (12, 15)], 10.0),  # empty or outside
    ],
)
def test_self_time_subtracts_union_of_children(children, expected):
    assert self_time(0.0, 10.0, children) == pytest.approx(expected)


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90  # 10 samples lie above rank 90
    assert percentile(samples[:99], 90) is None  # 9 would lie above
    assert percentile(samples, 99) is None
    assert percentile(list(range(1, 1001)), 99) == 990
    assert percentile(samples, 50) == 50


def test_queries_are_seeded():
    first = workloads.make_queries(7)
    assert first == workloads.make_queries(7)
    assert first != workloads.make_queries(8)
    kinds = [q[0] + (".." if ".." in q[1] else "") for q in first]
    assert (kinds.count("a-parity"), kinds.count("a-parity.."), kinds.count("a-value")) == (160, 20, 20)


def _fake_clock():
    ticks = count()
    return lambda: float(next(ticks))


def test_wrapper_self_time_excludes_children_and_bookkeeping():
    t = Tracer(clock=_fake_clock())
    leaf = t.wrap("hot.leaf", lambda: None, hot=True)
    mid = t.wrap("span.mid", lambda: leaf())
    top = t.wrap("span.top", lambda: (mid(), leaf()))
    top()
    totals = t.finish()
    # each call reads the clock on entering, before and after the call, and on leaving
    assert totals["hot.leaf.calls"] == 2
    assert totals["hot.leaf.self_s"] == 2.0  # 1 tick each between before and after
    assert [s["name"] for s in t.spans] == ["span.top", "span.mid"]
    assert t.spans[1]["parent"] == 0
    assert t.spans[1]["self_s"] == 2.0  # 5 ticks less the leaf's 3 from entering to leaving
    assert t.spans[0]["self_s"] == 3.0  # 13 ticks less mid's 7 and the leaf's 3


def test_install_reaches_every_caller_and_keeps_stdout(capsys):
    oddmult.cli.main(["a-parity", "0..40"])
    plain = capsys.readouterr().out
    census_before = dict(oddmult.density.CENSUS_CLASSES)
    t = Tracer()
    t.install(oddmult)
    try:
        assert oddmult.cli.predict_parity is not oddmult.characterize.predict_parity.__wrapped__
        oddmult.cli.main(["a-parity", "0..40"])
        traced = capsys.readouterr().out
        oddmult.density.sparse_odd_census(1000)
    finally:
        t.uninstall()
    totals = tracer.merge([t.finish()])
    assert traced == plain
    assert totals["characterize.predict_parity.calls"] == 41
    assert totals["gf2series.getitem.calls"] == 41
    assert totals["characterize.parity_4m1.calls"] >= 250  # reached through CENSUS_CLASSES
    assert totals["cli.main.calls"] == 1
    assert oddmult.density.CENSUS_CLASSES == census_before
    assert not hasattr(oddmult.cli.predict_parity, "__wrapped__")


def test_mul_counters():
    t = Tracer()
    t.install(oddmult)
    try:
        a = oddmult.Gf2Series.from_support([0, 3], 8)
        b = oddmult.Gf2Series.from_support([0, 1, 2, 6], 8)
        product = a * b
    finally:
        t.uninstall()
    totals = tracer.merge([t.finish()])
    assert product == oddmult.Gf2Series(8, (0b1000111 ^ (0b1000111 << 3)))
    assert totals["gf2series.mul.shift_xors"] == 2  # the support of the sparser operand
    assert totals["gf2series.mul.bytes_computed"] == 2 * 1 * 3
    assert totals["gf2series.mul.kept_ratio"] == pytest.approx((7 + 5) / (7 + 7))


def test_batch_checks():
    good = "".join(f"ok   family {i}\n" for i in range(24)) + "PASS\n"
    assert workloads.check_batch(["verify", "congruences", "--limit", "10"], good) == []
    bad = good.replace("ok   family 3", "FAIL family 3")
    assert len(workloads.check_batch(["verify", "congruences", "--limit", "10"], bad)) == 2


def test_query_checks():
    exact = oddmult.build_table(20)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        oddmult.cli.main(["a-parity", "5..9"])
    assert workloads.check_query(["a-parity", "5..9"], out.getvalue(), exact) == []
    wrong = out.getvalue().replace("series=odd", "series=even", 1)
    assert workloads.check_query(["a-parity", "5..9"], wrong, exact)
    assert workloads.check_query(["a-value", "5"], "5\n", exact) == []
    assert workloads.check_query(["a-value", "5"], "6\n", exact)
