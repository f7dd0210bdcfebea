"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`).
All checks are exact unless the criterion itself states a band. Criterion 7
encodes the stated 0.01 density bound verbatim; the measured densities for
the 4m+1 and 8m+3 classes sit near 0.09 at X = 10^6 (those classes contain
all primes p == 5 (mod 12), resp. p == 11 (mod 24), and thin out only like
1/log X), so those two parametrizations fail by design rather than have the
bound quietly loosened.
"""

import random
import time
from math import isqrt

import numpy as np
import pytest

from oddmult.characterize import predict_parity
from oddmult.congruence import all_families, fixed_families, generate_12p_family, generate_24p_family, verify_family
from oddmult.density import density_8m7, sparse_odd_census
from oddmult.etaq import a_parity_series, identity_suite
from oddmult.numtheory import count_theta_pairs
from oddmult.partition_oracle import build_table
from oracles import (
    ENUMERATION_LIMIT,
    divisor_classes_mod8,
    enumerate_partitions,
    qualifying_partitions,
    r2_bruteforce,
    signed_reps_c2_plus_2d2,
)


def report(number, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def test_criterion_1_worked_example():
    enumerate_partitions(1)  # warm the code path before timing
    start = time.perf_counter()
    count = enumerate_partitions(5)
    elapsed = time.perf_counter() - start

    got = sorted(qualifying_partitions(5))
    expected = sorted([(5,), (4, 1), (3, 2), (2, 1, 1, 1), (1, 1, 1, 1, 1)])
    ok = count == 5 and got == expected and elapsed < 1e-3
    report(1, ok, f"a(5) = {count}, all five partitions match, {elapsed * 1e6:.0f} us")
    assert count == 5
    assert got == expected
    assert elapsed < 1e-3


def test_criterion_2_identity_suite():
    start = time.perf_counter()
    results = [(name, lhs == rhs) for name, lhs, rhs in identity_suite(10_000)]
    elapsed = time.perf_counter() - start

    bad = [name for name, good in results if not good]
    ok = not bad and elapsed < 10.0
    report(2, ok, f"{len(results)} identities exact to truncation 10^4 in {elapsed:.2f}s")
    assert not bad, bad
    assert elapsed < 10.0


def test_criterion_3_oracle_chain():
    start = time.perf_counter()
    table = build_table(5000)
    for n in range(ENUMERATION_LIMIT + 1):
        assert enumerate_partitions(n) == table[n], n
    parity = a_parity_series(5001)
    mismatches = [n for n in range(5001) if table[n] & 1 != parity[n]]
    elapsed = time.perf_counter() - start

    ok = not mismatches and elapsed < 30.0
    report(
        3,
        ok,
        f"enumeration == DP (n <= {ENUMERATION_LIMIT}), DP mod 2 == f3/f1^3 (n <= 5000), {elapsed:.2f}s",
    )
    assert not mismatches, mismatches[:5]
    assert elapsed < 30.0


def test_criterion_4_theorem_verification():
    start = time.perf_counter()
    limit = 100_000
    parity = a_parity_series(limit + 1)
    mismatches = []
    for n in range(limit + 1):
        if n % 8 == 7:
            continue
        if predict_parity(n) != parity[n]:
            mismatches.append(n)
    elapsed = time.perf_counter() - start

    ok = not mismatches and elapsed < 120.0
    report(4, ok, f"predict_parity == series on all n <= 1e5 outside 8m+7, {elapsed:.2f}s")
    assert not mismatches, mismatches[:5]
    assert elapsed < 120.0


def _signed_c2_2d2_table(limit: int) -> np.ndarray:
    """Brute-force signed representation counts of c^2 + 2d^2 = N for N <= limit.

    Enumerates every lattice point with c >= 0, d >= 0 and weights by the
    sign choices, which is the same enumeration as signed_reps_c2_plus_2d2
    batched over all N at once.
    """
    counts = np.zeros(limit + 1, dtype=np.float64)
    d = 0
    while 2 * d * d <= limit:
        base = 2 * d * d
        cs = np.arange(0, isqrt(limit - base) + 1)
        weights = np.where(cs == 0, 1, 2) * (1 if d == 0 else 2)
        counts += np.bincount(base + cs * cs, weights=weights, minlength=limit + 1)
        d += 1
    return counts.astype(np.int64)


def test_criterion_5_dirichlet_formula():
    limit = 100_000
    signed = _signed_c2_2d2_table(limit)

    # tie the batched enumeration to the per-N brute force
    rng = random.Random(5)
    for n in (rng.randrange(1, limit) | 1 for _ in range(50)):
        assert signed[n] == signed_reps_c2_plus_2d2(n), n

    divisor_bad = [
        n
        for n in range(1, limit + 1, 2)
        if signed[n] != 2 * divisor_classes_mod8(n).dirichlet_weight
    ]

    eightfold_bad = []
    for m in range(1, 10_000 + 1):
        if m % 3 != 1:
            continue
        if r2_bruteforce(8 * m + 2) != 8 * count_theta_pairs(m, 3):
            eightfold_bad.append(m)

    ok = not divisor_bad and not eightfold_bad
    report(
        5,
        ok,
        "signed c^2+2d^2 counts == 2(d1+d3-d5-d7) for odd N <= 1e5; "
        "r2(8m+2) == 8*R2 for m <= 1e4, m == 1 (mod 3)",
    )
    assert not divisor_bad, divisor_bad[:5]
    assert not eightfold_bad, eightfold_bad[:5]


def test_criterion_6_congruence_tables():
    expected_12p = {5: {13, 37}, 7: {13, 61, 73}, 11: {13, 61, 73, 85, 109}}
    expected_24p = {3: {51}, 5: {51, 99}, 7: {51, 99, 123}, 11: {51, 123, 171, 195, 219}}

    table_ok = True
    for p, expected in expected_12p.items():
        table_ok &= {f.residue for f in generate_12p_family(p)} == expected
    for p, expected in expected_24p.items():
        table_ok &= {f.residue for f in generate_24p_family(p)} == expected
    table_ok &= {(f.modulus, f.residue) for f in fixed_families()} == {(12, 9), (24, 13), (24, 19)}

    parity = a_parity_series(100_000)
    failures = [
        fam.label for fam in all_families() if not verify_family(fam, parity).ok
    ]

    ok = table_ok and not failures
    report(6, ok, f"all printed (p, r) tables reproduced; {len(all_families())} families clean to 1e5")
    assert table_ok
    assert not failures, failures


@pytest.fixture(scope="module")
def census_1e6():
    return {result.class_tag: result for result in sparse_odd_census(10**6)}


@pytest.mark.parametrize("tag", ["even", "4m+1", "8m+3"])
def test_criterion_7_density_zero_trend(census_1e6, tag):
    result = census_1e6[tag]
    marks = {c.x: c for c in result.checkpoints}
    d4, d5, d6 = (marks[10**k].density for k in (4, 5, 6))
    decreasing = d4 > d5 > d6
    below_bound = d6 < 0.01

    agree = result.mismatch is None
    ok = agree and decreasing and below_bound
    report(
        7,
        ok,
        f"class {tag}: routes agree={agree}, densities "
        f"1e4={d4:.6f} > 1e5={d5:.6f} > 1e6={d6:.6f}, final < 0.01: {below_bound}",
    )
    assert agree, f"class {tag}: predicate and series disagree at n={result.mismatch}"
    assert decreasing, f"class {tag}: densities not strictly decreasing"
    assert below_bound, (
        f"class {tag}: odd density {d6:.6f} at X=1e6 is not below 0.01. "
        "This bound cannot hold: the class keeps all its primes (e.g. every prime "
        "== 5 (mod 12) makes a(n) odd in 4m+1), so the density decays like 1/log X "
        "and is still near 0.09 at 1e6."
    )


def test_criterion_8_conjecture_experiment():
    start = time.perf_counter()
    first = density_8m7(10**6)
    elapsed = time.perf_counter() - start
    second = density_8m7(10**6)

    in_band = 0.45 <= first.checkpoints[-1].density <= 0.55
    deterministic = first == second
    cross_checked = first.cross_checked == 1000

    ok = in_band and deterministic and cross_checked and elapsed < 300.0
    report(
        8,
        ok,
        f"odd density of f3^8/f1^3 at X=1e6 is {first.checkpoints[-1].density:.6f} in [0.45, 0.55]; "
        f"deterministic={deterministic}; extraction cross-check on {first.cross_checked} indices; "
        f"{elapsed:.1f}s",
    )
    assert in_band, first.checkpoints[-1].density
    assert deterministic
    assert cross_checked
    assert elapsed < 300.0
