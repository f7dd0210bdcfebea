import random
from collections import Counter
from math import isqrt

import pytest

from oddmult.etaq import a_parity_series
from oddmult.numtheory import (
    MAX_INPUT,
    _euler_criterion,
    _pollard_rho,
    count_theta_pairs,
    factorize,
    is_prime,
    is_square,
)
from oracles import divisor_classes_mod8, divisors, r2_bruteforce, r2_from_divisors, signed_reps_c2_plus_2d2


def naive_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


# -- factorization -----------------------------------------------------------


def test_factorize_examples():
    assert factorize(45) == ((3, 2), (5, 1))
    assert factorize(125) == ((5, 3),)
    assert factorize(1) == ()
    assert factorize(2**62) == ((2, 62),)


def test_factorize_domain_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(MAX_INPUT + 1)


def test_factorize_matches_naive_small():
    rng = random.Random(1)
    for n in [*range(1, 300), *(rng.randrange(1, 10**7) for _ in range(150))]:
        assert factorize(n) == naive_factorize(n), n


def test_factorize_round_trip_large():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randrange(10**9, 10**12)
        fact = factorize(n)
        prod = 1
        for p, e in fact:
            assert is_prime(p)
            prod *= p**e
        assert prod == n
        assert [p for p, _ in fact] == sorted(p for p, _ in fact)


def test_factorize_hard_composites():
    # semiprimes beyond the trial-division range exercise rho
    n = 999983 * 999979
    assert factorize(n) == ((999979, 1), (999983, 1))
    p = 2147483647  # 2^31 - 1
    assert factorize(p * p) == ((p, 2),)
    assert factorize(2**61 - 1) == ((2**61 - 1, 1),)


@pytest.mark.parametrize("n", [25, 35, 143, 169])
def test_pollard_rho_backtracks_when_a_batch_overshoots(n):
    # the batched gcd of these n is n itself, so Brent's variant steps back
    # one iterate at a time from the batch's start to find the factor
    d = _pollard_rho(n)
    assert 1 < d < n and n % d == 0


def test_is_prime_witness_set():
    assert is_prime(2) and is_prime(3) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(0)
    for carmichael in (561, 1105, 1729, 3215031751):
        assert not is_prime(carmichael)


# -- squares -----------------------------------------------------------------


def test_is_square():
    assert is_square(0) and is_square(1) and is_square(25)
    assert not is_square(26)
    with pytest.raises(ValueError):
        is_square(-1)


# -- the test oracles of tests/oracles.py -------------------------------------


def test_divisors_of_360():
    ds = divisors(factorize(360))
    assert len(ds) == 24 and ds[0] == 1 and ds[-1] == 360
    assert all(360 % d == 0 for d in ds)
    assert ds == sorted(ds)


def test_divisor_classes_examples():
    c11 = divisor_classes_mod8(11)
    assert (c11.d1, c11.d3, c11.d5, c11.d7) == (1, 1, 0, 0)
    c33 = divisor_classes_mod8(33)  # divisors 1, 3, 11, 33; 33 == 1 (mod 8)
    assert (c33.d1, c33.d3, c33.d5, c33.d7) == (2, 2, 0, 0)
    assert divisor_classes_mod8(105).total == 8


def test_divisor_classes_rejects_even():
    with pytest.raises(ValueError):
        divisor_classes_mod8(10)


def test_d5_equals_d7_for_3_mod_8():
    # divisors 5 and 7 mod 8 pair up under d -> N/d when N == 3 (mod 8)
    for n in range(3, 100_000, 8):
        counts = divisor_classes_mod8(n)
        assert counts.d5 == counts.d7, n


# -- quadratic form counters ---------------------------------------------------


def test_constrained_two_square_examples():
    assert count_theta_pairs(1, 3) == 1  # 8m+2 = 10 = 3^2 + 1^2, k=1, j=0
    assert count_theta_pairs(0, 3) == 1  # 8m+2 = 2 = 1^2 + 1^2, k=0, j=0
    for m, scale in ((-1, 3), (1, 0)):
        with pytest.raises(ValueError):
            count_theta_pairs(m, scale)


def test_constrained_count_vanishes_for_m_2_mod_3():
    for m in range(2, 400, 3):
        assert count_theta_pairs(m, 3) == 0, m


def test_theta_pair_parity_is_a_parity():
    # a(4m+1) and a(8m+3) mod 2 are the pair counts at scales 3 and 6
    bits = a_parity_series(8 * 5000).to_bit_array()
    for m in range(5000):
        assert count_theta_pairs(m, 3) & 1 == bits[4 * m + 1], m
        assert count_theta_pairs(m, 6) & 1 == bits[8 * m + 3], m


def test_theta_pairs_count_the_quadratic_forms():
    # every pair of the forms' own variables up to 8 * 2000 + 3: (a >= 0,
    # b in Z) for (2a+1)^2 + (6b-1)^2 = 8m+2, and c, d > 0 with 3 not | d
    # for c^2 + 2d^2 = 8m+3
    r = isqrt(8 * 2000 + 3)
    two_squares = Counter((2 * a + 1) ** 2 + (6 * b - 1) ** 2 for a in range(r + 1) for b in range(-r, r + 1))
    c2_plus_2d2 = Counter(c * c + 2 * d * d for c in range(1, r + 1) for d in range(1, r + 1) if d % 3)
    for m in range(2000):
        assert count_theta_pairs(m, 3) == two_squares[8 * m + 2], m
        assert count_theta_pairs(m, 6) == c2_plus_2d2[8 * m + 3], m


def test_r2_examples():
    assert r2_bruteforce(1) == r2_from_divisors(1) == 4
    assert r2_bruteforce(10) == r2_from_divisors(10) == 8
    assert r2_bruteforce(25) == r2_from_divisors(25) == 12


def test_r2_formula_matches_bruteforce():
    for n in range(1, 20_000):
        assert r2_bruteforce(n) == r2_from_divisors(n), n
    rng = random.Random(4)
    for n in (rng.randrange(20_000, 10**6) for _ in range(300)):
        assert r2_bruteforce(n) == r2_from_divisors(n), n


def test_r2_eightfold_relation_small():
    # m == 1 (mod 3): every representation of 8m+2 = c^2+d^2 has exactly one
    # side divisible by 3, so ordered signed pairs come in groups of 8
    for m in range(1, 3000, 3):
        assert r2_bruteforce(8 * m + 2) == 8 * count_theta_pairs(m, 3), m


def test_c2_plus_2d2_examples():
    assert count_theta_pairs(1, 6) == 1  # 8m+3 = 11 = 3^2 + 2*1^2
    assert count_theta_pairs(0, 6) == 1  # 8m+3 = 3 = 1^2 + 2*1^2
    # 19 = 1^2 + 2*3^2 only: one positive pair, but 3 divides d
    assert signed_reps_c2_plus_2d2(19) == 4
    assert count_theta_pairs(2, 6) == 0
    with pytest.raises(ValueError):
        signed_reps_c2_plus_2d2(0)


def test_signed_c2_plus_2d2_dirichlet_small():
    for n in range(1, 3001, 2):
        counts = divisor_classes_mod8(n)
        assert signed_reps_c2_plus_2d2(n) == 2 * counts.dirichlet_weight, n


# -- residues ----------------------------------------------------------------


def test_legendre_examples():
    assert _euler_criterion(3, 5) == -1  # squares mod 5 are {0, 1, 4}
    assert _euler_criterion(4, 7) == 1
    assert _euler_criterion(10, 5) == 0


def test_legendre_matches_square_enumeration():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert _euler_criterion(a, p) == expected, (a, p)
