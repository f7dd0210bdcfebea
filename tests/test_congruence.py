import pytest

from oddmult import congruence, numtheory
from oddmult.congruence import (
    CongruenceFamily,
    all_families,
    fixed_families,
    generate_12p_family,
    generate_24p_family,
    verify_family,
)


def residues(families):
    return sorted(f.residue for f in families)


def test_fixed_families():
    got = {(f.modulus, f.residue) for f in fixed_families()}
    assert got == {(12, 9), (24, 13), (24, 19)}


def test_generate_12p_lists():
    assert residues(generate_12p_family(5)) == [13, 37]  # r in {1, 3}
    assert residues(generate_12p_family(7)) == [13, 61, 73]  # r in {1, 5, 6}
    assert residues(generate_12p_family(11)) == [13, 61, 73, 85, 109]
    assert [f.r for f in generate_12p_family(11)] == [1, 5, 6, 7, 9]
    assert all(f.modulus == 132 for f in generate_12p_family(11))


def test_generate_24p_lists():
    assert residues(generate_24p_family(3)) == [51]  # r = 2
    assert residues(generate_24p_family(5)) == [51, 99]  # r in {2, 4}
    assert residues(generate_24p_family(7)) == [51, 99, 123]
    assert residues(generate_24p_family(11)) == [51, 123, 171, 195, 219]
    assert [f.r for f in generate_24p_family(11)] == [2, 5, 7, 8, 9]


def test_zero_class_is_excluded():
    # p=5: r=2 gives 12r+1 = 25 == 0 (mod 5); neither residue nor nonresidue
    assert 2 not in {f.r for f in generate_12p_family(5)}
    # p=3: r=1 gives 8r+1 = 9 == 0 (mod 3)
    assert 1 not in {f.r for f in generate_24p_family(3)}


def test_generator_domain_errors():
    for p in (4, 3, 1, 9, -5):
        with pytest.raises(ValueError):
            generate_12p_family(p)
    for p in (2, 1, 9, 15):
        with pytest.raises(ValueError):
            generate_24p_family(p)


@pytest.mark.parametrize(
    "generate, slope, p", [(generate_12p_family, 12, 97), (generate_24p_family, 8, 97), (generate_24p_family, 8, 3)]
)
def test_generators_check_p_once(monkeypatch, generate, slope, p):
    # p is checked once per call; each r is then tested by Euler's criterion
    # alone, which does not check p again
    calls = []
    real_is_prime = numtheory.is_prime

    def counting_is_prime(n):
        calls.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(numtheory, "is_prime", counting_is_prime)
    monkeypatch.setattr(congruence, "is_prime", counting_is_prime)
    families = generate(p)
    assert calls == [p]
    nonzero_squares = {x * x % p for x in range(1, p)}
    assert [f.r for f in families] == [r for r in range(1, p) if (slope * r + 1) % p not in nonzero_squares | {0}]


def test_family_residue_validation():
    with pytest.raises(ValueError):
        CongruenceFamily(12, 12, "bad")
    with pytest.raises(ValueError):
        CongruenceFamily(12, -1, "bad")


def test_all_families_count_and_sources():
    families = all_families()
    assert len(families) == 3 + (2 + 3 + 5) + (1 + 2 + 3 + 5)
    assert len({(f.modulus, f.residue) for f in families}) == len(families)
    assert all(f.source for f in families)


def test_every_family_verifies_to_10k(parity_10k):
    # bound 100 lies below residues such as 219 of a(264n+219): nothing to check there
    for bound in (10_000, 100):
        for family in all_families():
            result = verify_family(family, parity_10k.truncate(bound))
            assert result.ok, family.label
            assert result.checked == len(range(family.residue, bound, family.modulus))


def test_wrong_family_is_caught(parity_10k):
    bogus = CongruenceFamily(8, 7, "deliberately wrong: the open class")
    result = verify_family(bogus, parity_10k.truncate(1000))
    assert not result.ok
    assert result.counterexample == 7  # a(7) = 9 is odd


def test_verdicts_consistent_with_predicates(parity_10k):
    # congruences are consequences of the characterizations: the predicate
    # route must call every family index even
    from oddmult.characterize import predict_parity

    for family in all_families():
        for n in range(family.residue, 3000, family.modulus):
            assert predict_parity(n) is False, (family.label, n)
