import math
import random
import tracemalloc
from dataclasses import replace

import pytest

from primesig import (
    PERRIN,
    PRESETS,
    PROBABLE_PRIME,
    ConstructionCertificate,
    ConstructionParams,
    SubsetSearchResult,
    carmichael_frobenius,
    construct,
    find_k_and_primes,
    frobenius_test,
    harvest_smooth_primes,
    korselt,
    perrin_test,
    splits_completely,
    subset_product_search,
)
from primesig import constructor, frobenius
from primesig.modarith import factorize, is_prime_baseline

from oracles import subsets_by_enumeration


def test_harvest_classic_window():
    # q in (3, 8] with q - 1 3-smooth: 5 (q-1 = 4) and 7 (q-1 = 6).
    assert harvest_smooth_primes((3, 8), 3) == [5, 7]
    assert harvest_smooth_primes((1, 8), 3) == [2, 3, 5, 7]
    assert harvest_smooth_primes((3, 3), 3) == []


def test_harvest_matches_filter_oracle():
    rng = random.Random(5)
    for _ in range(20):
        lo = rng.randint(1, 400)
        hi = lo + rng.randint(0, 400)
        y = rng.choice([2, 3, 5, 7])
        expected = []
        for q in range(lo + 1, hi + 1):
            if not is_prime_baseline(q):
                continue
            if q == 2 or all(p <= y for p in factorize(q - 1).primes()):
                expected.append(q)
        assert harvest_smooth_primes((lo, hi), y) == expected


def test_harvest_monotone_in_range():
    rng = random.Random(9)
    for _ in range(10):
        lo = rng.randint(1, 100)
        hi = lo + rng.randint(1, 200)
        wider = set(harvest_smooth_primes((lo, hi + 100), 5))
        assert set(harvest_smooth_primes((lo, hi), 5)) <= wider


def test_find_k_small_example():
    # L = 35, divisors 1, 5, 7, 35.  k = 1 yields only p = 2, which is
    # excluded, so k = 2 wins with 2d+1 giving 3, 11, 71 (15 is not
    # prime).
    assert find_k_and_primes(35, (-1, 1), (1, 2), 300) == (2, [3, 11, 71])
    assert find_k_and_primes(35, (-1, 1), (1, 1), 300) is None


def test_find_k_excludes_primes_dividing_modulus():
    # k = 6 hits 7 = 6*1 + 1, but 7 divides 35 and must not enter the
    # pool; the remaining pool is 31, 43, 211.
    assert find_k_and_primes(35, (-1, 1), (6, 6), 3000) == (6, [31, 43, 211])


def test_find_k_classic_window():
    k, pool = find_k_and_primes(35, (-1, 1), (1, 100), 3000)
    assert k == 66
    assert pool == [67, 331, 463, 2311]


def test_find_k_splitting_filter():
    # With x^2 - x - 1 only primes +-1 mod 5 qualify; the classic window
    # keeps just 331 and 2311 at k = 66 and no k reaches three primes.
    assert find_k_and_primes(35, (-1, -1, 1), (1, 100), 3000) is None


def test_find_k_rejects_non_squarefree_poly():
    # (x + 1)^2 and (x - 1)^2 (x + 1) have discriminant 0: every prime
    # would count as ramified, so the call must fail instead of returning
    # an empty answer.
    with pytest.raises(ValueError, match="not squarefree"):
        find_k_and_primes(35, (1, 2, 1), (1, 100), 3000)
    with pytest.raises(ValueError, match="not squarefree"):
        find_k_and_primes(35, [1, -1, -1, 1, 0], (1, 100), 3000)


def test_subset_regression_1729():
    result = subset_product_search([7, 13, 19], 36, 3)
    assert result.subsets == ((7, 13, 19),)
    assert result.complete
    assert 7 * 13 * 19 == 1729 == 48 * 36 + 1


def test_subset_search_validates_input():
    with pytest.raises(ValueError):
        subset_product_search([7, 7, 13], 36, 3)
    with pytest.raises(ValueError):
        subset_product_search([6, 13, 19], 36, 3)  # gcd(6, 36) > 1
    with pytest.raises(ValueError):
        subset_product_search(list(range(101, 600, 6))[:70], 5, 3)  # pool too big


def test_subset_search_empty_sizes():
    assert subset_product_search([7, 13, 19], 36, 2).subsets == ()


def test_subset_search_matches_enumeration():
    rng = random.Random(21)
    for trial in range(30):
        modulus = rng.choice([1, 4, 9, 12, 35, 36, 60, 97])
        pool = []
        candidate = 2
        while len(pool) < rng.randint(6, 12):
            candidate += rng.randint(1, 9)
            if is_prime_baseline(candidate) and modulus % candidate != 0:
                pool.append(candidate)
        t_max = rng.randint(3, 6)
        mine = subset_product_search(pool, modulus, t_max)
        assert mine.complete
        expected = subsets_by_enumeration(pool, modulus, t_max)
        assert sorted(mine.subsets) == sorted(map(tuple, expected)), (
            pool,
            modulus,
            t_max,
        )


def test_subset_search_complete_when_budget_is_used_up_exactly():
    # [7, 13, 19] over 36 costs 4 table steps (right half {13}, left half
    # {7, 19}) and, from the pair scan's own allowance, 2 examined pairs:
    # the two empty subsets, and {7, 19} with {13}.  A budget of 4 covers
    # both.
    full = subset_product_search([7, 13, 19], 36, 3)
    assert full.subsets == ((7, 13, 19),)
    for budget in range(1, 9):
        result = subset_product_search([7, 13, 19], 36, 3, budget=budget)
        assert result.complete == (budget >= 4), budget
        if result.complete:
            assert result.subsets == full.subsets, budget
        assert set(result.subsets) <= set(full.subsets)


def test_subset_search_tables_skip_subsets_above_t_max():
    # Each half of 10 primes has 176 subsets of at most 3 members against
    # 1024 in all, so the tables fit in the budget only without the rest.
    pool = [p for p in range(11, 200) if is_prime_baseline(p)][:20]
    result = subset_product_search(pool, 36, 3, budget=3000)
    assert result.complete
    expected = subsets_by_enumeration(pool, 36, 3)
    assert result.subsets == tuple(expected) and len(expected) == 103


def test_subset_search_table_cut_leaves_pairs():
    pool = [p for p in range(3, 200) if is_prime_baseline(p) and p != 5][:18]
    full = subset_product_search(pool, 5, 5)
    assert full.complete
    for budget in (100, 500, 1023):
        result = subset_product_search(pool, 5, 5, budget=budget)
        assert not result.complete, budget
        assert result.subsets, budget
        assert set(result.subsets) <= set(full.subsets), budget


def test_subset_search_budget_truncates():
    pool = [p for p in range(3, 200) if is_prime_baseline(p) and p != 5][:18]
    full = subset_product_search(pool, 5, 5)
    assert full.complete
    clipped = subset_product_search(pool, 5, 5, budget=10)
    assert not clipped.complete
    assert set(clipped.subsets) <= set(full.subsets)


def test_subset_search_pins_its_cuts():
    # Each half of this pool has 15 subsets of at most 4 members.  A budget
    # of 15 fills the right table (7, 13, 19, 29) and leaves the left one
    # only the empty subset; a budget of 34 fills both tables and cuts the
    # pair scan after 34 of its 64 pairs, inside one left entry's matches.
    # Values taken before the tables became flat residue lists and mask
    # arrays.
    pool = [3, 7, 11, 13, 17, 19, 23, 29]
    assert subset_product_search(pool, 5, 4, budget=15) == SubsetSearchResult(
        ((7, 13, 19, 29),), False)
    assert subset_product_search(pool, 5, 4, budget=34) == SubsetSearchResult(
        ((3, 7, 11), (3, 11, 17), (3, 13, 19), (7, 11, 13), (3, 13, 29), (7, 17, 19),
         (11, 13, 17), (7, 17, 29), (3, 7, 13, 17), (13, 19, 23), (11, 19, 29),
         (3, 11, 13, 19), (3, 7, 19, 29), (3, 11, 13, 29), (7, 11, 17, 19),
         (3, 17, 19, 29), (7, 11, 17, 29), (7, 13, 19, 29), (13, 17, 19, 29)), False)
    assert len(subset_product_search(pool, 5, 4, budget=64).subsets) == 32


def test_subset_search_tables_stay_lean():
    # 32 primes of the pool over lcm(1..17), t_max 10: each half has about
    # 58000 subsets.  tracemalloc's peak was 21.7 MiB with (residue, mask)
    # tuples and a dict of every right residue, and is 7.9 MiB with flat
    # residue lists, mask arrays and a dict of the shared residues alone.
    L = 12252240
    _, pool = find_k_and_primes(L, (-1, -1, 0, 1), (23, 23), 10**8)
    tracemalloc.start()
    try:
        result = subset_product_search(pool[:32], L, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.complete and len(result.subsets) == 54
    assert peak < 12 << 20


def test_internal_callers_do_not_retest_primality(monkeypatch):
    # find_k_and_primes has tested each candidate and factorize has
    # certified each factor, so neither asks splits_completely to test again.
    def no_test(p):
        raise AssertionError(f"{p} tested again")

    monkeypatch.setattr(frobenius, "is_prime_baseline", no_test)
    assert find_k_and_primes(35, (-1, 1), (1, 100), 3000) == (66, [67, 331, 463, 2311])
    assert carmichael_frobenius(7 * 13 * 19, (-1, 1))
    with pytest.raises(AssertionError):
        splits_completely(59, (-1, -1, 0, 1))


def test_construct_classic_preset():
    result = construct(PRESETS["classic-Q"])
    assert result.k == 66 and result.modulus == 35
    assert result.diagnostics == []
    assert [c.n for c in result.certificates] == [10267951, 23729234761]
    small, large = result.certificates
    assert small.subset == (67, 331, 463)
    assert large.subset == (67, 331, 463, 2311)
    for cert in result.certificates:
        assert isinstance(cert, ConstructionCertificate)
        assert math.prod(cert.subset) == cert.n
        assert cert.n % (cert.k * cert.modulus) == 1
        assert korselt(cert.n).validates
        for p in cert.subset:
            assert splits_completely(p, cert.poly)
    # One table entry and one pair: the budget runs out before any match.
    starved = construct(replace(PRESETS["classic-Q"], budget=1))
    assert starved.certificates == [] and starved.pool == result.pool
    assert starved.diagnostics == ["subset stage: step budget exhausted",
                                   "subset stage: no subset product is 1 mod L"]


def test_cubic_splitting_carmichael_numbers_are_perrin_and_frobenius_pseudoprimes():
    # Carmichael numbers whose primes all split for x^3 - x - 1, built
    # over the divisor-rich L = 720720, must pass the weak Perrin test and
    # the Frobenius test for that cubic.
    cubic = (-1, -1, 0, 1)
    k, pool = find_k_and_primes(720720, cubic, (1, 30), 10**6)
    assert (k, len(pool)) == (23, 20)
    found = subset_product_search(pool, 720720, 10)
    assert found.complete and len(found.subsets) == 6
    for subset in found.subsets:
        n = math.prod(subset)
        assert n % (k * 720720) == 1
        assert carmichael_frobenius(n, cubic), n
        assert perrin_test(PERRIN, n, mode="weak").passes, n
        assert frobenius_test(n, cubic).verdict == PROBABLE_PRIME, n
    assert max(math.prod(s) for s in found.subsets).bit_length() > 128


def test_construct_certificate_record_form():
    cert = construct(PRESETS["classic-Q"]).certificates[0]
    record = cert.to_record()
    assert record == {
        "n": "10267951",
        "factors": "67,331,463",
        "k": "66",
        "L": "35",
        "poly": "-1,1",
    }


@pytest.mark.parametrize("poly, subset, reason", [
    ((-1, 1), (67, 331, 2311), "divisibility fails at 331,2311"),
    ((1, 0, 1), (3, 11, 17), "no complete splitting at 3,11"),  # 561, x^2 + 1
    ((-1, 1), (3, 11, 17), "congruence"),  # 561 is Carmichael, not 1 mod k*L
])
def test_construct_rejects_a_product_that_fails_reverification(monkeypatch, poly, subset,
                                                                reason):
    # Hand the re-verification a product the subset search would never
    # return, and check each condition on its own.
    monkeypatch.setattr(constructor, "subset_product_search",
                        lambda *args: SubsetSearchResult((subset,), True))
    params = ConstructionParams(
        y=3, q_range=(3, 8), k_min=1, k_max=100, x_bound=3000, t_max=5, poly=poly)
    result = construct(params)
    n = math.prod(subset)
    assert result.certificates == []
    assert f"re-verification rejected {n}: {reason}" in result.diagnostics


def test_construct_empty_harvest():
    # Valid, yet no prime q in (5, 16] has a 2-smooth q - 1.
    result = construct(ConstructionParams(
        y=2, q_range=(5, 16), k_min=1, k_max=10, x_bound=1000, t_max=4))
    assert result.certificates == [] and result.harvested == ()
    assert result.diagnostics == ["harvest stage: no primes with a smooth q - 1"]
    # L = 2 * 3: an odd k coprime to 6 makes d*k + 1 even for odd d, so
    # each pool holds at most the two primes 2k + 1 and 6k + 1.
    result = construct(ConstructionParams(
        y=2, q_range=(1, 3), k_min=1, k_max=50, x_bound=3000, t_max=5))
    assert result.harvested == (2, 3) and result.modulus == 6
    assert not result.certificates and result.pool == ()
    assert result.diagnostics == ["multiplier stage: no k produced three usable split primes"]


def test_construct_degenerate_t_max():
    with pytest.raises(ValueError, match=r"^t_max = 2 admits no subsets \(minimum size is 3\)$"):
        ConstructionParams(
            y=3, q_range=(3, 8), k_min=1, k_max=100, x_bound=3000, t_max=2, poly=(-1, 1))


def test_params_validation():
    # Each bad value alone raises a ValueError naming only it.
    for change, message in [
        ({"poly": (1, 2)}, "polynomial must be monic of degree >= 1"),
        ({"poly": (1, 2, 1)}, "polynomial (1, 2, 1) is not squarefree"),
        ({"poly": (0, -1, 0, 1)}, "polynomial (0, -1, 0, 1) has the root 0"),
        ({"y": 1}, "smoothness bound y = 1 below 2"),
        ({"q_range": (8, 8)}, "harvest interval (8, 8) is empty"),
        ({"t_max": 2}, "t_max = 2 admits no subsets"),
        ({"k_min": 0}, "k_min must be >= 1"),
        ({"k_min": 101}, "multiplier range [101, 100] is empty"),
        ({"x_bound": 2}, "x_bound must be >= 3"),
        ({"budget": 0}, "budget must be positive"),
    ]:
        with pytest.raises(ValueError) as info:
            replace(PRESETS["classic-Q"], **change)
        assert str(info.value).startswith(message), change
        assert ";" not in str(info.value), change


def test_params_problem_diagnostics():
    # One ValueError names every bad value, before any harvest.
    with pytest.raises(ValueError) as info:
        ConstructionParams(
            y=1, q_range=(9, 8), k_min=0, k_max=-1, x_bound=2, t_max=2, poly=(1, 2, 1),
            budget=0)
    assert str(info.value).split("; ") == [
        "polynomial (1, 2, 1) is not squarefree",
        "smoothness bound y = 1 below 2 harvests at most q = 2, "
        "and no pool can reach three primes",
        "harvest interval (9, 8) is empty",
        "t_max = 2 admits no subsets (minimum size is 3)",
        "k_min must be >= 1",
        "multiplier range [0, -1] is empty",
        "x_bound must be >= 3",
        "budget must be positive",
    ]
