import math
import random

import pytest

from primesig import (
    PERRIN,
    PRESETS,
    PROBABLE_PRIME,
    ConstructionCertificate,
    ConstructionParams,
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
        modulus = rng.choice([4, 9, 12, 35, 36, 60, 97])
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


def test_subset_search_budget_truncates():
    pool = [p for p in range(3, 200) if is_prime_baseline(p) and p != 5][:18]
    full = subset_product_search(pool, 5, 5)
    assert full.complete
    clipped = subset_product_search(pool, 5, 5, budget=10)
    assert not clipped.complete
    assert set(clipped.subsets) <= set(full.subsets)


def test_construct_classic_preset():
    result = construct(PRESETS["classic-Q"])
    assert result.k == 66 and result.modulus == 35
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


def test_construct_empty_harvest():
    result = construct(PRESETS["empty-range"])
    assert result.certificates == []
    assert any("harvest" in note for note in result.diagnostics)


def test_construct_degenerate_t_max():
    params = ConstructionParams(
        y=3, q_range=(3, 8), k_min=1, k_max=100, x_bound=3000, t_max=2, poly=(-1, 1)
    )
    result = construct(params)
    assert result.certificates == []
    assert any("t_max" in note for note in result.diagnostics)


def test_params_validation():
    good = PRESETS["classic-Q"]
    good.validate()
    with pytest.raises(ValueError):
        ConstructionParams(
            y=3, q_range=(3, 8), k_min=1, k_max=4, x_bound=300, t_max=5, poly=(1, 2)
        ).validate()
    with pytest.raises(ValueError):
        ConstructionParams(
            y=3, q_range=(3, 8), k_min=0, k_max=4, x_bound=300, t_max=5, poly=(-1, 1)
        ).validate()
    with pytest.raises(ValueError):
        ConstructionParams(
            y=3, q_range=(3, 8), k_min=1, k_max=4, x_bound=300, t_max=5, poly=(1, 2, 1)
        ).validate()


def test_params_problem_diagnostics():
    params = ConstructionParams(
        y=1, q_range=(9, 8), k_min=5, k_max=4, x_bound=300, t_max=2, poly=(-1, 1)
    )
    notes = params.problems()
    assert len(notes) >= 3
