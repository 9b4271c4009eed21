import math
import random
import sys

import pytest

import primesig.modarith
from primesig import (
    BudgetExceededError,
    Factorization,
    factorize,
    find_k_and_primes,
    is_prime_baseline,
    jacobi,
    korselt,
    subset_product_search,
)

from oracles import factorize_naive, is_prime_naive, jacobi_naive, sieve


def test_small_primes_are_the_primes_up_to_the_trial_limit():
    limit = primesig.modarith._TRIAL_LIMIT
    flags = sieve(limit)
    primes = primesig.modarith._small_primes()
    assert primes == [p for p in range(limit + 1) if flags[p]] and len(primes) == 1229


def test_jacobi_known_values():
    assert jacobi(1, 9) == 1
    assert jacobi(-23, 7) == -1
    assert jacobi(2, 15) == 1
    assert jacobi(-23, 59) == 1
    assert jacobi(-23, 13) == 1
    assert jacobi(0, 9) == 0
    assert jacobi(6, 9) == 0  # shared factor 3


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 8)
    with pytest.raises(ValueError):
        jacobi(3, 0)
    with pytest.raises(ValueError):
        jacobi(3, -7)


def test_jacobi_matches_factored_definition():
    rng = random.Random(101)
    for n in range(3, 2001, 2):
        for _ in range(4):
            a = rng.randint(-3 * n, 3 * n)
            assert jacobi(a, n) == jacobi_naive(a, n), (a, n)


def test_jacobi_completely_multiplicative():
    # Every odd modulus up to 2000; (a, b) pairs drawn per modulus.
    rng = random.Random(7)
    for n in range(1, 2001, 2):
        for _ in range(8):
            a = rng.randint(0, 4 * n)
            b = rng.randint(0, 4 * n)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_euler_criterion_exhaustive():
    flags = sieve(1000)
    for p in range(3, 1001, 2):
        if not flags[p]:
            continue
        for a in range(p):
            euler = pow(a, (p - 1) // 2, p)
            expected = -1 if euler == p - 1 else euler
            assert jacobi(a, p) == expected


def test_jacobi_zero_exactly_on_shared_factor():
    for n in range(3, 500, 2):
        for a in range(n):
            assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


def test_is_prime_baseline_agrees_with_sieve_to_a_million():
    flags = sieve(10**6)
    for n in range(10**6 + 1):
        assert is_prime_baseline(n) == bool(flags[n]), n


def test_is_prime_baseline_trivia():
    assert is_prime_baseline(2)
    assert not is_prime_baseline(561)
    assert is_prime_baseline(104729)
    assert not is_prime_baseline(0)
    assert not is_prime_baseline(1)
    assert not is_prime_baseline(-7)


def test_is_prime_baseline_strong_pseudoprime_traps():
    # Composites that fool small fixed-base batteries.
    assert not is_prime_baseline(3215031751)  # strong psp to 2,3,5,7
    assert not is_prime_baseline(3825123056546413051)  # 149491*747451*34233211
    assert is_prime_baseline((1 << 61) - 1)
    # Past the deterministic boundary the probabilistic battery still
    # answers; spot values are Mersenne primes and their squares.
    assert is_prime_baseline((1 << 89) - 1)
    assert not is_prime_baseline(((1 << 61) - 1) ** 2)


def test_lucas_layer_rejects_psi12():
    # psi_12, the least strong pseudoprime to all twelve wide bases
    # (Sorenson and Webster, 2017): only the strong Lucas check rejects it.
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    assert all(primesig.modarith._strong_probable_prime(psi12, base)
               for base in primesig.modarith._MR_BASES_WIDE)
    assert not is_prime_baseline(psi12)


def test_strong_lucas_layer_below_ten_to_the_five():
    # Every odd prime passes, and the composites that pass are the strong
    # Lucas pseudoprimes of Selfridge's parameters below 10^5 (OEIS A217255).
    flags = sieve(10**5)
    odd = range(3, 10**5, 2)
    passed = [n for n in odd if primesig.modarith._strong_lucas_probable_prime(n)]
    assert [n for n in passed if flags[n]] == [n for n in odd if flags[n]]
    assert [n for n in passed if not flags[n]] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


def test_factorize_known_values():
    assert factorize(12).as_dict() == {2: 2, 3: 1}
    assert factorize(561).as_dict() == {3: 1, 11: 1, 17: 1}
    assert factorize(271441).as_dict() == {521: 2}
    assert factorize(2).as_dict() == {2: 1}
    # Edges of the gcd step and of the rule that a cofactor below 10**8 is
    # prime: 10007 is the first prime above 10**4 and 10007**2 > 10**8,
    # 99999989 is the last prime below 10**8, 10009 * 10037 > 10**8.
    assert factorize(4).as_dict() == {2: 2}
    assert factorize(10007**2).as_dict() == {10007: 2}
    assert factorize(9973 * 10007).as_dict() == {9973: 1, 10007: 1}
    assert factorize(9973**2 * 10007).as_dict() == {9973: 2, 10007: 1}
    assert factorize(2**20 * 3**5 * 99999989).as_dict() == {2: 20, 3: 5, 99999989: 1}
    assert factorize(99999989 * 100000007).as_dict() == {99999989: 1, 100000007: 1}
    assert factorize(10007 * 10009 * 10037).as_dict() == {10007: 1, 10009: 1, 10037: 1}
    assert factorize(10**9 + 7).as_dict() == {10**9 + 7: 1}


def test_factorize_rejects_small_input():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reassembles_ten_thousand_consecutive():
    for n in range(2, 10002):
        fact = factorize(n)
        assert fact.base == n
        product = 1
        for p, e in fact.factors:
            assert is_prime_naive(p)
            product *= p**e
        assert product == n
        assert fact.as_dict() == factorize_naive(n)


def test_factorize_larger_semiprimes():
    rng = random.Random(23)
    primes = [p for p in range(10**5, 10**5 + 3000) if is_prime_naive(p)]
    for _ in range(20):
        p, q = rng.sample(primes, 2)
        assert factorize(p * q).as_dict() == {p: 1, q: 1}


def test_factorize_budget_exhaustion_carries_partial():
    # Whatever is found plus whatever is left must give back n.  For the
    # second n the n - 1 chains split off 1001683 and hand the rest to rho.
    p, q = 1000003, 1000033
    cases = ((8 * p * q, {2: 3}, [p * q]),
             (15 * 1000039 * 1000211 * 1001683, {3: 1, 5: 1, 1001683: 1},
              [1000039 * 1000211]))
    for n, partial, remaining in cases:
        with pytest.raises(BudgetExceededError) as info:
            factorize(n, budget=10)
        err = info.value
        assert (err.partial, err.remaining) == (partial, remaining)
        assert math.prod(f**e for f, e in err.partial.items()) * math.prod(err.remaining) == n
        assert all(is_prime_naive(f) for f in err.partial)


def test_factorize_splits_carmichael_numbers_without_rho(monkeypatch):
    # A Carmichael n has lambda(n) | n - 1, so the n - 1 split breaks n and
    # every cofactor of it, and here Brent rho is never reached.  The
    # products are cubic-splitting Carmichael numbers over L = 720720
    # (77-133 bits) and over lcm(1..17) = 12252240 (83-189 bits).
    def no_rho(m, budget):
        raise AssertionError(f"rho called on {m}")

    monkeypatch.setattr(primesig.modarith, "_rho_split", no_rho)
    cubic = (-1, -1, 0, 1)
    subsets = []
    for L, k_range, x_bound, lo in ((720720, (1, 30), 10**6, 0),
                                     (12252240, (23, 23), 10**8, 13)):
        k, pool = find_k_and_primes(L, cubic, k_range, x_bound)
        found = subset_product_search(pool[lo:], L, 10)
        assert found.complete and len(found.subsets) == 6
        subsets.extend(found.subsets)
    assert max(math.prod(s) for s in subsets).bit_length() > 180
    for subset in subsets:
        n = math.prod(subset)
        assert factorize(n).factors == tuple((p, 1) for p in subset), subset
    # A 546-bit complement (ROADMAP item 2): the pool over lcm(1..17) for
    # k = 23 without six of its 39 primes, 33 primes whose product is 1 mod
    # 23 * L.
    L = 12252240
    _, pool = find_k_and_primes(L, cubic, (23, 23), 10**8)
    subset = [p for p in pool if p not in (599, 2393, 107641, 552553, 782783, 2134861)]
    n = math.prod(subset)
    assert len(subset) == 33 and n.bit_length() == 546 and n % (23 * L) == 1
    assert factorize(n).factors == tuple((p, 1) for p in subset)
    assert korselt(n).validates


def test_factorize_certifies_a_whole_prime_after_one_chain(monkeypatch):
    # A piece the gcd step leaves whole whose base-2 chain reaches 1 without
    # a split is a strong probable prime to base 2; is_prime_baseline then
    # certifies it before the next base.  The three-argument pow calls made
    # by _miller_split are its chains.
    chains = []

    def counting_pow(*args):
        if sys._getframe(1).f_code.co_name == "_miller_split":
            chains.append(args[0])
        return pow(*args)

    monkeypatch.setattr(primesig.modarith, "pow", counting_pow, raising=False)
    for n in (2**127 - 1, 2**89 - 1, 10**9 + 7):
        chains.clear()
        assert factorize(n).as_dict() == {n: 1}
        assert chains == [2], n
    # 13537 * 27073 * 40609 is a strong pseudoprime to base 2 with no prime
    # factor below 10^4: is_prime_baseline rejects it and the chains go on.
    chains.clear()
    assert factorize(13537 * 27073 * 40609).as_dict() == {13537: 1, 27073: 1, 40609: 1}
    assert chains[0] == 2 and len(chains) > 1


def test_factorize_certifies_a_prime_piece_after_one_chain(monkeypatch):
    # A piece of 10^8 or more that the gcd step does not leave whole has the
    # chain exponent n - 1, not piece - 1, so no chain is a strong test of
    # it; is_prime_baseline settles it right after base 2's chain, and n
    # costs no more modular powers than the prime piece alone.
    calls = []

    def counting_pow(*args):
        if len(args) == 3:
            calls.append(sys._getframe(1).f_code.co_name)
        return pow(*args)

    monkeypatch.setattr(primesig.modarith, "pow", counting_pow, raising=False)
    for small, prime in ((2, 2**127 - 1), (3, 2**89 - 1)):
        calls.clear()
        assert factorize(prime).as_dict() == {prime: 1}
        alone = len(calls)
        calls.clear()
        assert factorize(small * prime).as_dict() == {small: 1, prime: 1}
        assert calls.count("_miller_split") == 1 and len(calls) == alone == 13, (small, calls)
    # 13537 * 27073 * 40609 is a strong pseudoprime to base 2: is_prime_baseline
    # rejects it and the piece still splits into its primes.
    assert factorize(2 * 13537 * 27073 * 40609).as_dict() == {
        2: 1, 13537: 1, 27073: 1, 40609: 1}


def test_factorize_falls_back_to_rho_on_other_input(monkeypatch):
    # Products of 2-4 primes in (10**4, 10**6) that are not Carmichael
    # numbers, among them a square, a cube and even n (n - 1 odd, s = 0).
    rho_calls = []
    rho = primesig.modarith._rho_split

    def counting_rho(m, budget):
        rho_calls.append(m)
        return rho(m, budget)

    monkeypatch.setattr(primesig.modarith, "_rho_split", counting_rho)
    rng = random.Random(5)
    primes = [p for p in range(10**4 + 1, 10**6, 2) if is_prime_baseline(p)]
    cases = [
        {100003: 2},
        {100003: 3},
        {2: 1, 100003: 1, 999983: 1},
        {2: 3, 10007: 1, 524287: 2},
    ]
    for _ in range(24):
        picks = sorted(rng.sample(primes, rng.randint(2, 4)))
        cases.append({p: 1 for p in picks})
    for expected in cases:
        n = math.prod(p**e for p, e in expected.items())
        squarefree = all(e == 1 for e in expected.values())
        assert not (squarefree and all((n - 1) % (p - 1) == 0 for p in expected))
        assert factorize(n).as_dict() == expected, expected
    assert rho_calls


def test_factorization_properties():
    fact = factorize(180)  # 2^2 * 3^2 * 5
    assert fact.primes() == (2, 3, 5)
    assert not fact.is_squarefree
    assert not fact.is_prime
    assert factorize(30).is_squarefree
    assert factorize(17).is_prime
    assert fact.verify()


def test_factorization_verify_detects_corruption():
    fake = Factorization(base=12, factors=((2, 1), (3, 1)))
    assert not fake.verify()
