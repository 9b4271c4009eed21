import pytest

from primesig import (
    PROBABLE_PRIME,
    CarmichaelFrobeniusResult,
    KorseltCertificate,
    carmichael_frobenius,
    frobenius_test,
    korselt,
)

from oracles import fermat_carmichael, sieve

# 561 = 3*11*17 is the smallest Carmichael number; the list below 10^4
# is classical.
SMALL_CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def test_korselt_classic_instances():
    for n in SMALL_CARMICHAELS:
        cert = korselt(n)
        assert cert.validates, n
        assert cert.failure_reason is None
        assert len(cert.factorization.factors) >= 3
        assert n % 2 == 1


def test_korselt_rejections():
    assert korselt(8).failure_reason == "not-squarefree"
    assert korselt(9).failure_reason == "not-squarefree"
    assert korselt(17).failure_reason == "prime"
    assert korselt(15).failure_reason == "divisibility fails at 5"  # 4 | 14 fails
    assert korselt(105).failure_reason == "divisibility fails at 7"  # 6 | 104 fails
    # 4 = 2^2 is the even squarefree-fail case.
    assert not korselt(4).validates


def test_korselt_two_prime_factors_fail_divisibility():
    # n = pq, p < q: q - 1 | n - 1 = p(q - 1) + p - 1 would need
    # q - 1 | p - 1, so no separate count of prime factors is needed.
    limit = 10**5
    flags = sieve(limit // 3)
    primes = [p for p in range(3, len(flags)) if flags[p]]
    checked = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q > limit:
                break
            assert korselt(p * q).failure_reason.startswith("divisibility fails at "), p * q
            checked += 1
    assert checked == 18181  # every odd pq <= 10^5 with p < q


def test_korselt_rejects_tiny():
    with pytest.raises(ValueError):
        korselt(1)


def test_korselt_certificate_shape():
    cert = korselt(561)
    assert isinstance(cert, KorseltCertificate)
    assert cert.factorization.primes() == (3, 11, 17)
    assert cert.checks == ((3, True), (11, True), (17, True))
    assert cert.squarefree


def test_korselt_matches_fermat_oracle():
    # Acceptance covers [3, 10^4]; keep the always-on slice smaller.
    for n in range(3, 3001):
        assert korselt(n).validates == (
            fermat_carmichael(n) and not korselt(n).factorization.is_prime
        ), n


def test_carmichael_frobenius_degree_one_reduces_to_korselt():
    for n in SMALL_CARMICHAELS:
        res = carmichael_frobenius(n, (-1, 1))
        assert bool(res), n
        assert res.korselt.validates
        # x - 1 has discriminant 1: every prime factor splits, none ramified.
        assert [e.p for e in res.splitting] == list(res.korselt.factorization.primes())
        assert all(e.splits and not e.ramified for e in res.splitting)
    assert not carmichael_frobenius(15, (-1, 1))
    assert not carmichael_frobenius(25, (5, 1))


def test_carmichael_frobenius_quadratic_positive():
    # 252601 = 41*61*101; every factor is 1 mod 5, so x^2 - x - 1 splits
    # completely at each of them.
    res = carmichael_frobenius(252601, (-1, -1, 1))
    assert bool(res)
    assert isinstance(res, CarmichaelFrobeniusResult)
    assert [e.p for e in res.splitting] == [41, 61, 101]
    assert all(e.splits and not e.ramified for e in res.splitting)


def test_carmichael_frobenius_quadratic_negative():
    res = carmichael_frobenius(561, (-1, -1, 1))
    assert not res
    assert "3" in res.reason and "17" in res.reason
    by_p = {e.p: e for e in res.splitting}
    assert by_p[11].splits
    assert not by_p[3].splits and not by_p[17].splits


def test_carmichael_frobenius_ramified_prime():
    # 62745 = 3*5*47*89 is Carmichael but contains the ramified prime 5
    # of x^2 - x - 1 (discriminant 5).
    res = carmichael_frobenius(62745, (-1, -1, 1))
    assert not res
    by_p = {e.p: e for e in res.splitting}
    assert by_p[5].ramified and not by_p[5].splits
    assert by_p[89].splits


def test_carmichael_frobenius_non_carmichael_short_circuits():
    res = carmichael_frobenius(21, (-1, -1, 1))
    assert not res
    assert not res.korselt.validates


def test_carmichael_frobenius_implies_frobenius_probable_prime():
    # The operative reduction, checked on a concrete instance.
    assert carmichael_frobenius(252601, (-1, -1, 1))
    assert frobenius_test(252601, (-1, -1, 1)).verdict == PROBABLE_PRIME
