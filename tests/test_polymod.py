import random

import pytest

from primesig import (
    FactorFound,
    Found,
    PolyModN,
    discriminant,
    gcmd,
    poly_compose_mod,
    poly_powmod,
    poly_rem,
)

from primesig.polymod import _ppow_monic, _xpow

from naive_frobenius import _powmod as naive_powmod
from oracles import discriminant_by_sylvester, random_monic, sieve

PRIMES_TO_200 = [p for p in range(2, 201) if sieve(200)[p]]


def P(coeffs, n):
    return PolyModN(tuple(coeffs), n)


def test_polymodn_normalizes():
    p = P([8, 7, 0, 0], 7)
    assert p.coeffs == (1,)
    assert P([0, 0], 5).coeffs == ()
    assert P([-1, -1, 0, 1], 5).coeffs == (4, 4, 0, 1)
    assert P([], 3).is_zero
    assert P([0, 0, 1], 9).degree == 2
    assert P([3], 9).degree == 0
    assert P([], 9).degree == -1


def test_polymodn_rejects_bad_modulus():
    with pytest.raises(ValueError):
        P([1], 1)
    with pytest.raises(ValueError):
        P([1], 0)


def test_poly_rem_examples():
    f = P([1, 0, 1], 7)  # x^2 + 1
    assert poly_rem(P([0, 0, 0, 1], 7), f).coeffs == (0, 6)  # x^3 -> 6x
    g = P([-1, -1, 0, 1], 11)
    assert poly_rem(g, g).is_zero
    # x^4 + x mod x^3 - x - 1 over mod 5: x^3 = x + 1, so x^4 = x^2 + x.
    assert poly_rem(P([0, 1, 0, 0, 1], 5), P([-1, -1, 0, 1], 5)).coeffs == (0, 2, 1)


def test_poly_rem_requires_monic():
    with pytest.raises(ValueError):
        poly_rem(P([1, 1], 7), P([1, 2], 7))
    with pytest.raises(ValueError):
        poly_rem(P([1, 1], 7), P([3], 7))


def test_poly_powmod_examples():
    f = P([-1, -1, 0, 1], 7)
    x = P([0, 1], 7)
    assert poly_powmod(x, 7, f).coeffs == (1, 2, 2)
    assert poly_powmod(x, 0, f).coeffs == (1,)
    assert poly_powmod(x, 1, f).coeffs == (0, 1)


def test_poly_powmod_matches_repeated_multiplication():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice([5, 7, 13, 15, 21, 101])
        f = P([rng.randrange(n) for _ in range(rng.randint(1, 4))] + [1], n)
        g = P([rng.randrange(n) for _ in range(f.degree + 1)], n)
        e = rng.randint(0, 40)
        expected = P([1], n)
        for _ in range(e):
            raw = [0] * (len(expected.coeffs) + len(g.coeffs))
            for i, a in enumerate(expected.coeffs):
                for j, b in enumerate(g.coeffs):
                    raw[i + j] += a * b
            expected = poly_rem(P(raw, n), f)
        assert poly_powmod(g, e, f).coeffs == expected.coeffs


def test_xpow_matches_generic_powmod():
    # Cubics take the shift kernel here and the general cubic kernel in
    # _ppow_monic; every other degree takes the generic loop in both.
    rng = random.Random(37)
    for degree in (3, 3, 3, 1, 2, 4, 5):
        for _ in range(40):
            n = rng.randint(2, 1 << rng.choice((8, 64, 140)))
            f = [rng.randrange(n) for _ in range(degree)] + [1]
            e = rng.choice((0, 1, 2, 3, rng.randint(0, 1 << 140)))
            assert _xpow(e, f, n) == _ppow_monic([0, 1], e, f, n), (degree, n, e)


def test_ppow_monic_cubic_matches_naive_powmod():
    # The unrolled cubic g**e kernel against the dict-polynomial oracle,
    # including even moduli, n = 2, g = 0 and the smallest exponents.
    rng = random.Random(41)
    for _ in range(150):
        n = rng.choice((2, 4, rng.randint(3, 1 << 20), rng.randint(3, 1 << 140)))
        if rng.random() < 0.2:
            n += n % 2  # even
        f = [rng.randrange(n) for _ in range(3)] + [1]
        g = rng.choice(([], [0, 0, 0], [rng.randrange(n) for _ in range(rng.randint(1, 5))]))
        e = rng.choice((0, 1, 2, rng.randint(3, 100), rng.randint(0, 1 << 140)))
        ref = naive_powmod({d: c for d, c in enumerate(g) if c % n}, e,
                           {d: c for d, c in enumerate(f) if c}, n)
        ref = {d: c % n for d, c in ref.items() if c % n}
        expected = [ref.get(d, 0) for d in range(max(ref) + 1)] if ref else []
        assert _ppow_monic(g, e, f, n) == expected, (n, f, g, e)


def test_gcmd_examples():
    out = gcmd(P([-1, 0, 1], 5), P([-1, 1], 5))
    assert out == Found(P([-1, 1], 5))
    # x^2 - 1 = (x + 2)(x - 2) + 3 and gcd(3, 15) = 3: the monic gcd
    # fails to exist and the failure surfaces a factor of the modulus.
    out = gcmd(P([-1, 0, 1], 15), P([2, 1], 15))
    assert out == FactorFound(3)
    out = gcmd(P([], 7), P([-1, -1, 0, 1], 7))
    assert out == Found(P([-1, -1, 0, 1], 7))
    out = gcmd(P([-1, -1, 0, 1], 7), P([], 7))
    assert out == Found(P([-1, -1, 0, 1], 7))


def test_gcmd_rejects_two_zeros():
    with pytest.raises(ValueError):
        gcmd(P([], 7), P([], 7))


def test_gcmd_result_is_monic_and_divides_both():
    rng = random.Random(47)
    moduli = PRIMES_TO_200 + [4, 9, 15, 21, 49, 91, 561, 9997]
    for trial in range(10**4):
        n = rng.choice(moduli)
        a = P([rng.randrange(n) for _ in range(rng.randint(0, 6))], n)
        b = P([rng.randrange(n) for _ in range(rng.randint(0, 6))], n)
        if a.is_zero and b.is_zero:
            continue
        out = gcmd(a, b)
        if isinstance(out, FactorFound):
            assert 1 < out.factor < n
            assert n % out.factor == 0
            continue
        g = out.poly
        assert g.is_monic
        if g.degree == 0:
            assert g.coeffs == (1,)  # the unit divides everything
            continue
        for operand in (a, b):
            if not operand.is_zero:
                assert poly_rem(operand, g).is_zero, (a, b, g)


def test_gcmd_never_fails_over_prime_modulus():
    rng = random.Random(59)
    for _ in range(3000):
        p = rng.choice(PRIMES_TO_200)
        a = P([rng.randrange(p) for _ in range(rng.randint(0, 6))], p)
        b = P([rng.randrange(p) for _ in range(rng.randint(0, 6))], p)
        if a.is_zero and b.is_zero:
            continue
        assert isinstance(gcmd(a, b), Found)


def test_gcmd_modulus_mismatch():
    with pytest.raises(ValueError):
        gcmd(P([1, 1], 7), P([1, 1], 11))


def test_poly_compose_mod():
    # The outer polynomial is also the reduction modulus: F(g) mod F.
    f = P([-1, -1, 0, 1], 13)
    x = P([0, 1], 13)
    assert poly_compose_mod(f, x).is_zero
    # f(x^13) mod f is zero exactly when 13 behaves like a prime for f.
    image = poly_powmod(x, 13, f)
    assert poly_compose_mod(f, image).is_zero
    assert poly_compose_mod(P([1, 0, 1], 9), P([0, 1], 9)).is_zero
    # Degree-1 outer means evaluation: F = x - 4, g = x^2 over mod 7
    # gives g(4) - 4 = 12 mod 7 = 5.
    assert poly_compose_mod(P([-4, 1], 7), P([0, 0, 1], 7)).coeffs == (5,)


def test_poly_compose_mod_rejects_non_monic():
    with pytest.raises(ValueError):
        poly_compose_mod(P([1, 2], 7), P([1], 7))


def test_discriminant_known_values():
    assert discriminant((-1, -1, 1)) == 5  # x^2 - x - 1
    assert discriminant((-1, -1, 0, 1)) == -23  # x^3 - x - 1
    assert discriminant((1, 0, 1)) == -4  # x^2 + 1
    assert discriminant((-2, 0, 0, 1)) == -108  # x^3 - 2


def test_discriminant_rejects_degenerate_input():
    with pytest.raises(ValueError):
        discriminant((1, 1))  # degree 1
    with pytest.raises(ValueError):
        discriminant((0, 0, 2))  # not monic
    with pytest.raises(ValueError):
        discriminant((5,))
    # Memoised results must not swallow a repeated bad call.
    for _ in range(2):
        with pytest.raises(ValueError):
            discriminant((0, 0, 2, 0))


def test_discriminant_matches_sylvester_oracle():
    rng = random.Random(71)
    for _ in range(100):
        degree = rng.randint(2, 5)
        coeffs = random_monic(degree, rng)
        assert discriminant(tuple(coeffs)) == discriminant_by_sylvester(coeffs), coeffs


def test_discriminant_vanishes_exactly_at_ramified_primes():
    # x^3 - x - 1 has discriminant -23: a repeated factor mod 23 and
    # none mod other primes.
    f23 = P([-1, -1, 0, 1], 23)
    deriv23 = P([-1, 0, 3], 23)
    out = gcmd(f23, deriv23)
    assert isinstance(out, Found) and out.poly.degree >= 1
    assert discriminant((-1, -1, 0, 1)) % 23 == 0
    rng = random.Random(83)
    for _ in range(20):
        p = rng.choice([q for q in PRIMES_TO_200 if q not in (2, 23)])
        out = gcmd(P([-1, -1, 0, 1], p), P([-1, 0, 3], p))
        assert isinstance(out, Found) and out.poly.degree == 0
        assert discriminant((-1, -1, 0, 1)) % p != 0
