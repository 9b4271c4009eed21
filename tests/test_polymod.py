import math
import random
import sys
import time
import tracemalloc
from itertools import combinations

import pytest

from primesig import RecurrenceParams, discriminant

from primesig.polymod import (Poly, _compose_mod, _discriminant, _gcmd, _gcmd_minus_x,
                              _pdivmod_monic, _ppow_monic, _reduce, _require_poly, _x_rows,
                              _xpow)

from naive_frobenius import _divmod as naive_divmod
from naive_frobenius import _powmod as naive_powmod
from naive_frobenius import _substitute as naive_substitute
from oracles import discriminant_by_sylvester, random_monic, sieve

PRIMES_TO_200 = [p for p in range(2, 201) if sieve(200)[p]]


def rem(a, f, n):
    return _pdivmod_monic(a, f, n)[1]


def as_list(poly):
    # A naive_frobenius dict polynomial as a coefficient list.
    return [poly.get(d, 0) for d in range(max(poly) + 1)] if poly else []


def test_poly_rem_examples():
    f = [1, 0, 1]  # x^2 + 1
    assert rem([0, 0, 0, 1], f, 7) == [0, 6]  # x^3 -> 6x
    g = [10, 10, 0, 1]
    assert rem(g, g, 11) == []
    # x^4 + x mod x^3 - x - 1 over mod 5: x^3 = x + 1, so x^4 = x^2 + x.
    assert rem([0, 1, 0, 0, 1], [4, 4, 0, 1], 5) == [0, 2, 1]
    # Quotient too: x^3 + 2 = x * (x^2 + 1) + (6x + 2) over mod 7.
    assert _pdivmod_monic([2, 0, 0, 1], f, 7) == ([0, 1], [2, 6])
    # A dividend of lower degree is its own (reduced) remainder.
    assert _pdivmod_monic([8, 7], [4, 4, 0, 1], 7) == ([], [1])


def test_pdivmod_monic_matches_naive_divmod():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.choice([2, 5, 7, 9, 15, 21, 101, rng.randint(3, 1 << 80)])
        f = [rng.randrange(n) for _ in range(rng.randint(1, 4))] + [1]
        a = [rng.randrange(-n, n) for _ in range(rng.randint(0, 9))]
        quo, r = naive_divmod({d: c for d, c in enumerate(a) if c % n},
                              {d: c for d, c in enumerate(f) if c}, n)
        assert _pdivmod_monic(a, f, n) == (as_list(quo), as_list(r)), (n, f, a)


def test_poly_powmod_examples():
    f = [6, 6, 0, 1]
    assert _ppow_monic([0, 1], 7, f, 7) == [1, 2, 2]
    assert _ppow_monic([0, 1], 0, f, 7) == [1]
    assert _ppow_monic([0, 1], 1, f, 7) == [0, 1]


def test_poly_powmod_matches_repeated_multiplication():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.choice([5, 7, 13, 15, 21, 101])
        f = [rng.randrange(n) for _ in range(rng.randint(1, 4))] + [1]
        g = [rng.randrange(n) for _ in range(len(f))]
        e = rng.randint(0, 40)
        expected = [1]
        for _ in range(e):
            raw = [0] * (len(expected) + len(g))
            for i, a in enumerate(expected):
                for j, b in enumerate(g):
                    raw[i + j] += a * b
            expected = rem(raw, f, n)
        assert _ppow_monic(g, e, f, n) == expected


def test_xpow_matches_naive_powmod_and_the_generic_loop():
    # Quadratics and cubics take the fused kernel's shift path, which is
    # checked against the dict-polynomial oracle, since the kernel's g path
    # shares its square fold.  Every other degree takes the generic loop in
    # both _xpow and _ppow_monic.  f is reduced mod n, has small
    # coefficients of either sign, as given or reduced, or has coefficients
    # as wide as n of either sign.  n is 2, up to 546 bits, or doubled like
    # the signature's modulus.
    rng = random.Random(37)
    for degree in (3, 3, 3, 3, 1, 2, 2, 4, 5):
        for _ in range(40):
            n = rng.choice((2, rng.randint(2, 1 << rng.choice((8, 64, 140, 157, 546)))))
            n *= rng.choice((1, 2))
            small = [rng.randint(-3, 3) for _ in range(degree)]
            f = rng.choice(([rng.randrange(n) for _ in range(degree)], small,
                            [c % n for c in small],
                            [rng.randrange(-n, n) for _ in range(degree)])) + [1]
            e = rng.choice((0, 1, 2, 3, rng.randint(0, 1 << 140)))
            if degree in (2, 3):
                expected = naive_powmod_list([0, 1], e, f, n)
            else:
                expected = _ppow_monic([0, 1], e, f, n)
            assert _xpow(e, f, n) == expected, (degree, n, e)


def naive_powmod_list(g, e, f, n):
    # g**e mod (n, f) by the dict-polynomial oracle, as a reduced list.
    ref = naive_powmod({d: c for d, c in enumerate(g) if c % n}, e,
                       {d: c for d, c in enumerate(f) if c}, n)
    return as_list({d: c % n for d, c in ref.items() if c % n})


def test_ppow_monic_cubic_matches_naive_powmod():
    # The unrolled cubic g**e kernel against the dict-polynomial oracle,
    # including even moduli (the signature's 2n among them), n = 2, n of
    # 157 and 546 bits, g = 0 and the smallest exponents, for f reduced
    # mod n, with small coefficients of either sign, as given or reduced
    # (the kernel folds with their least absolute residues), or with
    # coefficients as wide as n of either sign.
    rng = random.Random(41)
    for _ in range(300):
        n = rng.choice((2, 4, rng.randint(3, 1 << 20), rng.randint(3, 1 << 140),
                        rng.getrandbits(157) | 1 << 156, rng.getrandbits(546) | 1 << 545))
        if rng.random() < 0.2:
            n *= 2
        small = [rng.randint(-3, 3) for _ in range(3)]
        f = rng.choice(([rng.randrange(n) for _ in range(3)], small, [c % n for c in small],
                        [rng.randrange(-n, n) for _ in range(3)])) + [1]
        g = rng.choice(([], [0, 0, 0], [rng.randrange(n) for _ in range(rng.randint(1, 5))]))
        e = rng.choice((0, 1, 2, 3, rng.randint(3, 100), rng.randint(0, 1 << 140)))
        assert _ppow_monic(g, e, f, n) == naive_powmod_list(g, e, f, n), (n, f, g, e)


def test_quadratics_on_the_cubic_kernel_match_naive_powmod():
    # A quadratic f runs on the cubic kernel mod (x - 1)*f and is reduced
    # by f once at the end.  x^e and g^e against the dict-polynomial
    # oracle, on moduli with small and large factors, even ones and n = 2,
    # for f with small coefficients or ones as wide as n, of either sign.
    rng = random.Random(43)
    moduli = [2, 4, 6, 45, 1155, 2 * 65537, 3 * (2**61 - 1)]
    for _ in range(400):
        n = rng.choice(moduli + [rng.randint(3, 1 << 20), rng.getrandbits(157) | 1 << 156,
                                 rng.getrandbits(546) | 1 << 545])
        f = rng.choice(([rng.randint(-5, 5) for _ in range(2)],
                        [rng.randrange(-n, n) for _ in range(2)])) + [1]
        g = rng.choice(([], [0, 1], [rng.randrange(n) for _ in range(rng.randint(1, 4))]))
        e = rng.choice((0, 1, 2, 3, rng.randint(4, 100), rng.randint(0, 1 << 140)))
        expected = naive_powmod_list(g, e, f, n)
        assert _ppow_monic(g, e, f, n) == expected, (n, f, g, e)
        if g == [0, 1]:
            assert _xpow(e, f, n) == expected, (n, f, e)


def test_xpow_from_the_table_matches_naive_powmod_at_its_edges():
    # For a Poly f, x^e starts from row e >> s of the exact table of x^j
    # mod f (mod (x - 1)*f for a quadratic), j < 2^w, and squares over the
    # s bits left.  Every row inside the table, and the exponents on either
    # side of its end, against the dict-polynomial oracle and against the
    # same f as a list, which starts from x: for n = 2, 3 and 4, doubled
    # moduli, n of 157 and 546 bits and one wider than every row.  The
    # polynomials are the Perrin cubic, x^2 - 5, x^2 + 1 (whose rows never
    # grow, so the row cap ends its table), a cubic whose rows outgrow the
    # bit cap early, and a cubic and a quadratic with coefficients as wide
    # as the 157-bit n, whose tables stop at a few rows.
    rng = random.Random(53)
    n157, n546 = rng.getrandbits(157) | 1 << 156, rng.getrandbits(546) | 1 << 545
    moduli = (2, 3, 4, 6, 8, n157, 2 * n157, n546, 2 * n546, (1 << 1031) + 5)
    cases = {(-1, -1, 0, 1): 9, (-5, 0, 1): 8, (1, 0, 1): 9, (-1, -100, 0, 1): 7,
             (n157 - 3, n157 // 3, -(n157 // 7), 1): 2, (n157 + 2, -n157, 1): 2}
    for cs, w in cases.items():
        f = _require_poly(cs, 2)
        assert _x_rows(f)[0] == w, cs
        inside = range(1, 1 << w) if w <= 2 else [*range(1, 8), *rng.sample(range(8, 1 << w), 6)]
        for e in (*inside, (1 << w) - 1, 1 << w, (1 << w) + 1, rng.getrandbits(60)):
            for n in moduli:
                expected = naive_powmod_list([0, 1], e, f, n)
                assert _xpow(e, f, n) == expected == _xpow(e, list(f), n), (cs, n, e)


def test_x_tables_stay_within_their_memory_bound():
    # A table holds at most 2^9 rows of three integers below 2^512, so it
    # takes under X_TABLE_BYTES whatever f is; the polymod docstring states
    # the same bound.  The worst cases: x^2 + 1, whose rows never grow, so
    # that only the row cap stops it; cubics with coefficients as wide as
    # n, which the bit cap stops within a few rows; and the Perrin cubic,
    # the largest table a test polynomial builds.  The traced peak counts
    # building the table, and the byte count the table as it is kept.
    X_TABLE_BYTES = 192 * 1024
    n = (1 << 545) + 12345
    for cs, rows_wanted in (((1, 0, 1), 512), ((n - 3, n // 3, -(n // 7), 1), 2),
                            ((3, (1 << 200) + 1, -5, 1), 4), ((-1, -1, 0, 1), 512)):
        f = _require_poly(cs, 2)
        _x_rows.cache_clear()
        tracemalloc.start()
        try:
            w, rows = _x_rows(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sys.getsizeof(rows) + sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row))
                                         for row in rows)
        assert len(rows) == 1 << w == rows_wanted, cs
        assert max(abs(c) for row in rows for c in row).bit_length() <= 512
        assert peak < X_TABLE_BYTES and kept < X_TABLE_BYTES, (cs, peak, kept)
    _x_rows.cache_clear()


def test_gcmd_examples():
    assert _gcmd([-1, 0, 1], [-1, 1], 5) == ("found", [4, 1])
    # x^2 - 1 = (x + 2)(x - 2) + 3 and gcd(3, 15) = 3: the monic gcd
    # fails to exist and the failure surfaces a factor of the modulus.
    assert _gcmd([-1, 0, 1], [2, 1], 15) == ("factor", 3)
    assert _gcmd([], [-1, -1, 0, 1], 7) == ("found", [6, 6, 0, 1])
    assert _gcmd([-1, -1, 0, 1], [], 7) == ("found", [6, 6, 0, 1])


def test_gcmd_rejects_two_zeros():
    with pytest.raises(ValueError):
        _gcmd([], [], 7)
    with pytest.raises(ValueError):
        _gcmd([7, 14], [0], 7)


def test_gcmd_result_is_monic_and_divides_both():
    rng = random.Random(47)
    moduli = PRIMES_TO_200 + [4, 9, 15, 21, 49, 91, 561, 9997]
    for trial in range(10**4):
        n = rng.choice(moduli)
        a = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        b = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        if not any(a) and not any(b):
            continue
        kind, out = _gcmd(a, b, n)
        if kind == "factor":
            assert 1 < out < n
            assert n % out == 0
            continue
        assert kind == "found" and out[-1] == 1
        if len(out) == 1:
            continue  # the unit divides everything
        for operand in (a, b):
            assert rem(operand, out, n) == [], (a, b, out)


def test_gcmd_does_not_depend_on_operand_order():
    # 3 is not invertible mod 9, but 3x^2 + 1 is never a divisor here:
    # it is x + 1 and then the remainder 4, both invertible.
    assert _gcmd([1, 1], [1, 0, 3], 9) == _gcmd([1, 0, 3], [1, 1], 9) == ("found", [1])
    rng = random.Random(61)
    moduli = [4, 9, 15, 21, 25, 27, 49, 91, 105, 561, 9997]
    for _ in range(3000):
        n = rng.choice(moduli)
        a = _reduce([rng.randrange(n) for _ in range(rng.randint(0, 5))], n)
        b = [rng.randrange(n) for _ in range(rng.randint(len(a), 5))] + [rng.randrange(1, n)]
        assert len(a) < len(b)
        assert _gcmd(a, b, n) == _gcmd(b, a, n), (a, b, n)


def test_gcmd_never_fails_over_prime_modulus():
    rng = random.Random(59)
    for _ in range(3000):
        p = rng.choice(PRIMES_TO_200)
        a = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
        b = [rng.randrange(p) for _ in range(rng.randint(0, 6))]
        if not any(a) and not any(b):
            continue
        assert _gcmd(a, b, p)[0] == "found"


def test_gcmd_minus_x_on_cubics_matches_gcmd():
    # The unrolled cubic Euclid must return exactly what _gcmd returns on
    # power - x: the same factor from the same failed inversion, or the
    # same monic gcd.  Moduli with small factors let each inversion and the
    # final constant expose one; f may be unreduced, as root recovery
    # passes it, and power may be [] or leave power - x below degree 2.
    rng = random.Random(71)
    moduli = [7, 9, 15, 21, 25, 45, 49, 105, 225, 1155, 15015, 65537, 2**61 - 1]
    outcomes = {}
    for trial in range(12000):
        n = rng.choice(moduli + [rng.randrange(3, 1 << 140)])
        t, m0, m1, k = (rng.randrange(n) for _ in range(4))
        # f = (x + t)(x^2 + m1*x + m0), unreduced for every third trial.
        f = [t * m0, m0 + t * m1, m1 + t, 1]
        if trial % 3 == 0:
            f = [c + rng.randint(-2, 2) * n for c in f[:3]] + [1]
        shape = trial % 8
        if shape == 0:
            power = []
        elif shape == 1:
            power = _reduce([rng.randrange(n) for _ in range(2)], n)
        elif shape == 2:
            power = [rng.randrange(n), 1]  # power - x is a constant
        elif shape == 3:
            power = _xpow(rng.randrange(1, 1 << 70), f, n)
        elif shape == 4:  # power - x = k*(x^2 + m1*x + m0)
            power = _reduce([k * m0, k * m1 + 1, k], n)
        elif shape == 5:  # power - x = k*(x + t)(x + u)
            u = rng.randrange(n)
            power = _reduce([k * t * u, k * (t + u) + 1, k], n)
        else:
            power = _reduce([rng.randrange(n) for _ in range(2)] + [rng.randrange(1, n)], n)
        g = list(power) + [0] * (2 - len(power))
        g[1] -= 1
        got = _gcmd_minus_x(power, f, n)
        assert got == _gcmd(g, f, n), (power, f, n)
        if got[0] == "factor":
            key = "lead" if len(power) == 3 and math.gcd(power[2], n) > 1 else "factor"
        else:
            key = len(got[1])
        outcomes[key] = outcomes.get(key, 0) + 1
    # Each way out is common: a factor from the leading coefficient or
    # from a later step, the unit gcd, a root and a quadratic.
    assert min(outcomes.get(key, 0) for key in ("lead", "factor", 1, 2, 3)) >= 200, outcomes


def test_poly_compose_mod():
    # The outer polynomial is also the reduction modulus: F(g) mod F.
    f = [12, 12, 0, 1]
    assert _compose_mod(f, [0, 1], 13) == []
    # f(x^13) mod f is zero exactly when 13 behaves like a prime for f.
    assert _compose_mod(f, _xpow(13, f, 13), 13) == []
    assert _compose_mod([1, 0, 1], [0, 1], 9) == []
    # Degree-1 outer means evaluation: F = x - 4, g = x^2 over mod 7
    # gives g(4) - 4 = 12 mod 7 = 5.
    assert _compose_mod([3, 1], [0, 0, 1], 7) == [5]


def test_compose_mod_matches_naive_substitute():
    # Horner against the oracle, which computes each power separately.
    rng = random.Random(67)
    for _ in range(200):
        n = rng.choice([3, 9, 15, 23, 101, rng.randint(3, 1 << 70)])
        f = [rng.randrange(n) for _ in range(rng.randint(1, 4))] + [1]
        g = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        fd = {d: c for d, c in enumerate(f) if c}
        ref = naive_substitute(fd, {d: c for d, c in enumerate(g) if c}, fd, n)
        assert _compose_mod(f, g, n) == as_list(ref), (n, f, g)


def test_require_poly_checks_monic_degree():
    assert _require_poly((-1, -1, 0, 1, 0, 0), 2) == (-1, -1, 0, 1)
    for coeffs, min_degree in (((1, 2), 1), ((3,), 1), ((1,), 1), ((), 1),
                               ((5, 1), 2), ((1, 0, 2), 2), ((0, 0, 2, 0), 1)):
        with pytest.raises(ValueError, match="monic of degree >= "):
            _require_poly(coeffs, min_degree)
    # A Poly is checked once: handed back, only its degree is read again.
    f = _require_poly([-1, -1, 0, 1], 2)
    assert type(f) is Poly and _require_poly(f, 3) is f
    with pytest.raises(ValueError, match="monic of degree >= 4"):
        _require_poly(f, 4)
    # Coefficients that are not integers are named as given: a generator's
    # are not half consumed, and a non-iterable is refused the same way.
    for coeffs, shown in (((c for c in (1.5, 0, 1)), "(1.5, 0, 1)"), (5, "5")):
        with pytest.raises(ValueError) as info:
            _require_poly(coeffs, 2)
        assert str(info.value) == f"polynomial {shown} must have integer coefficients"


def test_discriminant_known_values():
    assert discriminant((-1, -1, 1)) == 5  # x^2 - x - 1
    assert discriminant((-1, -1, 0, 1)) == -23  # x^3 - x - 1
    assert discriminant((1, 0, 1)) == -4  # x^2 + 1
    assert discriminant((-2, 0, 0, 1)) == -108  # x^3 - 2
    # Sparse ones, whose remainder degrees skip: -27 + 256 for x^4 + x + 1,
    # and -3^9 for the cyclotomic x^6 + x^3 + 1.
    assert discriminant((1, 1, 0, 0, 1)) == 229
    assert discriminant((1, 0, 0, 1, 0, 0, 1)) == -19683


def test_discriminant_of_a_huge_perrin_cubic():
    # x^3 - r*x^2 + s*x - 1 with r of 2^19 bits, against the closed form
    # of a cubic's discriminant.  Over the rationals this took minutes.
    r, s = 2 ** (2 ** 19) + 5, 3
    t0 = time.perf_counter()
    delta = discriminant((-1, s, -r, 1))
    assert time.perf_counter() - t0 < 1
    assert delta == r * r * s * s - 4 * s ** 3 - 4 * r ** 3 + 18 * r * s - 27


def test_require_poly_squarefree_gives_every_degree_its_discriminant():
    for coeffs, plain, delta in (((-7, 1), (-7, 1), 1), ((-1, -1, 0, 1, 0), (-1, -1, 0, 1), -23),
                                 ((-1, 1, -1, 1), (-1, 1, -1, 1), -16)):
        f = _require_poly(coeffs, 1, squarefree=True)
        assert f == plain and _discriminant(f) == f.delta == delta
        assert _require_poly(f, 1, squarefree=True) is f
        # A Poly made without the squarefree check answers the same delta:
        # of degree 1 or more, and the cubic of recurrence parameters.
        unchecked = [_require_poly(coeffs, min(2, len(plain) - 1))]
        if len(plain) == 4:
            unchecked.append(RecurrenceParams(-plain[2], plain[1]).poly)
        assert [g.delta for g in unchecked] == [delta] * len(unchecked)
    # Degree 0, the trivial parts frobenius_step checks, answers the empty
    # product, as degree 1 does; the public discriminant still refuses both.
    assert _require_poly((1,), 0).delta == _require_poly((1, 0, 0), 0).delta == 1
    for coeffs in ((1,), (5, 1)):
        with pytest.raises(ValueError, match="degree >= 2"):
            discriminant(coeffs)
    # A Poly made without the squarefree check still gets it when asked.
    for coeffs, message in (((0, -1, 0, 1), "has the root 0"), ((1, 2, 1), "not squarefree")):
        f = _require_poly(coeffs, 2)
        with pytest.raises(ValueError, match=message):
            _require_poly(f, 2, squarefree=True)


def test_discriminant_rejects_degenerate_input():
    with pytest.raises(ValueError):
        discriminant((1, 1))  # degree 1
    with pytest.raises(ValueError):
        discriminant((0, 0, 2))  # not monic
    with pytest.raises(ValueError):
        discriminant((5,))
    # Coefficients are integers, never parsed from text or truncated.
    for coeffs in (("1", 0, 1), (-1, -1, 0.5, 1)):
        with pytest.raises(ValueError, match="integer coefficients"):
            discriminant(coeffs)
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


def test_discriminant_from_integer_roots():
    # disc(prod (x - r_i)) = prod_{i<j} (r_i - r_j)^2, so it is 0 exactly
    # when a root repeats.  Reaches degrees and zero values that the
    # cofactor oracle above is too slow or too sparse to cover.
    rng = random.Random(89)
    zeros = 0
    for _ in range(300):
        roots = [rng.randint(-50, 50) for _ in range(rng.randint(2, 8))]
        if rng.random() < 0.3:
            roots[-1] = rng.choice(roots[:-1])
        coeffs = [1]
        for r in roots:  # multiply by (x - r), lowest degree first
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
        expected = math.prod((a - b) ** 2 for a, b in combinations(roots, 2))
        assert discriminant(coeffs) == expected, roots
        assert (expected == 0) == (len(set(roots)) < len(roots))
        zeros += expected == 0
    assert zeros >= 50


def test_discriminant_vanishes_exactly_at_ramified_primes():
    # x^3 - x - 1 has discriminant -23: a repeated factor mod 23 and
    # none mod other primes.
    kind, out = _gcmd([-1, -1, 0, 1], [-1, 0, 3], 23)
    assert kind == "found" and len(out) >= 2
    assert discriminant((-1, -1, 0, 1)) % 23 == 0
    rng = random.Random(83)
    for _ in range(20):
        p = rng.choice([q for q in PRIMES_TO_200 if q not in (2, 23)])
        assert _gcmd([-1, -1, 0, 1], [-1, 0, 3], p) == ("found", [1])
        assert discriminant((-1, -1, 0, 1)) % p != 0
