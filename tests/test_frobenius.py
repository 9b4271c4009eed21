import io
import math
import random
import re

import pytest

from primesig import (
    COMPOSITE,
    PERRIN,
    PROBABLE_PRIME,
    ConstructionParams,
    FrobeniusReport,
    RecurrenceParams,
    SearchSpec,
    carmichael_frobenius,
    classify_signature,
    discriminant,
    factorization_step,
    find_k_and_primes,
    frobenius_step,
    frobenius_test,
    jacobi_step,
    signature,
    splits_completely,
)
from primesig import frobenius, perrin
from primesig.cli import verify_number
from primesig.polymod import _gcmd, _pdivmod_monic, _require_poly

from naive_frobenius import naive_frobenius
from oracles import jacobi_naive, sieve

CUBIC = (-1, -1, 0, 1)  # x^3 - x - 1
# x^3 - 3x + 1 has positive lower coefficients, which the cubic kernel
# folds by their least absolute residues.
SUITE = [(1, 0, 1), (-1, -1, 1), CUBIC, (-2, 0, 0, 1), (1, -3, 0, 1)]


def test_factorization_step_degree_patterns():
    # 59 splits completely, 13 stays irreducible, 7 has one root.
    assert factorization_step(59, CUBIC).degrees == (3, 0, 0)
    assert factorization_step(13, CUBIC).degrees == (0, 0, 3)
    assert factorization_step(7, CUBIC).degrees == (1, 2, 0)


def test_factorization_step_parts_multiply_back():
    for n in (7, 13, 59, 101, 9973):
        step = factorization_step(n, CUBIC)
        assert not step.declared_composite
        assert sum(step.degrees) == 3
        for part in step.parts:
            assert part[-1] == 1
            if len(part) >= 2:
                assert _pdivmod_monic(list(CUBIC), list(part), n)[1] == []


def test_factorization_step_composite_leftover():
    # Odd composites generally leave a cofactor or fail a gcmd.
    found_composite = False
    for n in (25, 35, 49, 121):
        step = factorization_step(n, CUBIC)
        found_composite = found_composite or step.declared_composite
    assert found_composite


def test_frobenius_probable_primes():
    assert frobenius_test(9, (1, 0, 1)).verdict == PROBABLE_PRIME
    assert frobenius_test(7, CUBIC).verdict == PROBABLE_PRIME
    assert frobenius_test(59, CUBIC).verdict == PROBABLE_PRIME
    assert frobenius_test(13, CUBIC).verdict == PROBABLE_PRIME


def test_frobenius_composites():
    assert frobenius_test(15, CUBIC).verdict == COMPOSITE
    assert frobenius_test(341, CUBIC).verdict == COMPOSITE
    assert frobenius_test(561, CUBIC).verdict == COMPOSITE
    # 341 = 11 * 31 slips through x^2 + 1, as every odd number does: x is
    # a fourth root of unity mod (n, f), so the stage outcomes and the
    # jacobi sign are all forced by n mod 4.
    assert frobenius_test(341, (1, 0, 1)).verdict == PROBABLE_PRIME


def test_frobenius_precondition_factor():
    # 25 shares the factor 5 with f(0)*disc of x^2 - x - 1.
    rep = frobenius_test(25, (-1, -1, 1))
    assert rep.verdict == COMPOSITE
    assert rep.stage == "precondition"
    assert rep.factor_found == 5


def test_frobenius_precondition_consumes_n():
    with pytest.raises(ValueError):
        frobenius_test(5, (-1, -1, 1))
    with pytest.raises(ValueError):
        frobenius_test(23, CUBIC)
    with pytest.raises(ValueError):
        frobenius_test(3, (-2, 0, 0, 1))


def test_frobenius_rejects_bad_inputs():
    with pytest.raises(ValueError):
        frobenius_test(8, CUBIC)  # even
    with pytest.raises(ValueError):
        frobenius_test(1, CUBIC)
    with pytest.raises(ValueError):
        frobenius_test(9, (1, 1))  # degree 1
    with pytest.raises(ValueError):
        frobenius_test(9, (1, 0, 2))  # not monic
    with pytest.raises(ValueError, match="not squarefree"):
        frobenius_test(9, (1, 2, 1))  # (x + 1)^2
    with pytest.raises(ValueError, match="integer coefficients"):
        frobenius_test(7, (-1.5, -1, 0, 1))  # no truncation to x^3 - x - 1


def test_frobenius_step_checks_the_parts_it_reads():
    # Read unchecked, the part 2x^2 + 2 would declare the prime 7 composite.
    with pytest.raises(ValueError, match="monic"):
        frobenius.frobenius_step(7, [(1,), (2, 0, 2)])
    assert not frobenius.frobenius_step(7, [(1,), (1, 0, 1)]).declared_composite


def test_report_shape():
    rep = frobenius_test(59, CUBIC)
    assert isinstance(rep, FrobeniusReport)
    assert rep.n == 59
    assert rep.poly == CUBIC
    assert rep.stage is None
    assert rep.degrees == (3, 0, 0)
    assert rep.jacobi_s == 0


def test_prime_soundness_small():
    flags = sieve(2000)
    from primesig import discriminant

    for coeffs in SUITE:
        bound = coeffs[0] * discriminant(coeffs)
        for p in range(3, 2001, 2):
            if not flags[p] or math.gcd(p, bound) != 1:
                continue
            rep = frobenius_test(p, coeffs)
            assert rep.verdict == PROBABLE_PRIME, (p, coeffs)
            # Every stage-one degree is a multiple of its index.
            for i, d in enumerate(rep.degrees, start=1):
                assert d % i == 0, (p, coeffs, rep.degrees)


def test_agrees_with_naive_twin():
    # The full range is the acceptance suite's job; this slice runs on
    # every push.
    for coeffs in SUITE:
        for n in range(3, 1501, 2):
            try:
                mine = frobenius_test(n, coeffs).verdict
            except ValueError:
                mine = "rejected"
            try:
                other = naive_frobenius(n, coeffs)[0]
            except ValueError:
                other = "rejected"
            assert mine == other, (n, coeffs)


def test_agrees_with_naive_twin_at_large_n():
    # Odd composites of 100-140 bits take rounds 2 and 3 of the
    # factorization stage (the cubic g**e kernel) far above the range
    # the small slice covers.
    rng = random.Random(61)

    def fermat_prime(bits):
        while True:
            p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            if pow(2, p - 1, p) == 1:
                return p

    # Products of two or three large probable primes, where no small
    # factor ends the test before round 3, and products of random odd
    # numbers, whose small factors make a gcmd fail in some round.
    cases = [math.prod(fermat_prime(bits // parts) for _ in range(parts))
             for bits, parts in ((rng.randint(100, 140), 2 + i % 2) for i in range(16))]
    cases += [(rng.randrange(1 << 50, 1 << 70) | 1) * (rng.randrange(1 << 50, 1 << 70) | 1)
              for _ in range(16)]
    full_rounds = 0
    seen = set()
    for n in cases:
        for coeffs in (CUBIC, (-2, 0, 0, 1), (1, -3, 0, 1)):
            mine = frobenius_test(n, coeffs)
            verdict, degrees = naive_frobenius(n, coeffs)
            assert mine.verdict == verdict, (n, coeffs)
            if degrees is None:
                assert mine.stage in ("precondition", "factorization"), (n, coeffs)
            else:
                assert mine.stage not in ("precondition", "factorization"), (n, coeffs)
                assert mine.degrees == degrees, (n, coeffs)
            full_rounds += len(mine.degrees) == 3
            seen.add(mine.degrees)
    assert full_rounds >= 32 and (0,) in seen


def test_frobenius_flag_implies_weak_perrin_small():
    from primesig import PERRIN, is_prime_baseline, perrin_test

    for n in range(3, 20001, 2):
        if is_prime_baseline(n) or n % 23 == 0:
            continue
        if frobenius_test(n, CUBIC).verdict == PROBABLE_PRIME:
            assert perrin_test(PERRIN, n, mode="weak").passes, n


def test_splits_completely():
    assert splits_completely(59, CUBIC)
    assert not splits_completely(7, CUBIC)
    assert not splits_completely(13, CUBIC)
    assert splits_completely(7, (-1, 1))  # degree 1: vacuous
    assert splits_completely(2, (-1, 1))


def test_splits_completely_ramified_or_composite():
    assert splits_completely(23, CUBIC) is False  # divides the discriminant
    with pytest.raises(ValueError):
        splits_completely(15, CUBIC)  # not prime


def test_splits_completely_matches_root_counting():
    # f splits into distinct linear factors mod p iff it has deg f
    # distinct roots there, ramified primes (23 for CUBIC) included.
    flags = sieve(500)
    for coeffs in (CUBIC,
                   (-3, 1),  # degree 1: always
                   (1, 0, 1),  # x^2 + 1: when p = 1 mod 4
                   (-1, 0, 0, 0, 1),  # x^4 - 1: when p = 1 mod 4, never at p = 2
                   (2, -3, 0, 1)):  # (x - 1)^2 (x + 2): never, the root 1 repeats
        for p in range(2, 500):
            if not flags[p]:
                continue
            roots = sum(1 for a in range(p)
                        if sum(c * a**i for i, c in enumerate(coeffs)) % p == 0)
            assert splits_completely(p, coeffs) == (roots == len(coeffs) - 1), (p, coeffs)


def test_splitting_agrees_with_the_congruence_and_jacobi_oracles():
    # Two facts of class field theory, checked at every prime below 20000
    # by oracles that share no code with the ring engine.  An abelian
    # cubic splits by a congruence: x^3 - 3x + 1 (delta 81) exactly when
    # p = +-1 mod 9, x^3 - x^2 - 2x + 1 (delta 49) exactly when
    # p = +-1 mod 7.  The splitting field of x^3 - x - 1 contains
    # Q(sqrt(-23)), which lies in Q(zeta_23), so a split prime and every
    # p = 1 mod 23 have (-23/p) = 1.  x^p runs at 3- to 15-bit moduli:
    # wholly from each cubic's table below 2^9, then past it.
    flags = sieve(20000)
    primes = [p for p in range(2, 20000) if flags[p]]
    by_9, by_7 = _require_poly((1, -3, 0, 1), 1), _require_poly((1, -2, -1, 1), 1)
    perrin_cubic = _require_poly(CUBIC, 1)
    split = 0
    for p in primes:
        if p >= 5:
            assert frobenius._splits_completely(p, by_9) == (p % 9 in (1, 8)), p
        if p >= 11:
            assert frobenius._splits_completely(p, by_7) == (p % 7 in (1, 6)), p
        if frobenius._splits_completely(p, perrin_cubic):
            split += 1
            assert p > 2 and jacobi_naive(-23, p) == 1, p
        if p % 23 == 1:
            assert jacobi_naive(-23, p) == 1, p
    # About 1/6 of the primes split (Chebotarev for the S3 field).
    assert len(primes) == 2262 and 300 < split < 450, split


def test_jacobi_stage_rejects():
    # 2737 = 7*17*23 for x^2 - x - 1 and 341 = 11*31 for x^2 + 2: both
    # quadratics stay irreducible (degrees (2, 0), S = 0) while the
    # symbol of the discriminant is -1.
    for n, coeffs in ((2737, (-1, -1, 1)), (341, (2, 0, 1))):
        rep = frobenius_test(n, coeffs)
        assert (rep.verdict, rep.stage, rep.degrees, rep.jacobi_s) == (
            COMPOSITE, "jacobi", (2, 0), 0)
        assert naive_frobenius(n, coeffs) == (COMPOSITE, rep.degrees)
    # deg F_2 = 1 is not a multiple of 2.
    assert jacobi_step((1, 1), 5, 2737).reason == "degree-not-divisible"


def test_gcmd_composite_evidence_becomes_verdict():
    # A gcmd failure mid-pipeline must not surface as an exception.
    rep = frobenius_test(49 * 11, CUBIC)
    assert rep.verdict == COMPOSITE
    if rep.factor_found is not None:
        assert 1 < rep.factor_found < 49 * 11
        assert (49 * 11) % rep.factor_found == 0


def generic_gcmd_minus_x(power, f, n):
    # gcmd(power - x, f) by _gcmd alone, without the cubic Euclid.
    g = list(power) + [0] * (2 - len(power))
    g[1] -= 1
    return _gcmd(g, f, n)


def reports(coeffs, ns):
    out = []
    for n in ns:
        try:
            out.append(frobenius_test(n, coeffs))
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_cubic_euclid_keeps_every_report(monkeypatch):
    # The whole report, factor and degrees included, with the cubic Euclid
    # and with _gcmd alone, at every odd n up to 30001.
    ns = range(3, 30002, 2)
    for coeffs in (CUBIC, (3, -5, 7, 1)):
        mine = reports(coeffs, ns)
        with monkeypatch.context() as m:
            m.setattr(frobenius, "_gcmd_minus_x", generic_gcmd_minus_x)
            generic = reports(coeffs, ns)
        assert mine == generic, coeffs
        stages = {rep.stage for rep in mine if isinstance(rep, FrobeniusReport)}
        assert stages >= {None, "factorization"}, (coeffs, stages)


def test_cubic_euclid_keeps_every_root_recovery(monkeypatch):
    # classify_signature recovers the root for Q by gcmd(x^n - x, f); its
    # class must not move at any odd n, and Q must be common.
    for params in (PERRIN, RecurrenceParams(1, -1), RecurrenceParams(-6, -6)):
        sigs = [(n, signature(params, n, n)) for n in range(3, 8002, 2)]
        mine = [classify_signature(params, n, sig) for n, sig in sigs]
        recovered = []
        with monkeypatch.context() as m:
            m.setattr(perrin, "_gcmd_minus_x",
                      lambda power, f, n: recovered.append(n) or generic_gcmd_minus_x(power, f, n))
            generic = [classify_signature(params, n, sig) for n, sig in sigs]
        assert mine == generic, params
        assert sum(klass.kind == "Q" for klass in mine) >= 200 and len(recovered) >= 300, params


def test_spec_run_keeps_every_check_on_n():
    # SearchSpec.run hands frobenius_test the Poly it checked when the spec
    # was built, which skips no check on n: the same ValueError, with
    # frobenius_test's message, at n = 1, 2, an even n and 23
    # (gcd(n, f(0)*delta) = n).
    spec = SearchSpec("frobenius")
    for n in (1, 2, 8, 23):
        with pytest.raises(ValueError) as expected:
            frobenius_test(n, CUBIC)
        message = re.escape(str(expected.value))
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec.run(n)
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_number(n, "frobenius", out=io.StringIO())


# Every public entry point that takes coefficients, called with f.
ENTRY_POINTS = {
    "frobenius_test": lambda f: frobenius_test(7, f),
    "factorization_step": lambda f: factorization_step(7, f),
    "frobenius_step": lambda f: frobenius_step(7, [(1,), f]),
    "splits_completely": lambda f: splits_completely(7, f),
    "discriminant": discriminant,
    "carmichael_frobenius": lambda f: carmichael_frobenius(561, f),
    "find_k_and_primes": lambda f: find_k_and_primes(12, f, (1, 5), 1000),
    "ConstructionParams": lambda f: ConstructionParams(3, (3, 8), 1, 10, 3000, 5, poly=f),
    "SearchSpec": lambda f: SearchSpec("frobenius", poly=f),
    "verify_number": lambda f: verify_number(7, "frobenius", poly=f, out=io.StringIO()),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_still_check_input_equal_to_a_checked_poly(name):
    # A checked polynomial is a tuple equal to (-1, -1, 0, 1), and so are
    # these floats; a memo keyed on tuple equality must not let them in.
    call = ENTRY_POINTS[name]
    checked = SearchSpec("frobenius", poly=CUBIC).poly
    call(checked)
    for coeffs in ((-1.0, -1, 0, 1), (-1, -1, 0, 1.0)):
        assert coeffs == checked
        with pytest.raises(ValueError, match="integer coefficients"):
            call(coeffs)
        call(checked)
    with pytest.raises(ValueError, match="monic"):
        call((-1, -1, 0, 2))
