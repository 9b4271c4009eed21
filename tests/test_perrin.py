import math
import random

import pytest

from primesig import (
    NOT_ACCEPTABLE,
    PERRIN,
    PerrinResult,
    RecurrenceParams,
    Signature,
    SignatureClass,
    classify_signature,
    perrin_test,
    sequence_term,
    signature,
)
from primesig import perrin, polymod
from primesig.perrin import _recover_root, exact_terms, residue_tables, residue_walk

from oracles import (recurrence_term, recurrence_window, sieve, weak_perrin_by_stepping,
                     weak_perrin_by_stepping_many)


def test_params_basics():
    assert PERRIN == RecurrenceParams(0, -1)
    assert PERRIN.delta == -23
    assert PERRIN.poly == (-1, -1, 0, 1)
    # Standard cubic formula on x^3 - x^2 + x - 1:
    # 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 = 18 - 4 + 1 - 4 - 27.
    assert RecurrenceParams(1, 1).delta == -16
    assert RecurrenceParams(6, 5).poly == (-1, 5, -6, 1)


def test_sequence_term_seed_window():
    # A_{-1} = s, A_0 = 3, A_1 = r for any parameters.
    for r, s in [(0, -1), (1, 2), (-3, 4), (7, -5)]:
        params = RecurrenceParams(r, s)
        assert sequence_term(params, -1, 100) == s % 100
        assert sequence_term(params, 0, 100) == 3
        assert sequence_term(params, 1, 100) == r % 100
        assert sequence_term(params, 2, 100) == (r * r - 2 * s) % 100


def test_sequence_term_perrin_values():
    # Perrin: 3, 0, 2, 3, 2, 5, 5, 7, 10, 12, ...
    expected = [3, 0, 2, 3, 2, 5, 5, 7, 10, 12, 17, 22, 29]
    for k, val in enumerate(expected):
        assert sequence_term(PERRIN, k, 1000) == val
    assert sequence_term(PERRIN, 7, 100) == 7
    assert sequence_term(PERRIN, -7, 100) == 99  # A_{-7} = -1


def test_sequence_term_matches_stepping_oracle():
    for m in range(2, 120):
        window = recurrence_window(0, -1, -60, 60, m)
        for k in range(-60, 61):
            assert sequence_term(PERRIN, k, m) == window[k], (k, m)
    rng = random.Random(11)
    for _ in range(25):
        r, s = rng.randint(-9, 9), rng.randint(-9, 9)
        m = rng.randint(2, 500)
        params = RecurrenceParams(r, s)
        window = recurrence_window(r, s, -40, 40, m)
        for k in range(-40, 41):
            assert sequence_term(params, k, m) == window[k], (r, s, k, m)


def test_negative_index_swaps_parameters():
    # A_{-n}(r, s) = A_n(s, r): the reversed recurrence is the mirror
    # sequence with r and s exchanged.
    rng = random.Random(17)
    for _ in range(50):
        r, s = rng.randint(-9, 9), rng.randint(-9, 9)
        m = rng.randint(2, 300)
        k = rng.randint(0, 150)
        assert sequence_term(RecurrenceParams(r, s), -k, m) == sequence_term(
            RecurrenceParams(s, r), k, m
        )


def test_sequence_term_rejects_bad_modulus():
    with pytest.raises(ValueError):
        sequence_term(PERRIN, 3, 1)
    with pytest.raises(ValueError):
        sequence_term(PERRIN, 3, 0)


def test_signature_examples():
    sig = signature(PERRIN, 1, 10)
    assert sig.values == (1, 9, 3, 3, 0, 2)
    assert signature(PERRIN, 7, 7).values == (5, 6, 5, 5, 0, 3)
    assert signature(PERRIN, 13, 13).values == (0, 12, 7, 3, 0, 12)


def test_signature_matches_stepping_oracle():
    rng = random.Random(29)
    cases = [(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 200), rng.randint(2, 400))
             for _ in range(40)]
    # The negative half is halved mod 2m: even moduli, m = 2, a cubic with
    # a triple root ((3, 3): (x - 1)^3) and x^3 - 1 ((0, 0)).
    cases += [(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 200), m)
              for m in (2, 2, 4, 8, 12, 64, 96, 250, 256)]
    cases += [(r, s, n, m) for r, s in ((3, 3), (0, 0))
              for n in (1, 2, 3, 17, 128, 199) for m in (2, 3, 9, 16, 101)]
    for r, s, n, m in cases:
        window = recurrence_window(r, s, -n - 1, n + 1, m)
        expected = (
            window[-n - 1],
            window[-n],
            window[-n + 1],
            window[n - 1],
            window[n],
            window[n + 1],
        )
        sig = signature(RecurrenceParams(r, s), n, m)
        assert sig.values == expected
        assert sig.modulus == m and sig.index == n


def test_signature_negative_half_matches_reversed_cubic():
    # Near 2^100 the stepping oracle is out of reach; the reversed-cubic
    # route of sequence_term checks the (A(k)^2 - A(2k))/2 derivation.
    rng = random.Random(53)
    for r, s in ((0, -1), (1, -1), (3, 3), (0, 0), (-4, 7)):
        for _ in range(4):
            n = (1 << 100) + rng.randrange(1 << 96)
            m = rng.choice((2, 6, 1 << 61, n, rng.randrange(3, 1 << 130)))
            params = RecurrenceParams(r, s)
            values = signature(params, n, m).values
            assert values[:3] == tuple(sequence_term(params, -k, m) for k in (n + 1, n, n - 1))
            assert values[3:] == tuple(sequence_term(params, k, m) for k in (n - 1, n, n + 1))


def test_classify_worked_examples(caplog):
    q = classify_signature(PERRIN, 7, signature(PERRIN, 7, 7))
    assert q.kind == "Q" and q.a == 5
    assert str(q) == "Q[a=5]"

    i = classify_signature(PERRIN, 13, signature(PERRIN, 13, 13))
    assert i.kind == "I" and i.d == 3 and i.d_prime == 7
    assert str(i) == "I[D=3,D'=7]"
    # The I constraints hold: D' + D = rs - 3 and (D' - D)^2 = delta.
    assert (i.d_prime + i.d) % 13 == (0 * -1 - 3) % 13
    assert (i.d_prime - i.d) ** 2 % 13 == -23 % 13

    s = classify_signature(PERRIN, 59, signature(PERRIN, 59, 59))
    assert s.kind == "S"
    assert str(s) == "S"

    bad = classify_signature(PERRIN, 25, signature(PERRIN, 25, 25))
    assert bad is NOT_ACCEPTABLE
    assert str(bad) == "not-acceptable"

    # (r, s) = (-6, -6) has delta = 3645, and gcd(35, delta) = 5: the
    # signature mod 35 meets the cheap Q conditions, then the gcmd that
    # should recover the root fails on a leading coefficient sharing 5.
    params = RecurrenceParams(-6, -6)
    assert math.gcd(35, params.delta) == 5
    sig = signature(params, 35, 35)
    assert sig.values[1] == -6 % 35 and sig.values[4] == -6 % 35
    with caplog.at_level("DEBUG", logger="primesig.perrin"):
        assert _recover_root(params, 35) is None
    assert "root recovery mod 35 exposed factor" in caplog.text
    assert classify_signature(params, 35, sig) is NOT_ACCEPTABLE


def test_classify_index_one_is_s_for_every_modulus():
    # The signature at index 1 reproduces the base window, which is the
    # S template by definition, whatever the modulus.
    for m in list(range(2, 200)) + [991, 10**6 + 3]:
        klass = classify_signature(PERRIN, m, signature(PERRIN, 1, m))
        assert klass.kind == "S", m


def test_classify_rejects_modulus_mismatch():
    sig = signature(PERRIN, 7, 7)
    with pytest.raises(ValueError):
        classify_signature(PERRIN, 7, Signature(11, sig.values, 7))


def test_prime_conformance_and_anchors_small():
    # Primes behave: class matches the jacobi branch and the signature
    # carries A_p = r, A_{-p} = s.  The acceptance suite runs the full
    # range; this is the fast sanity slice.
    flags = sieve(2000)
    from primesig import jacobi

    for p in range(5, 2001):
        if not flags[p] or p == 23:
            continue
        sig = signature(PERRIN, p, p)
        assert sig.values[4] == 0 % p and sig.values[1] == -1 % p
        klass = classify_signature(PERRIN, p, sig)
        j = jacobi(-23, p)
        if j == -1:
            assert klass.kind == "Q", p
        else:
            assert klass.kind in ("S", "I"), p


def test_perrin_weak_known_values():
    assert not perrin_test(PERRIN, 25, mode="weak").passes
    assert perrin_test(PERRIN, 7, mode="weak").passes
    assert not perrin_test(PERRIN, 341, mode="weak").passes
    assert not perrin_test(PERRIN, 561, mode="weak").passes
    # The two classic composites that slip through the weak test.
    assert perrin_test(PERRIN, 271441, mode="weak").passes
    assert perrin_test(PERRIN, 904631, mode="weak").passes


def test_perrin_weak_flagged_values_by_literal_stepping():
    assert weak_perrin_by_stepping(271441)
    assert weak_perrin_by_stepping(904631)
    assert not weak_perrin_by_stepping(25)


def test_stepping_many_matches_stepping_one_at_a_time():
    # The one-pass oracle against the per-n one, on every n in [2, 600],
    # 25, the two weak census hits and a seeded sample below 10^5.
    rng = random.Random(7)
    ns = set(range(2, 601)) | {25, 271441, 904631}
    ns |= {rng.randrange(601, 10**5) for _ in range(40)}
    many = weak_perrin_by_stepping_many(sorted(ns, reverse=True))
    assert many == {n: weak_perrin_by_stepping(n) for n in ns}
    assert many[271441] and many[904631] and not many[25]


def test_perrin_weak_accepts_all_primes():
    flags = sieve(2000)
    for p in range(2, 2001):
        if flags[p]:
            assert perrin_test(PERRIN, p, mode="weak").passes, p


def test_perrin_weak_generalized_params():
    # For any (r, s), primes satisfy A_p = r mod p.
    params = RecurrenceParams(1, 2)
    flags = sieve(500)
    for p in range(2, 501):
        if flags[p]:
            assert sequence_term(params, p, p) == 1 % p
            assert perrin_test(params, p, mode="weak").passes


def test_perrin_full_worked_example():
    res = perrin_test(PERRIN, 7, mode="full")
    assert isinstance(res, PerrinResult)
    assert res.passes
    assert res.signature_class.kind == "Q" and res.signature_class.a == 5
    assert res.jacobi_symbol == -1


def test_perrin_full_rejects_out_of_domain():
    with pytest.raises(ValueError):
        perrin_test(PERRIN, 46, mode="full")  # even
    with pytest.raises(ValueError):
        perrin_test(PERRIN, 23, mode="full")  # shares a factor with delta
    with pytest.raises(ValueError):
        perrin_test(PERRIN, 7, mode="sideways")


def test_perrin_full_composite_fails():
    assert not perrin_test(PERRIN, 25, mode="full").passes
    assert not perrin_test(PERRIN, 561, mode="full").passes
    assert not perrin_test(PERRIN, 341, mode="full").passes


def test_perrin_full_primes_pass():
    # r != 0 as well, so the Q branch's root inverse depends on r.
    flags = sieve(3000)
    for params in (PERRIN, RecurrenceParams(1, -1), RecurrenceParams(-2, 3)):
        for p in range(3, 3001, 2):
            if not flags[p] or params.delta % p == 0:
                continue
            res = perrin_test(params, p, mode="full")
            assert res.passes, (params, p)
            j = res.jacobi_symbol
            if j == -1:
                assert res.signature_class.kind == "Q", (params, p)
            else:
                assert res.signature_class.kind in ("S", "I"), (params, p)


def test_full_pass_implies_weak_pass():
    for n in range(3, 3001, 2):
        if math.gcd(n, 23) != 1:
            continue
        if perrin_test(PERRIN, n, mode="full").passes:
            assert perrin_test(PERRIN, n, mode="weak").passes, n


def test_weak_jacobi_field():
    assert perrin_test(PERRIN, 7, mode="weak").jacobi_symbol == -1
    assert perrin_test(PERRIN, 2, mode="weak").jacobi_symbol is None


def test_weak_mode_computes_jacobi_only_for_passing_n(monkeypatch):
    from primesig import perrin

    real = perrin.jacobi
    calls = []

    def counting(a, n):
        calls.append(n)
        return real(a, n)

    monkeypatch.setattr(perrin, "jacobi", counting)
    res = perrin_test(PERRIN, 9, mode="weak")
    assert not res.passes and res.jacobi_symbol is None
    assert calls == []
    assert perrin_test(PERRIN, 271441, mode="weak").jacobi_symbol == 1
    assert calls == [271441]


def test_sequence_term_matches_oracle_term_helper():
    assert recurrence_term(0, -1, 7, 100) == 7
    assert sequence_term(PERRIN, 100, 9973) == recurrence_term(0, -1, 100, 9973)


@pytest.mark.parametrize("rs", [(0, -1), (1, -1), (3, 3)])
def test_residue_tables_match_sequence_terms(rs):
    params = RecurrenceParams(*rs)
    tables = residue_tables(params)
    # Every odd prime up to 59, including 23, which divides the Perrin
    # discriminant.
    assert list(tables) == [p for p in range(3, 60) if sieve(59)[p]]
    for p, (period, hits) in tables.items():
        assert all(0 <= k < period for k in hits)
        for k in range(3 * period):
            assert (k % period in hits) == (sequence_term(params, k, p) == params.r % p), (p, k)
    if rs == (3, 3):
        # (x - 1)^3: A(k) = 3 for every k, so nothing is ever rejected.
        assert all(table == (1, (0,)) for table in tables.values())


@pytest.mark.parametrize("rs", [(0, -1), (1, -1), (-2, 3), (3, 3), (-2, 2)])
def test_residue_walk_and_frobenius_identity_match_stepping(rs):
    # A(p*m) = A(m) mod p for every prime p, ramified or not: (-2, 2) has
    # delta = -83, above the table primes.  The walk reads A(m + 2i) mod p,
    # the right-hand side of that identity.
    params = RecurrenceParams(*rs)
    if rs == (-2, 2):
        assert params.delta == -83
    flags = sieve(700)
    for p in range(61, 700):
        if not flags[p]:
            continue
        window = recurrence_window(*rs, 0, 39 * p, p)
        for m in range(40):
            assert window[p * m] == window[m], (p, m)
        for start in (0, 1, 2, 7):
            assert residue_walk(params, p, start, 16) == [window[start + 2 * i]
                                                          for i in range(16)], (p, start)
    assert residue_walk(params, 61, 10**9, 3) == [sequence_term(params, 10**9 + 2 * i, 61)
                                                  for i in range(3)]


def test_terms_of_a_huge_r_are_not_starved_by_the_bit_budget():
    # A(k) has about k * 2^22 bits here, so the bit budget alone would keep
    # A(0), ..., A(3); a signature reads A(0), ..., A(6).
    params = RecurrenceParams((1 << (1 << 22)) + 5, 3)
    try:
        sig = signature(params, 1009, 1009)
        assert len(exact_terms(params, 0)) == 7
    finally:
        perrin._exact_table.cache_clear()
    r = params.r % 1009
    assert sig.values == tuple(recurrence_term(r, 3, k, 1009)
                               for k in (-1010, -1009, -1008, 1008, 1009, 1010))


def test_params_take_integer_r_and_s_only(monkeypatch):
    # A float r would make weak mode call the prime 7 a failure and full
    # mode raise TypeError, so the params refuse it when built, as they do
    # a float s right after the equal integer params were built.
    assert RecurrenceParams(0, -1) == PERRIN
    for r, s in ((0.5, -1), (0, -1.0), (-0.0, -1), ("1", 0), (0, None)):
        with pytest.raises(ValueError, match="r and s must be integers"):
            RecurrenceParams(r, s)
    # The check reads types only: building computes no discriminant.
    monkeypatch.setattr(perrin, "_discriminant", None)
    monkeypatch.setattr(polymod, "_discriminant", None)
    params = RecurrenceParams((1 << (1 << 22)) + 5, 3)
    assert params.poly[1:] == (3, -params.r, 1)
