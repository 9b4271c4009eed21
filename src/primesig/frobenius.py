"""Frobenius probable-prime test for monic squarefree integer polynomials.

The test runs three stages over Z/nZ[x].  The factorization stage peels
f apart by iterated gcmd with x^(n^i) - x, collecting the degrees of the
pieces; the Frobenius stage checks that each piece is fixed under
x -> x^n; the Jacobi stage compares the parity of the even-degree pieces
with the Jacobi symbol of the discriminant.  Over a composite modulus
the gcmd may fail to exist, which both ends the test and exhibits a
factor of n.

splits_completely answers, for a certified prime p, whether f falls into
distinct linear factors mod p; that is the local condition the
Carmichael constructor needs.

Each public function checks its coefficients once, by polymod's one
polynomial check; a Poly passed on (by frobenius_test to
factorization_step, by SearchSpec.run to frobenius_test) is not checked
again coefficient by coefficient.  _splits_completely skips the
primality check on certified p.
"""

import math
from typing import NamedTuple

from .modarith import is_prime_baseline, jacobi
from .polymod import (Poly, _compose_mod, _gcmd_minus_x, _pdivmod_monic,
                      _ppow_monic, _require_poly, _xpow)

__all__ = [
    "PROBABLE_PRIME",
    "COMPOSITE",
    "FrobeniusReport",
    "FactorizationStepResult",
    "FrobeniusStepResult",
    "JacobiStepResult",
    "factorization_step",
    "frobenius_step",
    "jacobi_step",
    "frobenius_test",
    "splits_completely",
]

PROBABLE_PRIME = "probable-prime"
COMPOSITE = "composite"


class FrobeniusReport(NamedTuple):
    """Full record of one test run.

    stage is None for probable primes, otherwise the stage that declared
    compositeness ("precondition", "factorization", "frobenius",
    "jacobi").  degrees lists deg F_i for i = 1..deg f (partial if the
    factorization stage aborted).  factor_found, when present, divides n.
    jacobi_s is the even-degree sum checked by the Jacobi stage.
    """

    n: int
    poly: tuple[int, ...]
    verdict: str
    stage: str | None
    degrees: tuple[int, ...]
    factor_found: int | None = None
    jacobi_s: int | None = None


class FactorizationStepResult(NamedTuple):
    declared_composite: bool
    degrees: tuple[int, ...]
    # Monic coefficient lists of the split parts F_1..F_d (lowest degree
    # first); only meaningful when the stage completed.
    parts: tuple[tuple[int, ...], ...] = ()
    factor_found: int | None = None
    reason: str | None = None


class FrobeniusStepResult(NamedTuple):
    declared_composite: bool
    failing_index: int | None = None


class JacobiStepResult(NamedTuple):
    declared_composite: bool
    parity_sum: int | None = None
    reason: str | None = None


def _require_odd(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and > 1, got {n}")


def factorization_step(n: int, coeffs) -> FactorizationStepResult:
    """Split f mod n by iterated gcmd with x^(n^i) - x.

    The power x^(n^i) is carried along: each round reduces the previous
    power mod the current cofactor (which divides the previous one) and
    raises it to the n-th power, so the exponent never materializes.
    """
    _require_odd(n)
    # f as checked: each kernel reads the cofactor's coefficients mod n.
    remaining = _require_poly(coeffs, 2)
    d = len(remaining) - 1
    degrees: list[int] = []
    parts: list[tuple[int, ...]] = []
    for i in range(d):
        if len(remaining) == 1:
            # Cofactor is the constant 1: every later part is trivial.
            degrees.append(0)
            parts.append((1 % n,))
            continue
        power = _xpow(n, remaining, n) if i == 0 else _ppow_monic(power, n, remaining, n)
        out = _gcmd_minus_x(power, remaining, n)
        if out[0] == "factor":
            return FactorizationStepResult(
                True, tuple(degrees), factor_found=out[1], reason="gcmd-failed")
        part = out[1]
        degrees.append(len(part) - 1)
        parts.append(tuple(part))
        if len(part) == 1:
            continue  # the constant 1 leaves the cofactor as it is
        quot, rem = _pdivmod_monic(remaining, part, n)
        if rem:
            raise RuntimeError("gcmd result does not divide its inputs")
        remaining = quot if quot else [1 % n]
    if len(remaining) > 1:
        return FactorizationStepResult(
            True, tuple(degrees), tuple(parts), reason="leftover-cofactor")
    return FactorizationStepResult(False, tuple(degrees), tuple(parts))


def frobenius_step(n: int, parts) -> FrobeniusStepResult:
    """Check F_i(x^n) = 0 mod (n, F_i) for each nontrivial part i >= 2 (monic)."""
    _require_odd(n)
    for i, part in enumerate(parts, start=1):
        f_i = _require_poly(part, 0) if i > 1 else ()
        if len(f_i) < 2:
            continue
        # F_i depends on n, so its power starts from x, not from a table.
        if _compose_mod(f_i, _xpow(n, [*f_i], n), n):
            return FrobeniusStepResult(True, failing_index=i)
    return FrobeniusStepResult(False)


def jacobi_step(degrees, delta: int, n: int) -> JacobiStepResult:
    """Compare (-1)**S with (delta/n), S = sum of deg(F_i)/i over even i.

    An even i that does not divide deg(F_i) already contradicts the shape
    a prime would produce, so that case is declared composite outright.
    """
    if math.gcd(delta, n) != 1:
        raise ValueError(f"jacobi step requires gcd(n, delta) = 1, got n = {n}")
    s = 0
    for i, deg in enumerate(degrees, start=1):
        if i % 2:
            continue
        if deg % i:
            return JacobiStepResult(True, reason="degree-not-divisible")
        s += deg // i
    if (-1) ** s != jacobi(delta, n):
        return JacobiStepResult(True, parity_sum=s, reason="parity-mismatch")
    return JacobiStepResult(False, parity_sum=s)


def frobenius_test(n: int, coeffs) -> FrobeniusReport:
    """Run all three stages on odd n > 1 against a monic squarefree f.

    gcd(n, f(0)*delta) must be 1 for the test to be meaningful; a gcd
    strictly between 1 and n is itself composite evidence, while
    gcd = n means the test does not apply and raises ValueError.
    """
    f = _require_poly(coeffs, 2, squarefree=True)
    _require_odd(n)
    delta = f.delta
    g = math.gcd(n, f[0] * delta)
    if g == n:
        raise ValueError(f"gcd(n, f(0)*delta) = n; test does not apply to {n}")
    if g > 1:
        return FrobeniusReport(n, f, COMPOSITE, "precondition", (), factor_found=g)
    fact = factorization_step(n, f)
    degrees = fact.degrees
    if fact.declared_composite:
        return FrobeniusReport(n, f, COMPOSITE, "factorization", degrees,
                               factor_found=fact.factor_found)
    if frobenius_step(n, fact.parts).declared_composite:
        return FrobeniusReport(n, f, COMPOSITE, "frobenius", degrees)
    jac = jacobi_step(degrees, delta, n)
    if jac.declared_composite:
        return FrobeniusReport(n, f, COMPOSITE, "jacobi", degrees, jacobi_s=jac.parity_sum)
    return FrobeniusReport(n, f, PROBABLE_PRIME, None, degrees, jacobi_s=jac.parity_sum)


def splits_completely(p: int, coeffs) -> bool:
    """True iff f factors into distinct linear pieces mod the prime p.

    Requires p certified prime by the baseline oracle.  x^p - x is the
    squarefree product of all x - a over F_p, so f divides it, that is
    x^p = x mod (p, f), exactly when f does: a ramified p (a repeated
    root) gives False and degree 1 gives True, with no special case.
    """
    if not is_prime_baseline(p):
        raise ValueError(f"{p} is not prime")
    return _splits_completely(p, _require_poly(coeffs, 1))


def _splits_completely(p: int, f: Poly) -> bool:
    """splits_completely without its one check that p is prime, for a p
    its caller has certified; f is already a Poly."""
    return _xpow(p, f, p) == _pdivmod_monic([0, 1], f, p)[1]
