"""Korselt certificates and the Carmichael condition relative to a field.

korselt(n) factors n and records, per prime p, whether p - 1 divides
n - 1; the certificate validates exactly when n is an odd squarefree
composite with at least three prime factors and every divisibility check
holds, i.e. when n is a Carmichael number.

carmichael_frobenius(n, f) additionally demands that every prime factor
of n split completely for the monic polynomial f.  Degree-1 polynomials
model the rationals: every prime splits, none is ramified (the
discriminant is 1), and the notion collapses back to plain Carmichael.
"""

from typing import NamedTuple

from .frobenius import _splits_completely
from .modarith import Factorization, factorize
from .polymod import _require_poly

__all__ = [
    "KorseltCertificate",
    "korselt",
    "SplittingEvidence",
    "CarmichaelFrobeniusResult",
    "carmichael_frobenius",
]


class KorseltCertificate(NamedTuple):
    """Self-contained evidence for (or against) n being Carmichael."""

    n: int
    factorization: Factorization
    checks: tuple[tuple[int, bool], ...]  # (p, p - 1 divides n - 1)
    squarefree: bool

    @property
    def composite(self) -> bool:
        return sum(e for _, e in self.factorization.factors) >= 2

    @property
    def validates(self) -> bool:
        return self.failure_reason is None

    @property
    def failure_reason(self) -> str | None:
        if not self.composite:
            return "prime"
        if not self.squarefree:
            return "not-squarefree"
        if self.n % 2 == 0:
            return "even"
        bad = [p for p, ok in self.checks if not ok]
        # Two primes never pass: for n = pq, p < q, q - 1 cannot divide p(q - 1) + p - 1.
        return f"divisibility fails at {','.join(map(str, bad))}" if bad else None


def korselt(n: int) -> KorseltCertificate:
    """Factor n >= 2 and certify the Korselt divisibility conditions."""
    if n < 2:
        raise ValueError(f"korselt requires n >= 2, got {n}")
    fact = factorize(n)
    checks = tuple((p, (n - 1) % (p - 1) == 0) for p in fact.primes())
    return KorseltCertificate(n, fact, checks, fact.is_squarefree)


class SplittingEvidence(NamedTuple):
    p: int
    splits: bool
    ramified: bool = False


class CarmichaelFrobeniusResult(NamedTuple):
    korselt: KorseltCertificate
    splitting: tuple[SplittingEvidence, ...]
    reason: str | None

    @property
    def value(self) -> bool:
        return self.reason is None

    def __bool__(self) -> bool:
        return self.value


def carmichael_frobenius(n: int, coeffs) -> CarmichaelFrobeniusResult:
    """Does n satisfy the Korselt conditions with every prime factor
    splitting completely for the monic polynomial f?

    Each prime factor's evidence says whether it splits and whether it
    is ramified (divides the discriminant of f), for every degree; a
    ramified prime does not split, so it yields a negative answer rather
    than an error, even for an f with a repeated root.
    """
    f = _require_poly(coeffs, 1)
    cert = korselt(n)
    if not cert.validates:
        return CarmichaelFrobeniusResult(cert, (), cert.failure_reason)
    # factorize has certified every prime of the factorization.
    evidence = [SplittingEvidence(p, _splits_completely(p, f), ramified=f.delta % p == 0)
                for p in cert.factorization.primes()]
    bad = [str(e.p) for e in evidence if not e.splits]
    reason = f"no complete splitting at {','.join(bad)}" if bad else None
    return CarmichaelFrobeniusResult(cert, tuple(evidence), reason)
