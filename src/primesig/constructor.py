"""Desk-scale constructor of Carmichael numbers with prescribed splitting.

The pipeline mirrors the classical subset-product recipe.  Harvest the
primes q in an interval whose q - 1 is y-smooth and multiply them into a
modulus L.  For a multiplier k coprime to L, collect the primes of the
form d*k + 1 with d dividing L that split completely for the target
polynomial; each such p has p - 1 = d*k dividing k*L.  Any subset of at
least three of them whose product is 1 mod L multiplies into an n that
is 1 mod k*L, so p - 1 divides n - 1 for every member: n is a squarefree
odd composite satisfying the Korselt criterion, i.e. Carmichael, and by
the splitting choice its prime factors all split for f.

Subset hunting is meet-in-the-middle on residues mod L, so the modest
prime pools this module targets stay comfortably cheap.  Every emitted
certificate is re-verified from scratch before it leaves the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .carmichael import korselt, KorseltCertificate
from .frobenius import splits_completely
from .modarith import factorize, inv_mod, is_prime_baseline
from .polymod import _require_monic, _trim, discriminant

__all__ = [
    "ConstructionParams",
    "ConstructionCertificate",
    "ConstructionResult",
    "SubsetSearchResult",
    "harvest_smooth_primes",
    "find_k_and_primes",
    "subset_product_search",
    "construct",
    "PRESETS",
]

_MAX_DIVISORS = 1 << 20
_MAX_POOL = 64


def _require_squarefree(poly) -> list[int]:
    # Trimmed coefficients of a monic poly of degree >= 1 that is squarefree
    # (nonzero discriminant) when its degree is >= 2; ValueError otherwise.
    cs = _require_monic(poly, 1)
    if len(cs) > 2 and discriminant(cs) == 0:
        raise ValueError(f"poly {tuple(poly)} is not squarefree")
    return cs


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs for one construction run.

    q_range is (lo, hi]: harvest primes q with lo < q <= hi and q - 1
    y-smooth.  k runs over [k_min, k_max].  Candidate primes d*k + 1 are
    capped by x_bound.  Subsets have sizes 3..t_max and the
    meet-in-the-middle search examines at most budget combinations.
    """

    y: int
    q_range: tuple[int, int]
    k_min: int
    k_max: int
    x_bound: int
    t_max: int
    poly: tuple[int, ...] = (-1, 1)
    budget: int = 1_000_000

    def problems(self) -> list[str]:
        issues = []
        if self.y < 2:
            issues.append(f"smoothness bound y = {self.y} below 2 harvests nothing")
        if self.q_range[0] >= self.q_range[1]:
            issues.append(f"harvest interval {self.q_range} is empty")
        if self.t_max < 3:
            issues.append(f"t_max = {self.t_max} admits no subsets (minimum size is 3)")
        if self.k_min > self.k_max:
            issues.append(f"multiplier range [{self.k_min}, {self.k_max}] is empty")
        return issues

    def validate(self) -> None:
        _require_squarefree(self.poly)
        if self.k_min < 1:
            raise ValueError("k_min must be >= 1")
        if self.x_bound < 3:
            raise ValueError("x_bound must be >= 3")
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class ConstructionCertificate:
    """A constructed n = product(subset), 1 mod k*L, with full evidence."""

    n: int
    subset: tuple[int, ...]
    k: int
    modulus: int  # the harvested product L
    korselt: KorseltCertificate
    splitting: tuple[tuple[int, bool], ...]
    poly: tuple[int, ...]

    def to_record(self) -> dict[str, str]:
        return {
            "n": str(self.n),
            "factors": ",".join(str(p) for p in self.subset),
            "k": str(self.k),
            "L": str(self.modulus),
            "poly": ",".join(str(c) for c in self.poly),
        }


@dataclass(frozen=True)
class SubsetSearchResult:
    subsets: tuple[tuple[int, ...], ...]
    complete: bool


@dataclass
class ConstructionResult:
    certificates: list[ConstructionCertificate] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)
    harvested: tuple[int, ...] = ()
    modulus: int | None = None
    k: int | None = None
    pool: tuple[int, ...] = ()
    complete: bool = True


def harvest_smooth_primes(q_range: tuple[int, int], y: int) -> list[int]:
    """Primes q with q_range[0] < q <= q_range[1] and q - 1 y-smooth.

    Smoothness is certified by completely factoring q - 1."""
    lo, hi = q_range
    out = []
    for q in range(max(lo + 1, 2), hi + 1):
        if not is_prime_baseline(q):
            continue
        if q == 2:
            # q - 1 = 1 is vacuously smooth.
            out.append(q)
            continue
        fact = factorize(q - 1)
        if all(p <= y for p in fact.primes()):
            out.append(q)
    return out


def _divisors(n: int) -> list[int]:
    fact = factorize(n)
    divs = [1]
    for p, e in fact.factors:
        divs = [d * p**i for d in divs for i in range(e + 1)]
        if len(divs) > _MAX_DIVISORS:
            raise ValueError(f"{n} has more than {_MAX_DIVISORS} divisors")
    return sorted(divs)


def _splits_for(p: int, cs: list[int], delta: int | None) -> bool:
    if len(cs) == 2:
        return True
    if delta is not None and delta % p == 0:
        return False  # ramified primes never split completely
    return splits_completely(p, cs)


def find_k_and_primes(L: int, poly, k_range: tuple[int, int],
                      x_bound: int) -> tuple[int, list[int]] | None:
    """Best multiplier k in k_range and its pool of usable primes.

    For each k coprime to L the pool is every prime p = d*k + 1 <= x_bound
    with d dividing L that splits completely for poly; p = 2 and primes
    dividing L are excluded (neither can join a subset product mod L).
    Returns the k with the largest pool, smallest k on ties, or None when
    no pool reaches the minimum subset size of 3.  A poly of degree >= 2
    with discriminant 0 raises ValueError: every prime would count as
    ramified, so no pool could ever fill.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    cs = _require_squarefree(poly)
    delta = discriminant(cs) if len(cs) > 2 else None
    divs = _divisors(L)
    best: tuple[int, list[int]] | None = None
    for k in range(k_range[0], k_range[1] + 1):
        if k < 1 or math.gcd(k, L) != 1:
            continue
        pool = []
        for d in divs:
            p = d * k + 1
            if p > x_bound:
                break  # divisors ascend, so every later p is too big
            if p == 2 or L % p == 0:
                continue
            if is_prime_baseline(p) and _splits_for(p, cs, delta):
                pool.append(p)
        if best is None or len(pool) > len(best[1]):
            best = (k, pool)
    if best is None or len(best[1]) < 3:
        return None
    return best


def _enumerate_half(half: list[int], L: int, budget: list[int]):
    """All subsets of one half as (residue mod L, size, members).

    Subset extension order is deterministic; each emitted subset costs
    one budget step.  Returns (entries, completed)."""
    entries: list[tuple[int, int, tuple[int, ...]]] = [(1 % L, 0, ())]
    for p in half:
        fresh = []
        for residue, size, members in entries:
            if budget[0] <= 0:
                return entries + fresh, False
            budget[0] -= 1
            fresh.append((residue * p % L, size + 1, members + (p,)))
        entries.extend(fresh)
    return entries, True


def subset_product_search(primes, L: int, t_max: int,
                          budget: int = 1_000_000) -> SubsetSearchResult:
    """Subsets S of the pool, 3 <= |S| <= t_max, with product(S) = 1 mod L.

    Meet-in-the-middle: the pool is sorted and split into halves by index
    parity, one half is tabulated by residue, and the other is matched
    against modular inverses.  Results come out in ascending product
    order.  complete is False when the step budget ran out first.
    """
    pool = sorted(int(p) for p in primes)
    if len(pool) != len(set(pool)):
        raise ValueError("prime pool contains duplicates")
    if len(pool) > _MAX_POOL:
        raise ValueError(f"pool larger than {_MAX_POOL} primes")
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    for p in pool:
        if math.gcd(p, L) != 1:
            raise ValueError(f"pool member {p} shares a factor with L = {L}")
    steps = [budget]
    left = pool[0::2]
    right = pool[1::2]
    right_entries, right_done = _enumerate_half(right, L, steps)
    by_residue: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for residue, size, members in right_entries:
        by_residue.setdefault(residue, []).append((size, members))
    left_entries, left_done = _enumerate_half(left, L, steps)
    complete = right_done and left_done
    found: list[tuple[int, tuple[int, ...]]] = []
    for residue, size, members in left_entries:
        if size > t_max:
            continue
        # For L = 1 every residue is 0 and every product matches.
        want = inv_mod(residue, L) if L > 1 else 0
        for other_size, other_members in by_residue.get(want, ()):
            if steps[0] <= 0:
                complete = False
                break
            steps[0] -= 1
            total = size + other_size
            if total < 3 or total > t_max:
                continue
            subset = tuple(sorted(members + other_members))
            product = math.prod(subset)
            found.append((product, subset))
        if steps[0] <= 0:
            complete = False
            break
    found.sort()
    return SubsetSearchResult(tuple(s for _, s in found), complete)


def construct(params: ConstructionParams) -> ConstructionResult:
    """Run the whole pipeline; every certificate is re-verified before
    being emitted.  Degenerate parameters produce an empty certificate
    list with a diagnostic naming the stage that went dry."""
    params.validate()
    result = ConstructionResult()
    result.diagnostics.extend(params.problems())
    lo, hi = params.q_range
    harvested = harvest_smooth_primes((lo, hi), params.y) if lo < hi else []
    result.harvested = tuple(harvested)
    if not harvested:
        result.diagnostics.append("harvest stage: no primes with a smooth q - 1")
        return result
    L = math.prod(harvested)
    result.modulus = L
    best = find_k_and_primes(L, params.poly, (params.k_min, params.k_max),
                             params.x_bound)
    if best is None:
        result.diagnostics.append(
            "multiplier stage: no k produced three usable split primes")
        return result
    k, pool = best
    result.k = k
    result.pool = tuple(pool)
    search = subset_product_search(pool, L, params.t_max, params.budget)
    result.complete = search.complete
    if not search.complete:
        result.diagnostics.append("subset stage: step budget exhausted")
    if not search.subsets:
        result.diagnostics.append("subset stage: no subset product is 1 mod L")
        return result
    cs = _trim(list(params.poly))
    degree_one = len(cs) == 2
    for subset in search.subsets:
        n = math.prod(subset)
        cert = korselt(n)
        splitting = tuple(
            (p, True if degree_one else splits_completely(p, cs)) for p in subset)
        if not cert.validates:
            result.diagnostics.append(
                f"re-verification rejected {n}: {cert.failure_reason}")
            continue
        if not all(ok for _, ok in splitting):
            result.diagnostics.append(f"re-verification rejected {n}: splitting")
            continue
        if n % (k * L) != 1:
            result.diagnostics.append(f"re-verification rejected {n}: congruence")
            continue
        result.certificates.append(ConstructionCertificate(
            n, subset, k, L, cert, splitting, tuple(cs)))
    return result


# Named parameter sets for the command line.  classic-Q is calibrated to
# produce certificates in well under a minute on one core; empty-range
# demonstrates the harvest-stage diagnostic path.
PRESETS: dict[str, ConstructionParams] = {
    "classic-Q": ConstructionParams(
        y=3, q_range=(3, 8), k_min=1, k_max=100, x_bound=3000, t_max=5,
        poly=(-1, 1), budget=100_000),
    "empty-range": ConstructionParams(
        y=3, q_range=(3, 3), k_min=1, k_max=10, x_bound=1000, t_max=4,
        poly=(-1, 1), budget=1000),
}
