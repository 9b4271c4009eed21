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

Subset hunting is meet-in-the-middle on residues mod L: one half of the
pool is tabulated by the residues of its subsets of at most t_max
members, the other by the inverses of theirs.  Each table is a flat list
of residues beside an array of member bitmasks of the pool, and only the
residues the two tables share are indexed for the pair scan, so the
modest prime pools this module targets stay comfortably cheap.  The
tables share one step budget and the pair scan has one of its own, so a
cut table still leaves pairs to examine.  Every emitted certificate is
re-verified from scratch before it leaves the pipeline.

ConstructionParams raises one ValueError naming every bad value when it
is built, so a stage diagnostic from construct means valid input starved.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import compress, islice

from .carmichael import KorseltCertificate, SplittingEvidence, carmichael_frobenius
from .frobenius import _splits_completely
from .modarith import factorize, is_prime_baseline
from .polymod import _require_poly

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
# Subset tables hold members as bits of the sorted pool in an array("Q"),
# so the pool may not outgrow its 64 bits.
_MAX_POOL = 64


@dataclass(frozen=True)
class ConstructionParams:
    """Knobs for one construction run.

    q_range is (lo, hi]: harvest primes q with lo < q <= hi and q - 1
    y-smooth.  k runs over [k_min, k_max].  Candidate primes d*k + 1 are
    capped by x_bound.  Subsets have sizes 3..t_max.  The
    meet-in-the-middle search makes at most budget new table entries, each
    a subset of at most t_max members of one half, and then examines at
    most budget pairs of entries.  poly is kept as the one polynomial
    check returns it.
    """

    y: int
    q_range: tuple[int, int]
    k_min: int
    k_max: int
    x_bound: int
    t_max: int
    poly: tuple[int, ...] = (-1, 1)
    budget: int = 1_000_000

    def __post_init__(self) -> None:
        issues = []
        try:
            object.__setattr__(self, "poly", _require_poly(self.poly, 1, squarefree=True))
        except ValueError as exc:
            issues.append(str(exc))
        if self.y < 2:
            issues.append(f"smoothness bound y = {self.y} below 2 harvests at most "
                          "q = 2, and no pool can reach three primes")
        if self.q_range[0] >= self.q_range[1]:
            issues.append(f"harvest interval {self.q_range} is empty")
        if self.t_max < 3:
            issues.append(f"t_max = {self.t_max} admits no subsets (minimum size is 3)")
        if self.k_min < 1:
            issues.append("k_min must be >= 1")
        if self.k_min > self.k_max:
            issues.append(f"multiplier range [{self.k_min}, {self.k_max}] is empty")
        if self.x_bound < 3:
            issues.append("x_bound must be >= 3")
        if self.budget < 1:
            issues.append("budget must be positive")
        if issues:
            raise ValueError("; ".join(issues))


@dataclass(frozen=True)
class ConstructionCertificate:
    """A constructed n = product(subset), 1 mod k*L, with full evidence."""

    n: int
    subset: tuple[int, ...]
    k: int
    modulus: int  # the harvested product L
    korselt: KorseltCertificate
    splitting: tuple[SplittingEvidence, ...]  # one per prime factor, every degree
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
    f = _require_poly(poly, 1, squarefree=True)
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
            if p == 2 or L % p == 0 or not is_prime_baseline(p):
                continue
            if _splits_completely(p, f):
                pool.append(p)
        if best is None or len(pool) > len(best[1]):
            best = (k, pool)
    if best is None or len(best[1]) < 3:
        return None
    return best


def _subset_table(factors, L: int, t_max: int,
                  room: int) -> tuple[list[int], array, bool]:
    """Residues mod L and member bitmasks, index for index, of the subsets
    of at most t_max of factors, a list of (unit mod L, bit) pairs; a
    subset's residue is the product of its units.

    Built one factor at a time: each factor extends every entry so far
    with fewer than t_max members, in order.  At most room new entries
    are made; the flag is False when some such subset did not fit."""
    residues = [1 % L]
    masks = array("Q", [0])
    for unit, bit in factors:
        grows = [m.bit_count() < t_max for m in masks]
        residues += [r * unit % L for r in islice(compress(residues, grows), room)]
        masks.extend([m | bit for m in islice(compress(masks, grows), room)])
        room -= grows.count(True)
        if room < 0:
            return residues, masks, False
    return residues, masks, True


def subset_product_search(primes, L: int, t_max: int,
                          budget: int = 1_000_000) -> SubsetSearchResult:
    """Subsets S of the pool, 3 <= |S| <= t_max, with product(S) = 1 mod L.

    Meet-in-the-middle: the pool is sorted and split into halves by index
    parity.  The right half is tabulated by the residues of its primes,
    the left half by the residues of their inverses, so a left entry's
    residue is the key of the right entries that complete it to 1 mod L;
    only keys found in both tables are indexed and scanned.  Tables hold
    only subsets of at most t_max members.  Members are bits of the sorted
    pool, decoded only for a match of allowed size.  The two
    tables share budget new entries, and the pair scan examines up to
    budget pairs of its own.  Results come out in ascending product order.
    complete is False when either allowance ran out first.
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
    right_factors = [(p % L, 1 << i) for i, p in enumerate(pool) if i % 2]
    left_factors = [(pow(p, -1, L), 1 << i) for i, p in enumerate(pool) if i % 2 == 0]
    budget = max(budget, 0)
    right, right_masks, right_full = _subset_table(right_factors, L, t_max, budget)
    left, left_masks, left_full = _subset_table(left_factors, L, t_max,
                                                budget + 1 - len(right))
    complete = right_full and left_full
    common = set(right).intersection(left)
    by_residue: dict[int, list[int]] = {}
    for residue, mask in zip(right, right_masks):
        if residue in common:
            by_residue.setdefault(residue, []).append(mask)
    found: list[int] = []
    pairs = budget
    for key, left_mask in zip(left, left_masks):
        if key not in common:
            continue  # no right entry completes it: zero pairs to examine
        matches = by_residue[key]
        for right_mask in matches[:pairs]:
            mask = left_mask | right_mask
            if 3 <= mask.bit_count() <= t_max:
                found.append(mask)
        pairs -= len(matches)
        if pairs < 0:
            complete = False
            break
    subsets = [tuple(p for i, p in enumerate(pool) if mask >> i & 1) for mask in found]
    subsets.sort(key=math.prod)
    return SubsetSearchResult(tuple(subsets), complete)


def construct(params: ConstructionParams) -> ConstructionResult:
    """Run the whole pipeline; every certificate is re-verified before
    being emitted.  When a stage runs dry on valid parameters the
    certificate list is empty and a diagnostic names that stage."""
    result = ConstructionResult()
    harvested = harvest_smooth_primes(params.q_range, params.y)
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
    if not search.complete:
        result.diagnostics.append("subset stage: step budget exhausted")
    if not search.subsets:
        result.diagnostics.append("subset stage: no subset product is 1 mod L")
        return result
    for subset in search.subsets:
        n = math.prod(subset)
        check = carmichael_frobenius(n, params.poly)
        if not check:
            result.diagnostics.append(f"re-verification rejected {n}: {check.reason}")
            continue
        if n % (k * L) != 1:
            result.diagnostics.append(f"re-verification rejected {n}: congruence")
            continue
        result.certificates.append(ConstructionCertificate(
            n, subset, k, L, check.korselt, check.splitting, params.poly))
    return result


# Named parameter sets for the command line.  classic-Q is calibrated to
# produce certificates in well under a minute on one core.
PRESETS: dict[str, ConstructionParams] = {
    "classic-Q": ConstructionParams(
        y=3, q_range=(3, 8), k_min=1, k_max=100, x_bound=3000, t_max=5,
        poly=(-1, 1), budget=100_000),
}
