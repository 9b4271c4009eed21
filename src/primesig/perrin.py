"""Third-order recurrence sequences and their signature classification.

For parameters (r, s) the sequence is defined by A(-1) = s, A(0) = 3,
A(1) = r and A(n) = r*A(n-1) - s*A(n-2) + A(n-3).  Equivalently A(n) is
the n-th power sum of the roots of x^3 - r*x^2 + s*x - 1, which makes
A(-n)(r, s) = A(n)(s, r) and keeps every A(n) an integer for negative n
as well.  The classical Perrin sequence is (r, s) = (0, -1).

Terms are computed in the ring Z/mZ[x]/(f) of the cubic f: A(k) is the
trace of x^k, so with x^k = c0 + c1*x + c2*x^2 mod f it equals
c0*A(0) + c1*A(1) + c2*A(2), and A(k + j) is the same sum over
A(j), A(j + 1), A(j + 2), read from exact_terms.  A single negative
index runs the same computation on the reversed cubic
x^3 - s*x^2 + r*x - 1, so no inverse is needed.
The signature of n mod m is the 6-tuple (A(-n-1), A(-n), A(-n+1),
A(n-1), A(n), A(n+1)).  It costs one power, x^(n-1), and one squaring:
since the roots multiply to 1, A(-k) = (A(k)^2 - A(2k))/2.  An odd n
whose signature mod n looks prime-like is sorted into one of three
shapes (S, I, Q) matching the three splitting types of the cubic.

One lemma rejects most composites without a power: A(p*m) = A(m) mod p
for every prime p and every m >= 0 (residue_walk proves it), so n = p*m
with A(m) != r mod p fails both tests, since every acceptable signature
has A(n) = r at position 5.  Both modes read it at each prime p <= 59
dividing n, 2 included, before their power; the range scans read it for
a whole block, keeping an odd multiple p*m only where A(m) = r mod p.
residue_tables gives those m over one period for each odd prime p <= 59,
built per prime on first use, residue_walk gives A(m), A(m + 2), ... mod
any larger prime p, and exact_terms gives A(0), A(1), ... as integers,
read mod the one large prime factor of n.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .modarith import jacobi
from .polymod import Poly, _gcmd_minus_x, _ppow_monic, _require_poly, _xpow

__all__ = [
    "RecurrenceParams",
    "PERRIN",
    "Signature",
    "SignatureClass",
    "sequence_term",
    "signature",
    "classify_signature",
    "perrin_test",
    "PerrinResult",
    "residue_tables",
    "residue_walk",
    "exact_terms",
    "EXACT_TERM_BITS",
]


@dataclass(frozen=True)
class RecurrenceParams:
    """Integer parameters (r, s) of the cubic x^3 - r*x^2 + s*x - 1, which
    poly holds (lowest degree first) from one check; r and s are its ints."""

    r: int
    s: int
    poly: Poly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            poly = _require_poly((-1, self.s, -self.r, 1), 3)
        except (TypeError, ValueError):
            raise ValueError(f"r and s must be integers, got {self.r!r}, {self.s!r}") from None
        self.__dict__.update(r=-poly[2], s=poly[1], poly=poly)

    @property
    def delta(self) -> int:
        return self.poly.delta


PERRIN = RecurrenceParams(0, -1)


class Signature(NamedTuple):
    """(A(-n-1), A(-n), A(-n+1), A(n-1), A(n), A(n+1)) mod modulus."""

    modulus: int
    values: tuple[int, int, int, int, int, int]
    index: int


class SignatureClass(NamedTuple):
    """Shape of a signature: kind "S", "I", "Q" or "not-acceptable".

    I carries the off-template pair (d at tuple position 4, d_prime at
    position 3); Q carries the recovered root a of the cubic mod n.
    """

    kind: str
    a: int | None = None
    d: int | None = None
    d_prime: int | None = None

    def __str__(self) -> str:
        kind = self.kind
        if kind == "I":
            return f"I[D={self.d},D'={self.d_prime}]"
        if kind == "Q":
            return f"Q[a={self.a}]"
        return kind


NOT_ACCEPTABLE = SignatureClass("not-acceptable")


def _terms(params: RecurrenceParams, coeffs: list[int], m: int, count: int) -> list[int]:
    # A(k), ..., A(k + count - 1) mod m from coeffs = x^k mod f: A(k + j)
    # is the trace of x^k * x^j, so coeffs dotted with A(j), A(j+1), A(j+2).
    c0, c1, c2 = coeffs + [0] * (3 - len(coeffs))
    a = exact_terms(params, count + 2)
    return [(c0 * a[j] + c1 * a[j + 1] + c2 * a[j + 2]) % m for j in range(count)]


def sequence_term(params: RecurrenceParams, k: int, m: int) -> int:
    """A(k) mod m for any integer k, from x^|k| in O(log |k|) products."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if k < 0:
        params, k = RecurrenceParams(params.s, params.r), -k
    return _terms(params, _xpow(k, params.poly, m), m, 1)[0]


def signature(params: RecurrenceParams, n: int, m: int) -> Signature:
    """Signature of index n mod m from the one power x^(n-1).

    The roots multiply to 1, so A(-k) is the second elementary symmetric
    function of the k-th powers of the roots: A(-k) = (A(k)^2 - A(2k))/2.
    Terms are taken mod 2m, where the halving is exact for every m.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    m2 = 2 * m
    power = _xpow(n - 1, params.poly, m2)
    pos = _terms(params, power, m2, 3)
    # A(2n-2), ..., A(2n+2) from x^(2n-2), one squaring away.
    dbl = _terms(params, _ppow_monic(power, 2, params.poly, m2), m2, 5)
    neg = [(a * a - b) % m2 // 2 for a, b in zip(pos, dbl[::2])]
    return Signature(m, tuple(neg[::-1] + [a % m for a in pos]), n)


# Odd primes whose residue tables the range scans read.  The weak test
# reads 2 as well; the gcd of n with their product holds those dividing n.
_TABLE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
_TABLE_PRODUCT = 2 * math.prod(_TABLE_PRIMES)


@functools.lru_cache(maxsize=1024)
def _table_primes(g: int) -> tuple[int, ...]:
    return tuple(p for p in (2, *_TABLE_PRIMES) if g % p == 0)


@functools.lru_cache(maxsize=256)
def _residue_table(f: Poly, p: int) -> tuple[int, tuple[int, ...], frozenset[int]]:
    # (T, hits) of residue_tables for one p of the cubic f, built on first
    # use, and hits as a set.
    r, s = -f[2] % p, f[1] % p
    a0, b0, c0 = a, b, c = 3 % p, r, (r * r - 2 * s) % p
    period = []
    while True:
        period.append(a)
        a, b, c = b, c, (r * c - s * b + a) % p
        if a == a0 and b == b0 and c == c0:  # no tuple built per step
            break
    hits = tuple(k for k, a in enumerate(period) if a == r)
    return len(period), hits, frozenset(hits)


def _table_miss(params: RecurrenceParams, n: int) -> bool:
    # A(n) = A(n/p) mod p for each table prime p | n (residue_walk), so a
    # miss in p's table means A(n) != r mod n.
    g = math.gcd(n, _TABLE_PRODUCT)
    for p in _table_primes(g) if g > 1 else ():
        period, _, hits = _residue_table(params.poly, p)
        if n // p % period not in hits:
            return True
    return False


def residue_tables(params: RecurrenceParams) -> dict[int, tuple[int, tuple[int, ...]]]:
    """{p: (T, hits)} for each odd prime p <= 59, where T is the period
    of A mod p and hits are the k < T with A(k) = r mod p.

    A(k) mod p is purely periodic: the cubic's constant term is -1, so
    the step (A(k), A(k+1), A(k+2)) -> (A(k+1), A(k+2), A(k+3)) is
    invertible mod p and the window comes back to (A(0), A(1), A(2)).
    So A(k) = r mod p iff k % T is in hits.  The tables are shared; a
    caller reads, never writes them.
    """
    return {p: _residue_table(params.poly, p)[:2] for p in _TABLE_PRIMES}


def residue_walk(params: RecurrenceParams, p: int, m: int, count: int) -> list[int]:
    """A(m), A(m + 2), ..., A(m + 2*(count - 1)) mod p, for m >= 0.

    The scans walk the primes p above 59 with it: A(p*m) = A(m) mod p,
    because b -> b^p is a ring endomorphism of F_p[x]/(f) and
    tr(b^p) = tr(b)^p = tr(b); so an odd multiple n = p*m (m >= 3) with
    A(m) != r mod p cannot pass either test.  The start window
    (A(m), A(m + 2), A(m + 4)) comes from x^m; each further term is one
    step of the recurrence of the squared roots, whose (r, s) is
    (A(2), A(-2)) = (r^2 - 2s, s^2 - 2r).
    """
    a, _, b, _, c = _terms(params, _xpow(m, params.poly, p), p, 5)
    r2 = (params.r * params.r - 2 * params.s) % p
    s2 = (params.s * params.s - 2 * params.r) % p
    out = []
    for _ in range(count):
        out.append(a)
        a, b, c = b, c, (r2 * c - s2 * b + a) % p
    return out


# The most bits the exact terms of one recurrence hold together, past
# the first 7, which _terms reads whatever (r, s).  A(k) has about
# k*log2(largest root) bits, so the index at which the table stops
# depends on (r, s), but its size never does.
EXACT_TERM_BITS = 1 << 25


@functools.lru_cache(maxsize=4)
def _exact_table(f: Poly) -> list[int]:
    # A(0), A(1), A(2) of the cubic f, grown in place by exact_terms.
    r, s = -f[2], f[1]
    return [3, r, r * r - 2 * s]


def exact_terms(params: RecurrenceParams, count: int) -> list[int]:
    """A(0), A(1), ... as exact integers: at least count of them, or all
    that fit in EXACT_TERM_BITS bits together, but never fewer than
    min(count, 7).

    The list is shared and grows across calls; a caller reads, never
    writes it.  The scans read A(m) mod P from it for the one prime
    factor P of n = m*P above the sieve bound, since A(m*P) = A(m) mod P
    (residue_walk).
    """
    r, s = params.r, params.s
    terms = _exact_table(params.poly)
    if len(terms) < count:
        bits = sum(map(int.bit_length, terms))
        while len(terms) < count:
            a = r * terms[-1] - s * terms[-2] + terms[-3]
            bits += a.bit_length()
            if bits > EXACT_TERM_BITS and len(terms) >= 7:
                break
            terms.append(a)
    return terms


def _recover_root(params: RecurrenceParams, n: int) -> int | None:
    # Candidate root of the cubic mod n: the degree-1 part of
    # gcmd(x^n - x, f).  Anything else means no Q match.
    out = _gcmd_minus_x(_xpow(n, params.poly, n), params.poly, n)
    if out[0] == "factor":
        import logging
        logging.getLogger(__name__).debug("root recovery mod %d exposed factor %d", n, out[1])
        return None
    g = out[1]
    if len(g) != 2:
        return None
    return -g[0] % n


def classify_signature(params: RecurrenceParams, n: int, sig: Signature) -> SignatureClass:
    """Sort a signature mod n into S, I or Q shape (tried in that order)."""
    if sig.modulus != n:
        raise ValueError(f"signature modulus {sig.modulus} does not match n = {n}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    r = params.r % n
    s = params.s % n
    t = sig.values
    a0, a1, a2 = [a % n for a in exact_terms(params, 3)[:3]]
    am1 = s
    am2 = (params.s * params.s - 2 * params.r) % n
    if t == (am2, am1, a0, a0, a1, a2):
        return SignatureClass("S")
    if t[0] == r and t[1] == s and t[4] == r and t[5] == s:
        d_prime, d = t[2], t[3]
        if ((d_prime + d) % n == (params.r * params.s - 3) % n
                and (d_prime - d) ** 2 % n == params.delta % n):
            return SignatureClass("I", d=d, d_prime=d_prime)
    # Root recovery costs another power of x, so the cheap Q conditions
    # go first.
    if t[1] != s or t[4] != r:
        return NOT_ACCEPTABLE
    root = _recover_root(params, n)
    if root is None:
        return NOT_ACCEPTABLE
    a_sq = root * root % n
    # f(root) = 0 and f(0) = -1 give root * (root^2 - r*root + s) = 1.
    a_inv = (a_sq - params.r * root + params.s) % n
    val_a = (a_inv * a_inv + 2 * root) % n
    val_b = (-params.r * a_sq + (params.r * params.r - params.s) * root) % n
    val_c = (a_sq + 2 * a_inv) % n
    if t[0] == val_a and t[2] == val_b and t[3] == val_b and t[5] == val_c:
        return SignatureClass("Q", a=root)
    return NOT_ACCEPTABLE


class PerrinResult(NamedTuple):
    """Outcome of perrin_test: overall pass flag, the signature class
    (full mode only), the Jacobi symbol of the discriminant and the
    signature mod n it was classified from (full mode, unless a table
    prime settled n).  Full mode always carries the symbol; weak mode
    only for an odd n that passes, the only n recorded with it."""

    passes: bool
    signature_class: SignatureClass | None
    jacobi_symbol: int | None
    signature: Signature | None = None


# The shared results of a table miss; full mode's symbol is 1 or -1.
_WEAK_MISS = PerrinResult(False, None, None)
_FULL_MISS = {j: PerrinResult(False, NOT_ACCEPTABLE, j) for j in (1, -1)}


def perrin_test(params: RecurrenceParams, n: int, mode: str = "full") -> PerrinResult:
    """Signature test at n.

    Weak mode (any n >= 2) checks the classical congruence A(n) = r
    mod n, which every acceptable signature shares at position 5.  Full
    mode (odd n, gcd(n, delta) = 1) requires the signature class to
    match the Jacobi symbol of the discriminant: S or I when
    (delta/n) = 1, Q when (delta/n) = -1.  Both modes first read the
    residue table of each prime p <= 59 dividing n, and fail n without a
    power where A(n/p) != r mod p; full mode then gives the class
    not-acceptable and signature None.  Every prime passes both modes;
    composites that pass are the pseudoprimes this package exists to hunt.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if mode == "weak":
        if _table_miss(params, n):
            return _WEAK_MISS
        passes = _terms(params, _xpow(n, params.poly, n), n, 1)[0] == params.r % n
        j = jacobi(params.delta, n) if passes and n % 2 else None
        return PerrinResult(passes, None, j)
    if mode == "full":
        delta = params.delta
        if n % 2 == 0:
            raise ValueError(f"full mode requires odd n, got {n}")
        if math.gcd(delta, n) != 1:
            raise ValueError(f"full mode requires gcd(n, delta) = 1, got n = {n}")
        j = jacobi(delta, n)
        if _table_miss(params, n):
            return _FULL_MISS[j]
        sig = signature(params, n, n)
        klass = classify_signature(params, n, sig)
        passes = (j == 1 and klass.kind in ("S", "I")) or (j == -1 and klass.kind == "Q")
        return PerrinResult(passes, klass, j, sig)
    raise ValueError(f"unknown mode {mode!r}; expected 'weak' or 'full'")
