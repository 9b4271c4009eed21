"""Exact integer arithmetic: Jacobi symbols, modular inverses, primality,
and deterministic small-scale factorization.

factorize runs trial division to 10**4, then Miller's n - 1 split (a few
modular powers, which break up Carmichael numbers), then Brent rho on what
is left; only the Brent steps count against its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "NotInvertibleError",
    "BudgetExceededError",
    "Factorization",
    "jacobi",
    "inv_mod",
    "is_prime_baseline",
    "factorize",
]

_TRIAL_LIMIT = 10_000
_small_primes_cache: list[int] | None = None


def _small_primes() -> list[int]:
    global _small_primes_cache
    if _small_primes_cache is None:
        limit = _TRIAL_LIMIT
        sieve = bytearray(b"\x01") * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                start = p * p
                sieve[start::p] = b"\x00" * ((limit - start) // p + 1)
        _small_primes_cache = [i for i in range(limit + 1) if sieve[i]]
    return _small_primes_cache


class NotInvertibleError(ValueError):
    """a has no inverse mod n; .gcd carries gcd(a, n) > 1.

    When 1 < gcd < n the failed inversion has revealed a nontrivial
    factor of the modulus, which callers may want to keep.
    """

    def __init__(self, a: int, n: int, g: int):
        super().__init__(f"{a} is not invertible mod {n} (gcd = {g})")
        self.a = a
        self.n = n
        self.gcd = g


class BudgetExceededError(RuntimeError):
    """factorize ran out of steps before finishing.

    .partial maps the primes found so far to exponents and .remaining
    lists the cofactors still unfactored.
    """

    def __init__(self, n: int, partial: dict[int, int], remaining: list[int]):
        super().__init__(f"factoring budget exhausted on {n}")
        self.n = n
        self.partial = dict(partial)
        self.remaining = list(remaining)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1.  Returns 0 iff gcd(a, n) > 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"jacobi requires odd n >= 1, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def inv_mod(a: int, n: int) -> int:
    """Inverse of a mod n >= 2.

    Raises NotInvertibleError carrying gcd(a, n) when no inverse exists.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    try:
        return pow(a, -1, n)
    except ValueError:
        raise NotInvertibleError(a % n, n, math.gcd(a, n)) from None


# Witness sets for the strong-probable-prime rounds.  The four-prime set is
# deterministic below 3_215_031_751, the twelve-prime set below ~3.3e24,
# which covers the whole 64-bit range.
_MR_BASES_SMALL = (2, 3, 5, 7)
_MR_BASES_WIDE = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_SMALL_LIMIT = 3_215_031_751


def _strong_probable_prime(n: int, base: int) -> bool:
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_uv(k: int, p: int, q: int, d: int, n: int) -> tuple[int, int, int]:
    # U_k, V_k, Q^k mod n for the Lucas sequence with parameters (p, q),
    # d = p*p - 4*q.  Binary chain; n odd so halving is exact.
    u, v, qk = 1, p % n, q % n
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = p * u + v, d * u + p * v
            if u & 1:
                u += n
            if v & 1:
                v += n
            u = (u >> 1) % n
            v = (v >> 1) % n
            qk = qk * q % n
    return u, v, qk


def _strong_lucas_probable_prime(n: int) -> bool:
    # Parameter choice: first D in 5, -7, 9, -11, ... with (D/n) = -1.
    root = math.isqrt(n)
    if root * root == n:
        return False
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) < n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4
    oddpart = n + 1
    s = (oddpart & -oddpart).bit_length() - 1
    oddpart >>= s
    u, v, qk = _lucas_uv(oddpart, p, q, d, n)
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime_baseline(n: int) -> bool:
    """Primality oracle used everywhere else in the package.

    Deterministic and correct for all n below 2**64 (trial division plus a
    fixed strong-probable-prime witness set).  Above 2**64 the witness
    battery is joined by a strong Lucas check and the verdict is a
    documented probable-prime assumption, not a certificate.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        if n % p == 0:
            return n == p
    if n < 101 * 101:
        return True
    bases = _MR_BASES_SMALL if n < _MR_SMALL_LIMIT else _MR_BASES_WIDE
    for base in bases:
        if not _strong_probable_prime(n, base):
            return False
    if n >> 64 and not _strong_lucas_probable_prime(n):
        return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of base as sorted (prime, exponent) pairs."""

    base: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    def verify(self) -> bool:
        prod = 1
        for p, e in self.factors:
            if e < 1 or not is_prime_baseline(p):
                return False
            prod *= p**e
        return prod == self.base


def _brent_cycle(n: int, c: int, budget: list[int]) -> int | None:
    # One Brent cycle-detection pass with polynomial x^2 + c, start 2.
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            batch = min(128, r - k)
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += batch
            budget[0] -= batch
            if budget[0] <= 0 and g == 1:
                return None
        r <<= 1
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            budget[0] -= 1
            if budget[0] <= 0 and g == 1:
                return None
    return g if 1 < g < n else None


def _rho_split(n: int, budget: list[int]) -> int | None:
    # Deterministic seed schedule: c = 1, 2, 3, ...  Retried on the rare
    # passes that collapse to gcd == n.
    for c in range(1, 1000):
        if budget[0] <= 0:
            return None
        f = _brent_cycle(n, c, budget)
        if f is not None:
            return f
    return None


# Bases for the n - 1 split: the first eight primes.  Trial division has
# removed every factor below 10**4, so each base is a unit mod the cofactor.
_SPLIT_BASES = (2, 3, 5, 7, 11, 13, 17, 19)


def _miller_split(m: int, e: int) -> int | None:
    # Miller's reduction (J. Comput. Syst. Sci. 13, 1976): with e = d*2^s,
    # d odd, walk x = a^d, a^(2d), ..., a^e mod m.  When e is a multiple of
    # lambda(m), as for every divisor m of a Carmichael n and e = n - 1, then
    # for at least half of all bases a some x - 1 vanishes mod one prime
    # factor of m but not mod another, and the gcd splits m.
    # Fixed work: at most len(_SPLIT_BASES) powers and s squarings each.
    s = (e & -e).bit_length() - 1
    d = e >> s
    for a in _SPLIT_BASES:
        x = pow(a, d, m)
        for _ in range(s + 1):
            g = math.gcd(x - 1, m)
            if g == m:
                break
            if g > 1:
                return g
            x = x * x % m
    return None


def factorize(n: int, budget: int = 4_000_000) -> Factorization:
    """Factor n >= 2 in three steps: trial division to 10**4, then Miller's
    n - 1 split of each composite cofactor, then Brent's cycle method with
    a deterministic seed schedule for what the split leaves.

    The n - 1 split costs at most eight modular powers per cofactor.  It
    splits Carmichael numbers and their divisors (each base succeeds with
    probability at least 1/2); what it cannot split goes on to Brent.  All returned primes are certified by is_prime_baseline.  The
    step budget counts Brent steps only; BudgetExceededError (carrying
    partial results) is raised when it runs out.
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    found: dict[int, int] = {}
    m = n
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    steps = [budget]
    pending: list[int] = []
    if m > 1:
        # No factor below 10**4 survives trial division, so anything under
        # 10**8 left here is prime.
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
            found[m] = found.get(m, 0) + 1
        else:
            pending.append(m)
    while pending:
        m = pending.pop()
        if is_prime_baseline(m):
            found[m] = found.get(m, 0) + 1
            continue
        f = _miller_split(m, n - 1) or _rho_split(m, steps)
        if f is None:
            raise BudgetExceededError(n, found, [m] + pending)
        pending.append(f)
        pending.append(m // f)
    return Factorization(n, tuple(sorted(found.items())))
