"""Naive reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares
no code with the package under test.  Oracles answer from first
principles (sieves, trial division, literal recurrence stepping,
cofactor expansion) so that agreement is meaningful.
"""

import math
import random
from itertools import combinations


def sieve(limit: int) -> bytearray:
    """flags[i] == 1 iff i is prime, for 0 <= i <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return flags


def is_prime_naive(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def factorize_naive(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def jacobi_naive(a: int, n: int) -> int:
    """Jacobi symbol from the definition: product of Legendre symbols,
    each evaluated by Euler's criterion."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    result = 1
    for p, e in factorize_naive(n).items():
        legendre = pow(a % p, (p - 1) // 2, p)
        if legendre == p - 1:
            legendre = -1
        result *= legendre**e
    return result


def recurrence_window(r: int, s: int, lo: int, hi: int, m: int) -> dict[int, int]:
    """Terms A_k mod m for all k in [lo, hi], by literal stepping.

    Seeds A_{-1} = s, A_0 = 3, A_1 = r and walks the recurrence
    A_k = r*A_{k-1} - s*A_{k-2} + A_{k-3} in both directions.
    """
    terms = {-1: s % m, 0: 3 % m, 1: r % m}
    terms[2] = (r * terms[1] - s * terms[0] + terms[-1]) % m
    k = 2
    while k < hi:
        k += 1
        terms[k] = (r * terms[k - 1] - s * terms[k - 2] + terms[k - 3]) % m
    k = -1
    while k > lo:
        k -= 1
        # Reversed recurrence: A_k = A_{k+3} - r*A_{k+2} + s*A_{k+1}.
        terms[k] = (terms[k + 3] - r * terms[k + 2] + s * terms[k + 1]) % m
    return {k: v for k, v in terms.items() if lo <= k <= hi}


def recurrence_term(r: int, s: int, k: int, m: int) -> int:
    window = recurrence_window(r, s, min(k, -1), max(k, 1), m)
    return window[k]


def weak_perrin_by_stepping(n: int) -> bool:
    """Literal O(n) check that the n-th Perrin number is divisible by n."""
    a, b, c = 3 % n, 0, 2 % n  # A_0, A_1, A_2
    for _ in range(n - 2):
        a, b, c = b, c, (b + a) % n
    return c == 0


def weak_perrin_by_stepping_many(ns) -> dict[int, bool]:
    """weak_perrin_by_stepping for each n >= 2 of ns, in one literal pass.

    The Perrin numbers are stepped once modulo the product M of the
    distinct n; each n divides M, so A_n mod n is read off A_n mod M as
    the pass reaches index n."""
    wanted = sorted(set(ns))
    if wanted and wanted[0] < 2:
        raise ValueError(f"n must be >= 2, got {wanted[0]}")
    m = math.prod(wanted)
    out = {}
    a, b, c = 3 % m, 0, 2 % m  # A_k, A_{k+1}, A_{k+2} mod m, from k = 0
    k = 0
    for n in wanted:
        while k < n:
            a, b, c = b, c, b + a
            if c >= m:
                c -= m
            k += 1
        out[n] = a % n == 0
    return out


def weak_perrin_by_poly_trace(n: int) -> bool:
    """Independent fast route: A_k is the trace of x^k in Z[x]/(x^3-x-1),
    read off against the power sums 3, 0, 2."""
    c0, c1, c2 = _poly_pow_x(n, n)
    return (3 * c0 + 2 * c2) % n == 0


def _poly_pow_x(e: int, n: int) -> tuple[int, int, int]:
    # x^e mod (x^3 - x - 1) mod n, square and multiply on triples.
    def mul(p, q):
        t0 = p[0] * q[0]
        t1 = p[0] * q[1] + p[1] * q[0]
        t2 = p[0] * q[2] + p[1] * q[1] + p[2] * q[0]
        t3 = p[1] * q[2] + p[2] * q[1]
        t4 = p[2] * q[2]
        # Reduce: x^3 = x + 1, x^4 = x^2 + x.
        return ((t0 + t3) % n, (t1 + t3 + t4) % n, (t2 + t4) % n)

    result = (1, 0, 0)
    base = (0, 1, 0)
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def fermat_carmichael(n: int) -> bool:
    """a^n == a mod n for every a in [1, n), checked directly."""
    return all(pow(a, n, n) == a for a in range(1, n))


def det_cofactor(matrix: list[list[int]]) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0
    for col in range(size):
        if matrix[0][col] == 0:
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        sign = -1 if col % 2 else 1
        total += sign * matrix[0][col] * det_cofactor(minor)
    return total


def discriminant_by_sylvester(coeffs: list[int]) -> int:
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f), built from the
    Sylvester matrix and expanded by cofactors.  coeffs lowest first."""
    d = len(coeffs) - 1
    deriv = [i * coeffs[i] for i in range(1, d + 1)]
    f_hi = coeffs[::-1]
    g_hi = deriv[::-1]
    size = d + (d - 1)
    rows = []
    for shift in range(d - 1):
        rows.append([0] * shift + f_hi + [0] * (size - shift - len(f_hi)))
    for shift in range(d):
        rows.append([0] * shift + g_hi + [0] * (size - shift - len(g_hi)))
    res = det_cofactor(rows)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    assert res % coeffs[-1] == 0
    return sign * res // coeffs[-1]


def subsets_by_enumeration(
    primes: list[int], modulus: int, t_max: int
) -> list[tuple[int, ...]]:
    """All subsets of size 3..t_max whose product is 1 mod modulus."""
    hits = []
    for size in range(3, t_max + 1):
        for combo in combinations(sorted(primes), size):
            if math.prod(combo) % modulus == 1 % modulus:
                hits.append(combo)
    return sorted(hits, key=lambda c: math.prod(c))


def random_monic(degree: int, rng: random.Random) -> list[int]:
    return [rng.randint(-9, 9) for _ in range(degree)] + [1]
