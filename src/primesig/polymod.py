"""Polynomial arithmetic over Z/nZ for composite as well as prime n.

Polynomials are coefficient lists, lowest degree first, every
coefficient reduced into [0, n), no trailing zeros; the zero polynomial is
the empty list.  A monic modulus f may also be a Poly, unreduced: the
kernels read its coefficients mod n.  Remainders are only ever taken by monic divisors; _gcmd
makes each divisor monic first, and a failed inversion there is not an
error but the outcome ("factor", d), because the gcd d it exposes is a
nontrivial factor of the modulus.

This is the one engine for the rings Z/nZ[x]/(f): every power of x that
the recurrence terms, the Frobenius stages, root recovery and splitting
checks need comes from _xpow, and every gcmd(x^k - x, f) from
_gcmd_minus_x.  A cubic f (the Perrin family) gets unrolled
square-and-multiply kernels, one for x^e (where multiplying is a shift)
and one for g^e with any g, and an unrolled Euclid on scalars for a
quadratic x^k - x, with _gcmd's inversions and gcds in _gcmd's order;
other degrees share the generic product, remainder and _gcmd.
_require_poly, the one polynomial check, returns a Poly, and nothing else
makes one; a Poly handed back costs only the degree check and, when
asked, reads of f(0) and of the discriminant memo.

The discriminant lives here too.  It is computed exactly (not mod n) as
the signed resultant of f and f', by the subresultant pseudo-remainder
sequence over the integers, so callers can reduce it by any modulus they
like afterwards.  It is memoised per polynomial, since a scan asks for
the same one at every n.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Sequence

__all__ = ["discriminant"]


# ---------------------------------------------------------------------------
# Coefficient-list helpers.  Apart from _require_poly these skip
# validation; they are shared with the hot loops in the sequence and
# Frobenius engines.

def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _reduce(cs: Sequence[int], n: int) -> list[int]:
    return _trim([c % n for c in cs])


def _pmul(a: list[int], b: list[int], n: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % n for c in out])


class Poly(tuple):
    """The trimmed integer coefficients of a monic polynomial, lowest degree
    first, as _require_poly returned them; nothing else makes one."""


def _require_poly(coeffs: Sequence[int], min_degree: int, squarefree: bool = False) -> Poly:
    # coeffs as a Poly, or ValueError unless they are integers that form a
    # monic polynomial of degree >= min_degree and, when squarefree, one
    # with neither the root 0 nor a repeated root over the integers: either
    # makes f(0)*delta = 0, so that no Frobenius test applies at any n.  A
    # Poly was checked when it was made, so it is not converted again.
    try:
        f = coeffs if type(coeffs) is Poly else Poly(_trim([*map(operator.index, coeffs)]))
    except TypeError:
        raise ValueError(f"polynomial {tuple(coeffs)} must have integer coefficients") from None
    if len(f) <= min_degree or f[-1] != 1:
        raise ValueError(f"polynomial must be monic of degree >= {min_degree}")
    if squarefree and f[0] == 0:
        raise ValueError(f"polynomial {f} has the root 0")
    if squarefree and _discriminant(f) == 0:
        raise ValueError(f"polynomial {f} is not squarefree")
    return f


def _pdivmod_monic(a: list[int], f: list[int], n: int) -> tuple[list[int], list[int]]:
    # Quotient and remainder of a by monic f, deg f >= 1.  No inversions
    # needed.
    r = [c % n for c in a]
    df = len(f) - 1
    if len(r) < len(f):
        return [], _trim(r)
    q = [0] * (len(r) - df)
    for i in range(len(r) - 1, df - 1, -1):
        c = r[i]
        if c:
            q[i - df] = c
            r[i] = 0
            base = i - df
            for j in range(df):
                r[base + j] = (r[base + j] - c * f[j]) % n
    del r[df:]
    return _trim(q), _trim(r)


def _ppow_monic(g: list[int], e: int, f: Sequence[int], n: int) -> list[int]:
    # g**e mod monic f, deg f >= 1, e >= 0, g reduced mod n (only its
    # degree may reach deg f).  Cubics take the unrolled kernel, which
    # carries the later Frobenius rounds and the signature.
    if len(g) >= len(f):
        g = _pdivmod_monic(g, f, n)[1]
    if e == 0:
        return [1 % n]
    if not g:
        return []
    if len(f) == 4:
        return _cubic_pow(g + [0] * (3 - len(g)), e, f, n)
    result = g
    for bit in bin(e)[3:]:
        result = _pdivmod_monic(_pmul(result, result, n), f, n)[1]
        if bit == "1":
            result = _pdivmod_monic(_pmul(result, g, n), f, n)[1]
    return result


def _xpow(e: int, f: Sequence[int], n: int) -> list[int]:
    # x**e mod monic f, deg f >= 1, e >= 0.  The unrolled cubic case is
    # about three times faster than the generic loop, and cubics carry the
    # census and the Perrin scans.
    if len(f) != 4 or e == 0:
        return _ppow_monic([0, 1], e, f, n)
    return _cubic_pow(None, e, f, n)


def _cubic_pow(g: list[int] | None, e: int, f: Sequence[int], n: int) -> list[int]:
    # g**e mod monic cubic f for e >= 1, g = [g0, g1, g2] reduced mod n.
    # g = None stands for x, whose multiply step is a shift.
    # x^3 = c*x^2 + b*x + a in the ring, each its least absolute residue.
    h = n >> 1
    a, b, c = -f[0] % n, -f[1] % n, -f[2] % n
    a, b, c = a - n if a > h else a, b - n if b > h else b, c - n if c > h else c
    p0, p1, p2 = g0, g1, g2 = g if g is not None else (0, 1, 0)
    for bit in bin(e)[3:]:
        # Square, then fold x^4 and x^3 back into degrees <= 2.
        t4 = p2 * p2 % n
        t3 = (2 * p1 * p2 + c * t4) % n
        p0, p1, p2 = ((p0 * p0 + a * t3) % n,
                      (2 * p0 * p1 + a * t4 + b * t3) % n,
                      (p1 * p1 + 2 * p0 * p2 + b * t4 + c * t3) % n)
        if bit == "1":
            if g is None:
                p0, p1, p2 = a * p2 % n, (p0 + b * p2) % n, (p1 + c * p2) % n
            else:
                # The 3x3 product, folded the same way.
                t4 = p2 * g2 % n
                t3 = (p1 * g2 + p2 * g1 + c * t4) % n
                p0, p1, p2 = ((p0 * g0 + a * t3) % n,
                              (p0 * g1 + p1 * g0 + a * t4 + b * t3) % n,
                              (p0 * g2 + p1 * g1 + p2 * g0 + b * t4 + c * t3) % n)
    return _trim([p0, p1, p2])


def _monic(g: list[int], n: int):
    # ("found", g scaled to leading coefficient 1) for nonzero g, or
    # ("factor", d) when d = gcd(lc(g), n) > 1 makes that impossible.
    lc = g[-1]
    d = math.gcd(lc, n)
    if d > 1:
        return ("factor", d)
    inv = pow(lc, -1, n)
    return ("found", [c * inv % n for c in g])


def _gcmd(g: list[int], h: list[int], n: int):
    """Greatest common monic divisor over Z/nZ.

    Returns ("found", coeffs) with coeffs monic, or ("factor", m) when a
    required inversion fails; then 1 < m < n and m divides n.  A nonzero
    constant tail with gcd(tail, n) > 1 lands in the second case, since no
    monic gcd exists there either.  The operand of larger degree is the
    first dividend, so only divisors are made monic: the other operand,
    then each remainder.
    """
    g = _reduce(g, n)
    h = _reduce(h, n)
    if not g and not h:
        raise ValueError("gcmd(0, 0) is undefined")
    if len(g) < len(h):
        g, h = h, g
    while len(h) > 1:
        res = _monic(h, n)
        if res[0] == "factor":
            return res
        g, h = res[1], _pdivmod_monic(g, res[1], n)[1]
    # A nonzero constant h is a unit, making the gcd 1, or it exposes a factor.
    return _monic(h or g, n)


def _gcmd_minus_x(power: list[int], f: Sequence[int], n: int):
    # gcmd(power - x, f), power reduced mod (n, f).  With power = x^k mod f
    # over a prime field this is the part of squarefree f whose roots
    # satisfy a^k = a.  For a cubic f and a quadratic power - x this is
    # _gcmd's Euclid unrolled on scalars, with the same gcds and inversions
    # in the same order, so it returns what _gcmd would.
    g = power + [0] * (2 - len(power))
    g[1] -= 1
    if len(f) != 4 or len(g) != 3:
        return _gcmd(g, f, n)
    # Make q = power - x monic: x^2 + m1*x + m0.
    d = math.gcd(g[2], n)
    if d > 1:
        return ("factor", d)
    inv = pow(g[2], -1, n)
    m0, m1 = g[0] * inv % n, g[1] * inv % n
    # f mod q, where f = (x + c)*q + r1*x + r0.
    c = (f[2] - m1) % n
    r1, r0 = (f[1] - m0 - c * m1) % n, (f[0] - c * m0) % n
    if r1:
        d = math.gcd(r1, n)
        if d > 1:
            return ("factor", d)
        # The last divisor is x + t, the monic r1*x + r0, and the constant
        # tail is q at its root -t.
        t = r0 * pow(r1, -1, n) % n
        last, tail = [t, 1], (m0 - (m1 - t) % n * t) % n
    else:
        last, tail = [m0, m1, 1], r0
    # As in _gcmd: a zero tail leaves the last divisor; any other is a
    # unit, making the gcd 1, or it exposes a factor.
    if not tail:
        return ("found", last)
    d = math.gcd(tail, n)
    return ("factor", d) if d > 1 else ("found", [1])


def _compose_mod(f: list[int], g: list[int], n: int) -> list[int]:
    # f(g) mod (f, n) for monic f, deg f >= 1: Horner evaluation in the
    # quotient ring Z/nZ[x]/(f).
    g = _pdivmod_monic(g, f, n)[1]
    acc: list[int] = []
    for c in reversed(f):
        acc = _pmul(acc, g, n) or [0]
        acc[0] += c
        acc = _pdivmod_monic(acc, f, n)[1]
    return acc


# ---------------------------------------------------------------------------
# Integer discriminant: the resultant of f and f' by the subresultant
# sequence over Z (Cohen, A Course in Computational ANT, Algorithm 3.3.7).

def discriminant(coeffs: Sequence[int]) -> int:
    """Discriminant of a monic integer polynomial of degree >= 2.

    Exact integer value: (-1)**(d*(d-1)/2) times the resultant of f and
    its derivative (the leading coefficient is 1, so no further division).
    """
    return _discriminant(_require_poly(coeffs, 2))


@lru_cache(maxsize=64)
def _discriminant(cs: tuple[int, ...]) -> int:
    # cs is trimmed and monic of degree >= 1.  Each step replaces (a, b)
    # by (b, prem(a, b) / (g*h^delta)), delta = deg a - deg b, then sets
    # g = lc(b) and h = g^delta / h^(delta - 1); each division is exact.
    # A zero remainder is a repeated root: discriminant 0.
    d = len(cs) - 1
    a, b = list(cs), [i * cs[i] for i in range(1, d + 1)]
    sign, g, h = (-1) ** (d * (d - 1) // 2), 1, 1
    while len(b) > 1:
        delta, db = len(a) - len(b), len(b) - 1
        sign *= (-1) ** ((len(a) - 1) * db)
        # r = lc(b)^(delta + 1) * a mod b, the pseudo-remainder.
        r = a
        for i in range(len(a) - 1, db - 1, -1):
            r, q = [b[-1] * c for c in r[:i]], r[i]
            for j in range(db):
                r[i - db + j] -= q * b[j]
        if not _trim(r):
            return 0
        a, b = b, [c // (g * h ** delta) for c in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1)
    return sign * b[0] ** (len(a) - 1) // h ** (len(a) - 2)
