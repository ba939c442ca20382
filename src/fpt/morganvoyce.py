"""Morgan-Voyce polynomials, the integer specialization of the plane
polynomial family at base 1, Fibonacci polynomials, Lehmer sequences,
and the Morgan-Voyce order of apparition.

At base 1 the alternating gap exponent degenerates (1 for even index
gaps, 0 for odd), so the family becomes the two classical Morgan-Voyce
ladders b_k (odd indices) and B_k (even indices) with the three-term
recursion g_k = (X+2) g_{k-1} - g_{k-2} inside each parity class.  All
coefficients are exact arbitrary-precision integers.
"""

from __future__ import annotations

from itertools import islice
from math import comb

from .errors import ZeroResidue
from .upoly import IntPoly

_B_LOWER = "b"
_B_UPPER = "B"


def f_m1(m: int) -> IntPoly:
    """The base-1 family member: f_0 = 0, f_1 = 1, then
    X f_{k-1} + f_{k-2} for odd k >= 3 and f_{k-1} + f_{k-2} for even k
    (the base-1 gap exponent is 1 at even gap index, 0 at odd)."""
    if m < 0:
        raise ValueError("index must be >= 0")
    prev, cur = IntPoly(()), IntPoly((1,))  # f_0, f_1
    x = IntPoly((0, 1))
    for k in range(2, m + 1):
        nxt = (x * cur if k % 2 == 1 else cur) + prev
        prev, cur = cur, nxt
    return cur if m >= 1 else prev


def mv_poly(kind: str, k: int) -> IntPoly:
    """Binomial closed forms: b_k = sum C(k+i, k-i) X^i and
    B_k = sum C(k+i+1, k-i) X^i."""
    if k < 0:
        raise ValueError("index must be >= 0")
    if kind == _B_LOWER:
        return IntPoly.make([comb(k + i, k - i) for i in range(k + 1)])
    if kind == _B_UPPER:
        return IntPoly.make([comb(k + i + 1, k - i) for i in range(k + 1)])
    raise ValueError(f"kind must be 'b' or 'B', got {kind!r}")


def mv_three_term_check(kind: str, k: int) -> bool:
    """(X+2) g_{k-1} - g_{k-2} = g_k within one parity family: the
    paper's claim that at the "prime" 1 the family's three-term
    recursion becomes the classical Morgan-Voyce recursion."""
    if k < 2:
        raise ValueError("the three-term recursion starts at k = 2")
    xp2 = IntPoly((2, 1))
    g2, g1, g0 = mv_poly(kind, k), mv_poly(kind, k - 1), mv_poly(kind, k - 2)
    return xp2 * g1 - g0 == g2


def fib_poly(m: int) -> IntPoly:
    """Fibonacci polynomials: 0, 1, then X f_{m-1} + f_{m-2}.

    They check the paper's bridge to Morgan-Voyce polynomials,
    f_(2k+1)(X) = b_k(X^2) and f_(2k+2)(X) = X B_k(X^2), and f_m(1) = Fib(m)."""
    if m < 0:
        raise ValueError("index must be >= 0")
    prev, cur = IntPoly(()), IntPoly((1,))
    x = IntPoly((0, 1))
    for _ in range(2, m + 1):
        prev, cur = cur, x * cur + prev
    return cur if m >= 1 else prev


def _lehmer_terms(Z: int):
    """U_0, U_1, U_2, ... of lehmer_U at Z, as exact integers."""
    a, b = 0, 1  # U_0, U_1
    k = 0
    while True:
        yield a
        k += 1
        a, b = b, (Z * b if k % 2 == 0 else b) + a


def lehmer_U(n: int, Z: int) -> int:
    """The parity-alternating Lehmer term with Q = -1: U_0 = 0, U_1 = 1,
    then Z U_{n-1} + U_{n-2} for odd n and U_{n-1} + U_{n-2} for even."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return next(islice(_lehmer_terms(Z), n, None))


def mv_apparition(z: int, p: int, Z: int) -> int:
    """Least m >= 2 with p dividing lehmer_U(m, Z), for an integer lift Z
    of the nonzero residue z; computed on exact integer values."""
    z %= p
    if z == 0:
        raise ZeroResidue("apparition needs a nonzero residue")
    if Z % p != z:
        raise ValueError(f"{Z} is not a lift of {z} mod {p}")
    for m, u in enumerate(islice(_lehmer_terms(Z), p + 2)):
        if m >= 2 and u % p == 0:
            return m
    raise AssertionError(f"no apparition index <= p+1 for z={z}, p={p}")
