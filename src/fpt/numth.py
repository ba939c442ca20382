"""Elementary integer number theory helpers: primality, factoring,
multiplicative orders, Legendre symbols, modular square roots,
Fibonacci numbers.

Everything here is exact and deterministic.  Primality is the strong
Miller-Rabin test to the prime bases 2..41, which no composite below
psi_13 ~ 3.3e24 passes (Jaeschke, Math. Comp. 61, 1993); a number at or
above psi_13 that passes is refused rather than called prime.  Factoring
is trial division backed by Pollard rho, which is ample at the 64-bit
scale this library targets.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import CompositeModulusBase, PrimalityUnproven

# the trial divisors of is_prime and factorize, and the Miller-Rabin
# witnesses: one tuple, so no witness is ever tested against itself
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < psi_13.  Above that a
    composite answer still has its witness, but PrimalityUnproven is
    raised where a prime one would be a guess."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= 3_317_044_064_679_887_385_961_981:  # psi_13
        raise PrimalityUnproven(
            f"{n} passes Miller-Rabin to bases 2..41, which proves nothing at or above psi_13"
        )
    return True


def require_prime(p: int) -> None:
    """Refuse a characteristic that is not prime.  Unlike
    gf.check_field there is no 2^20 cap, for callers that build no field."""
    if not is_prime(p):
        raise CompositeModulusBase(f"{p} is not a prime")


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a tiny prime
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division for mid-size factors
    f = 43
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def order_dividing(n: int, is_one: Callable[[int], bool]) -> int:
    """The least d >= 1 with is_one(d), given that is_one(k) holds exactly
    for the multiples k of d and that n is one of them.

    Each prime factor of n is stripped while the test still holds: after
    the prime f is done, n has d's exponent of f.  This is the one order
    kernel: the multiplicative order of a field element (n = q - 1), of a
    root of X^2 + (z+2)X + 1 (n = p - chi) and the Fibonacci entry point
    of any integer (a multiple from Wall's lattice property).
    """
    for f, e in factorize(n).items():
        for _ in range(e):
            if not is_one(n // f):
                break
            n //= f
    return n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Requires a to be a quadratic residue; the returned root r satisfies
    r*r = a (mod p) and the search for a non-residue is deterministic
    (smallest first), so the result is reproducible.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if legendre(z, p) == -1)
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x


def fib_pair(n: int, mod: int | None = None) -> tuple[int, int]:
    """(Fib(n), Fib(n+1)) for n >= 0 by fast doubling, optionally mod m."""
    if n == 0:
        return (0, 1)
    a, b = fib_pair(n >> 1, mod)
    c = a * (2 * b - a)
    d = a * a + b * b
    if mod is not None:
        c %= mod
        d %= mod
    if n & 1:
        return (d, c + d if mod is None else (c + d) % mod)
    return (c, d)


def fib(n: int) -> int:
    """Signed Fibonacci number, any integer index.

    Fib(1) = Fib(2) = 1 and the two-term recursion holds for all integers,
    which forces Fib(-n) = (-1)^(n+1) Fib(n).
    """
    if n >= 0:
        return fib_pair(n)[0]
    f = fib_pair(-n)[0]
    return f if n % 2 == 1 else -f
