"""Orders of appearance: the least index at which the polynomial family
vanishes at a prime-field point, the classical Fibonacci entry point,
divisibility laws, and desk-scale empirical scans.

alpha(z, p) is the least m with family_m(z) = 0; alpha(1, p) recovers
the classical entry point of p in the Fibonacci sequence.  For nonzero
z it always divides p - chi, where chi is +1 / -1 / 0 according to
whether the quadratic X^2 + (z+2)X + 1 has two roots, none, or a double
root in F_p, so the scan below index p+2 always terminates.  Outside
z in {0, -4} it is also the multiplicative order of X modulo that
quadratic (alpha_via_multiplicative_order), the independent route the
trinomial degree prediction uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExcludedZ, PIsFive, ZeroArgument
from .fmp import eval_fp_sequence
from .numth import (
    divisors_sorted,
    factorize,
    fib_pair,
    legendre,
    primes_upto,
)


@dataclass(frozen=True)
class AppearanceRecord:
    """alpha value together with the vanishing evidence: the family's
    values at z for indices 0..alpha (zero exactly at the end)."""

    p: int
    z: int
    alpha: int
    witness: tuple[int, ...]


def alpha_zp(z: int, p: int) -> AppearanceRecord:
    """Least m >= 2 with family_m(z) = 0, for z in F_p^*."""
    z %= p
    if z == 0:
        raise ZeroArgument("alpha(0, p) is undefined; the value 0 names the quadratic-subfield orbit")
    vals = eval_fp_sequence(p, z, p + 1)
    for m in range(2, p + 2):
        if vals[m] == 0:
            return AppearanceRecord(p, z, m, tuple(vals[: m + 1]))
    raise AssertionError(f"no vanishing index <= p+1 for z={z}, p={p}")


def discriminant_class(z: int, p: int) -> int:
    """chi in {+1, -1, 0}: the number of distinct roots of
    X^2 + (z+2)X + 1 in F_p, encoded as two/none/double.

    Works at p = 2 as well, where the Legendre symbol is meaningless but
    root counting is not.
    """
    z %= p
    if p == 2:
        roots = [x for x in range(2) if (x * x + (z + 2) * x + 1) % 2 == 0]
        return {0: -1, 1: 0, 2: 1}[len(roots)]
    disc = (z * z + 4 * z) % p
    if disc == 0:
        return 0
    return legendre(disc, p)


def alpha_divisor_bound(z: int, p: int) -> int:
    """p - chi: the quantity alpha(z, p) must divide for z != 0."""
    return p - discriminant_class(z, p)


def alpha_via_multiplicative_order(z: int, p: int) -> int:
    """alpha(z, p) as the multiplicative order of the class of X in
    A = F_p[X]/(X^2 + (z+2)X + 1), that is, of a root r of the quadratic.

    With a nonzero square discriminant A is F_p x F_p (X maps to (r, 1/r),
    and r and 1/r share one order); otherwise A is F_{p^2}, where
    r^(p+1) is the constant term 1.  Either way the order divides
    p - chi, so it is found by stripping prime factors of p - chi, with
    elements of A kept as pairs (u0, u1) = u0 + u1 X of plain residues.
    No square root is taken and p = 2 is not special.  Excludes z in
    {0, -4}, where r would be +-1.
    """
    z %= p
    if z == 0 or (z + 4) % p == 0:
        raise ExcludedZ("the multiplicative-order route needs z outside {0, -4}")
    c = (z + 2) % p

    def power(e: int) -> tuple[int, int]:
        # X^e mod X^2 + cX + 1, square-and-multiply on pairs
        r0, r1, b0, b1 = 1, 0, 0, 1
        while e:
            if e & 1:
                t = r1 * b1
                r0, r1 = (r0 * b0 - t) % p, (r0 * b1 + r1 * b0 - c * t) % p
            t = b1 * b1
            b0, b1 = (b0 * b0 - t) % p, (2 * b0 * b1 - c * t) % p
            e >>= 1
        return r0, r1

    n = p - discriminant_class(z, p)
    for f, e in factorize(n).items():
        for _ in range(e):
            if power(n // f) != (1, 0):
                break
            n //= f
    return n


def alpha_classical(n: int) -> int:
    """Entry point of n in the Fibonacci sequence (least m with n
    dividing Fib(m)), by direct recursion mod n."""
    if n < 2:
        raise ValueError("entry points start at n = 2")
    a, b = 0, 1
    m = 0
    while True:
        a, b = b, (a + b) % n
        m += 1
        if a == 0:
            return m


def alpha_prime(p: int) -> int:
    """Entry point of a prime, via the divisor bound: alpha(p) divides
    p - (5|p) for p != 2, 5, so only divisors need testing."""
    if p == 2:
        return 3
    if p == 5:
        return 5
    for d in divisors_sorted(p - legendre(5, p)):
        if d >= 2 and fib_pair(d, p)[0] == 0:
            return d
    raise AssertionError(f"divisor scan failed for p={p}")


def alpha_of_prime_power(p: int, e: int) -> int:
    """Entry point of p^e: the least multiple of the entry point of
    p^(e-1) that works, found by direct testing."""
    a = alpha_prime(p)
    mod = p
    for _ in range(e - 1):
        mod *= p
        k = a
        while fib_pair(k, mod)[0] != 0:
            k += a
        a = k
    return a


def alpha_any(n: int) -> int:
    """Entry point of any n >= 2 as the lcm over prime powers."""
    import math

    out = 1
    for p, e in factorize(n).items():
        out = math.lcm(out, alpha_of_prime_power(p, e))
    return out


def check_divisibility_law(p: int) -> bool:
    """The paper's divisibility law at z = 1: the Fibonacci entry point
    alpha(p) divides p - (5|p), since X^2 + 3X + 1 has discriminant 5;
    p = 5 is excluded."""
    if p == 5:
        raise PIsFive("the law excludes p = 5")
    if p == 2:
        return alpha_classical(2) in (1, 3)  # 3 divides 2 - (-1)
    return (p - legendre(5, p)) % alpha_classical(p) == 0


def wall_check(n: int, limit: int) -> bool:
    """The entry-point property the paper's orders of appearance
    generalize: n divides Fib(k) exactly when the entry point of n
    divides k, verified for all indices up to limit."""
    alpha = alpha_classical(n)
    a, b = 0, 1
    for k in range(1, limit + 1):
        a, b = b, (a + b) % n
        if (a == 0) != (k % alpha == 0):
            return False
    return True


@dataclass(frozen=True)
class SalleReport:
    limit: int
    equality_cases: tuple[int, ...]

    def to_json(self) -> dict:
        return {"limit": self.limit, "equality_cases": list(self.equality_cases)}


def salle_bound_scan(limit: int) -> SalleReport:
    """The paper's entry-point bound (Sallé): verify alpha(Z) <= 2Z for
    2 <= Z <= limit and list the equality cases, asserting they are
    exactly 6, 30, 150, ... (6 times powers of 5)."""
    if limit > 10**5:
        raise ValueError("scan limit capped at 1e5")
    equality = []
    for n in range(2, limit + 1):
        a = alpha_any(n)
        if a > 2 * n:
            raise AssertionError(f"entry-point bound violated at {n}: {a}")
        if a == 2 * n:
            equality.append(n)
    expected = []
    v = 6
    while v <= limit:
        expected.append(v)
        v *= 5
    if equality != expected:
        raise AssertionError(f"equality cases {equality} != {expected}")
    return SalleReport(limit, tuple(equality))


def carmichael_search(m: int, prime_limit: int) -> int | None:
    """Least prime p <= prime_limit whose entry point is m, or None."""
    for p in primes_upto(prime_limit):
        if alpha_prime(p) == m:
            return p
    return None


@dataclass(frozen=True)
class DensityReport:
    limit: int
    count_pm1: int
    count_pp1: int
    total_primes: int
    density: float
    pp1_primes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "limit": self.limit,
            "count_alpha_eq_p_minus_1": self.count_pm1,
            "count_alpha_eq_p_plus_1": self.count_pp1,
            "total_primes": self.total_primes,
            "density": self.density,
        }


def shanks_taylor_density(prime_limit: int) -> DensityReport:
    """Census of primes with maximal entry points.

    Counts primes with alpha(p) = p - 1 and alpha(p) = p + 1; the
    p-minus-one fraction is reported as an empirical density (the
    underlying density statement is conjectural and never asserted).
    """
    if prime_limit > 10**6:
        raise ValueError("scan limit capped at 1e6")
    ps = primes_upto(prime_limit)
    count_pm1 = count_pp1 = 0
    pp1 = []
    for p in ps:
        a = alpha_prime(p)
        if a == p - 1:
            count_pm1 += 1
        elif a == p + 1:
            count_pp1 += 1
            pp1.append(p)
    total = len(ps)
    return DensityReport(
        prime_limit, count_pm1, count_pp1, total, count_pm1 / total, tuple(pp1)
    )


def sigma_map(r: int, p: int) -> int:
    """sigma(r) = -r - 2 - 1/r, defined for r outside {0, 1, -1}."""
    r %= p
    if r == 0 or r == 1 or r == p - 1:
        raise ValueError("sigma needs r outside {0, 1, -1}")
    return (-r - 2 - pow(r, -1, p)) % p


def sigma_image(p: int) -> dict[int, tuple[int, ...]]:
    """The image of sigma with fibers: value -> sorted r's mapping there.

    The paper's link to Artin's conjecture: sigma is 2-to-1 onto (p-3)/2
    values with fibers {r, 1/r}, and alpha(sigma(r), p) is the
    multiplicative order of r, so primitive roots r give alpha = p - 1."""
    out: dict[int, list[int]] = {}
    for r in range(2, p - 1):
        out.setdefault(sigma_map(r, p), []).append(r)
    return {z: tuple(sorted(rs)) for z, rs in out.items()}


def alpha_table(p: int) -> list[AppearanceRecord]:
    """alpha(z, p) for every z in F_p^*."""
    return [alpha_zp(z, p) for z in range(1, p)]
