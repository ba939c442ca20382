"""Arithmetic in F_p and F_{p^m} for small p and m.

Elements of F_{p^m} are residue-coefficient vectors relative to a fixed
monic irreducible modulus of degree m.  The modulus is always the first
irreducible found when monic polynomials are scanned in ascending order
of their integer encoding sum(c_i * p^i) (constant term least
significant), each candidate tested with Ben-Or's criterion in
upoly.is_irreducible, so field construction is deterministic and
reproducible.  Conway polynomials are deliberately not used.  Only the
moduli are polynomials: upoly works over F_p alone, and every element
of F_{p^m} is handled here, as a code.

Internally every element is an integer code sum(c_i * p^i) with all
c_i in [0, p).  Fields with at most TABLE_LIMIT elements and m >= 2 get
discrete exp/log tables at construction time, making multiplication,
inversion and exponentiation O(1); prime fields use direct modular
arithmetic.  Tables of fields with at least _NP_TABLE_MIN_Q elements are
built with numpy, which is imported only then; smaller ones by a
per-element loop in plain Python.  A FieldDesc is immutable once
make_field returns it.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceeded, FptError
from .numth import factorize, has_order, is_prime, order_dividing

DEFAULT_BUDGET = 1 << 20
TABLE_LIMIT = 1 << 20
P_LIMIT = 1 << 20
# fields of at least this order build their tables with numpy.  Measured in
# fresh processes, a cold numpy import plus the blocked build beats the
# per-element loop from about q = 20,000 at m >= 3, 35,000 at m = 2 and
# 2^16 at p = 2; over 21 fields of 8,192 to 65,536 elements, a threshold
# between 19,321 and 19,683 costs least in sum and at worst (BENCH_9.json)
_NP_TABLE_MIN_Q = 19_500


class FieldDesc:
    """Descriptor of F_{p^m}: characteristic, degree, modulus, and
    (for small extension fields) discrete log tables."""

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m >= 2 and self.q <= TABLE_LIMIT:
            if self.q >= _NP_TABLE_MIN_Q:
                self._build_tables_np()
            else:
                self._build_tables()

    # -- construction helpers -------------------------------------------

    def _mul_g_columns(self, g: int) -> list[int]:
        """Codes of g * X^i mod modulus for i < m: the rows of the matrix
        of multiplication by g, acting on coefficient row vectors."""
        cols = [g]
        for _ in range(self.m - 1):
            cols.append(self._polymul_code(cols[-1], self.p))  # times X, code p
        return cols

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        xcols = self._mul_g_columns(self.generator())
        exp = [0] * (q - 1)
        log = [-1] * q
        if p == 2:
            cur = 1
            for k in range(q - 1):
                exp[k] = cur
                log[cur] = k
                nxt, t, i = 0, cur, 0
                while t:
                    if t & 1:
                        nxt ^= xcols[i]
                    t >>= 1
                    i += 1
                cur = nxt
        else:
            colvecs = [self.to_coeffs(c) for c in xcols]
            cur = [0] * m
            cur[0] = 1
            for k in range(q - 1):
                code = 0
                for i in range(m - 1, -1, -1):
                    code = code * p + cur[i]
                exp[k] = code
                log[code] = k
                nxt = [0] * m
                for i, c in enumerate(cur):
                    if c:
                        colv = colvecs[i]
                        for j in range(m):
                            nxt[j] += c * colv[j]
                cur = [v % p for v in nxt]
        if log.count(-1) != 1:
            raise AssertionError("generator stepping did not cover the group")
        self._exp = exp
        self._log = log

    def _build_tables_np(self) -> None:
        """The same tables as _build_tables, by baby steps and giant steps:
        rows g^0 .. g^(s-1) by doubling, then each further block of s
        powers is the previous block times the matrix of g^s.

        All arithmetic is float64 on integers and exact: a product entry
        sums m terms below p^2, and m (p - 1)^2 < 2^21 whenever
        p^m <= TABLE_LIMIT = 2^20 and m >= 2, far below 2^53.  For such
        an x, x / p < 2^20 is rounded by less than 2^-32, and its
        fractional part is 0 or at least 1/p >= 2^-10, so floor(x / p) is
        exact (and much cheaper than numpy's float remainder)."""
        import numpy as np

        p, m, q = self.p, self.m, self.q
        n = q - 1

        def times(a, b):
            x = a @ b
            return x - p * np.floor(x / p)

        rows = self._mul_g_columns(self.generator())
        mat = np.array([self.to_coeffs(c) for c in rows], dtype=np.float64)
        block = np.zeros((1, m))
        block[0, 0] = 1.0
        # baby steps: block holds g^0 .. g^(s-1) and mat is g^s's matrix,
        # for s the least power of two with s^2 >= n
        while block.shape[0] ** 2 < n:
            block = np.vstack((block, times(block, mat)))
            mat = times(mat, mat)
        s = block.shape[0]
        weights = np.array([float(p) ** i for i in range(m)])
        exp = np.empty(-(-n // s) * s, dtype=np.int64)
        for start in range(0, n, s):
            exp[start : start + s] = block @ weights
            block = times(block, mat)
        exp = exp[:n]
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(n)
        if np.count_nonzero(log == -1) != 1:
            raise AssertionError("generator stepping did not cover the group")
        self._exp = exp.tolist()
        self._log = log.tolist()

    def _polymul_code(self, a: int, b: int) -> int:
        # table-free multiplication used during bootstrap and for big fields
        p, m = self.p, self.m
        av, bv = self.to_coeffs(a), self.to_coeffs(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(av):
            if x:
                for j, y in enumerate(bv):
                    prod[i + j] += x * y
        # reduce degrees m .. 2m-2
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                for i in range(m):
                    prod[k - m + i] -= c * self.modulus[i]
            prod[k] = 0
        return self.from_coeffs([v % p for v in prod[:m]])

    def _polypow_code(self, a: int, e: int) -> int:
        r, base = 1, a
        while e:
            if e & 1:
                r = self._polymul_code(r, base)
            base = self._polymul_code(base, base)
            e >>= 1
        return r

    # -- code <-> coefficient conversions --------------------------------

    def to_coeffs(self, code: int) -> list[int]:
        p = self.p
        cs = []
        for _ in range(self.m):
            cs.append(code % p)
            code //= p
        return cs

    def from_coeffs(self, coeffs: list[int]) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return code

    # -- code-level arithmetic --------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        code, mult = 0, 1
        while a or b:
            code += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return code

    def sub_code(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a - b) % p
        if p == 2:
            return a ^ b
        code, mult = 0, 1
        while a or b:
            code += (a % p - b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return code

    def neg_code(self, a: int) -> int:
        p = self.p
        if self.m == 1:
            return (-a) % p
        if p == 2:
            return a
        code, mult = 0, 1
        while a:
            code += (-a % p) % p * mult
            a //= p
            mult *= p
        return code

    def mul_code(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return self._polymul_code(a, b)

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise FptError("inverse of zero")
        if self.m == 1:
            return pow(a, -1, self.p)
        if self._exp is not None:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        return self._polypow_code(a, self.q - 2)

    def pow_code(self, a: int, e: int) -> int:
        """a**e; e may be any integer (arbitrary precision), negative only
        for invertible a."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FptError("negative power of zero")
            return 0
        e %= self.q - 1
        if self.m == 1:
            return pow(a, e, self.p)
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        return self._polypow_code(a, e)

    def frob_code(self, a: int, k: int = 1) -> int:
        """a**(p^k); the Frobenius automorphism iterated k times."""
        return self.pow_code(a, pow(self.p, k % self.m))

    def order_code(self, a: int) -> int:
        if a == 0:
            raise FptError("multiplicative order of zero")
        return order_dividing(self.q - 1, lambda e: self.pow_code(a, e) == 1)

    def generator(self) -> int:
        """The smallest code >= 2 of multiplicative order q - 1; before the
        tables exist pow_code runs table-free, so the table build uses it."""
        n = self.q - 1
        fac = factorize(n)
        for cand in range(2, self.q):
            if has_order(n, fac, lambda e: self.pow_code(cand, e) == 1):
                return cand
        raise AssertionError("no multiplicative generator found")

    def codes(self) -> range:
        return range(self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldDesc)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldDesc(p={self.p}, m={self.m})"

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}


# -- module-level operations ----------------------------------------------


def check_field(p: int, m: int) -> None:
    """Refuse what make_field refuses, before any work: a degree below 1,
    then a characteristic that is not a prime in [2, 2^20]."""
    if m < 1:
        raise FptError(f"extension degree {m} < 1")
    if not 2 <= p <= P_LIMIT or not is_prime(p):
        raise FptError(f"{p} is not a prime in [2, 2^20]")


def check_budget(p: int, m: int, budget: int) -> None:
    """Refuse a sweep over F_{p^m} when its order is above the element
    budget.  A degree beyond the budget's bit length is refused before
    p^m is formed (p >= 2), so the check stays cheap at any m."""
    if m > budget.bit_length() or p**m > budget:
        raise BudgetExceeded(f"field order {p}^{m} exceeds budget {budget}")


@functools.lru_cache(maxsize=64)
def make_field(p: int, m: int) -> FieldDesc:
    """Build (and cache) the deterministic descriptor of F_{p^m}.

    The modulus is the first monic irreducible of degree m in ascending
    integer-encoding order; repeated calls return the identical object
    while it stays among the 64 fields last used.  The cache is bounded
    because each field up to TABLE_LIMIT can hold two q-entry tables.
    """
    check_field(p, m)
    if m == 1:
        return FieldDesc(p, 1, (0, 1))
    from .upoly import DensePoly, is_irreducible  # upoly imports this module

    prime = make_field(p, 1)
    # product() varies the last digit fastest: reversed, the tuples run
    # through the codes sum(c_i * p^i) in ascending order
    candidates = itertools.product(range(p), repeat=m)
    if any((p - 1) % r for r in factorize(m)) or (m % 4 == 0 and p % 4 == 3):
        # the first p candidates are the binomials X^m + c; one can be
        # irreducible only if every prime factor of m divides p - 1 and,
        # when 4 divides m, p = 1 mod 4 (Lidl and Niederreiter, Finite
        # Fields, Theorem 3.75)
        candidates = itertools.islice(candidates, p, None)
    for digits in candidates:
        coeffs = digits[::-1] + (1,)
        if is_irreducible(DensePoly(prime, coeffs)):
            return FieldDesc(p, m, coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def frobenius_orbit_minpoly(field: FieldDesc, t: int) -> tuple[list[int], list[int]]:
    """The Frobenius orbit t, t^p, t^(p^2), ... of a code, and the
    coefficient codes (constant term first) of the product of X - u over
    that orbit, computed in the field: the minimal polynomial of t over
    F_p, so its coefficients lie in the prime subfield."""
    orbit = [t]
    u = field.frob_code(t, 1)
    while u != t:
        orbit.append(u)
        u = field.frob_code(u, 1)
    cs = [1]
    for root in orbit:
        nxt = [0] * (len(cs) + 1)
        for i, c in enumerate(cs):
            nxt[i + 1] = field.add_code(nxt[i + 1], c)
            nxt[i] = field.sub_code(nxt[i], field.mul_code(c, root))
        cs = nxt
    return orbit, cs
