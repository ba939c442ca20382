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
arithmetic.  A FieldDesc is immutable once make_field returns it, so
descriptors and elements are safe to share between threads.

The code-level methods (add_code, mul_code, ...) are the bulk interface
used by enumeration sweeps; FieldElem wraps a code for the typed API.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    CompositeModulusBase,
    DegreeZero,
    DivisionByZero,
    FieldMismatch,
    ZeroElement,
)
from .numth import factorize, is_prime

DEFAULT_BUDGET = 1 << 20
TABLE_LIMIT = 1 << 20
P_LIMIT = 1 << 20


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
            self._build_tables()

    # -- construction helpers -------------------------------------------

    def _build_tables(self) -> None:
        p, m, q = self.p, self.m, self.q
        g = self.generator()
        # columns of the multiply-by-g map: g * X^i mod modulus
        xcols = []
        col = g
        for _ in range(m):
            xcols.append(col)
            col = self._shift_reduce(col)
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

    def _shift_reduce(self, code: int) -> int:
        # code * X mod modulus, via coefficient vectors
        p, m = self.p, self.m
        cs = self.to_coeffs(code)
        lead = cs[m - 1]
        cs = [0] + cs[: m - 1]
        if lead:
            for i in range(m):
                cs[i] = (cs[i] - lead * self.modulus[i]) % p
        return self.from_coeffs(cs)

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
            raise DivisionByZero("inverse of zero")
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
                raise DivisionByZero("negative power of zero")
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
            raise ZeroElement("multiplicative order of zero")
        n = self.q - 1
        for f, e in factorize(n).items():
            for _ in range(e):
                if self.pow_code(a, n // f) == 1:
                    n //= f
                else:
                    break
        return n

    def generator(self) -> int:
        """The smallest code >= 2 of multiplicative order q - 1; before the
        tables exist pow_code runs table-free, so the table build uses it."""
        n = self.q - 1
        fac = factorize(n)
        for cand in range(2, self.q):
            if all(self.pow_code(cand, n // f) != 1 for f in fac):
                return cand
        raise AssertionError("no multiplicative generator found")

    def codes(self) -> range:
        return range(self.q)

    # -- element-level API ---------------------------------------------------

    def elem(self, coeffs) -> "FieldElem":
        """Element from a coefficient list (constant term first) or an
        integer residue of the prime subfield."""
        if isinstance(coeffs, int):
            return FieldElem(self, coeffs % self.p)
        cs = list(coeffs) + [0] * (self.m - len(coeffs))
        if len(cs) > self.m:
            raise ValueError("coefficient vector longer than extension degree")
        return FieldElem(self, self.from_coeffs(cs))

    def from_code(self, code: int) -> "FieldElem":
        return FieldElem(self, code)

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def gen(self) -> "FieldElem":
        """The class of X (only meaningful for m >= 2)."""
        return FieldElem(self, self.p if self.m >= 2 else 1)

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


@dataclass(frozen=True)
class FieldElem:
    """An element of a FieldDesc, stored as its integer code."""

    field: FieldDesc
    code: int

    @property
    def coeffs(self) -> list[int]:
        return self.field.to_coeffs(self.code)

    def _check(self, other: "FieldElem") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field, self.field.add_code(self.code, other.code))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field, self.field.sub_code(self.code, other.code))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.field, self.field.mul_code(self.code, other.code))

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(
            self.field,
            self.field.mul_code(self.code, self.field.inv_code(other.code)),
        )

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.field, self.field.neg_code(self.code))

    def __pow__(self, e: int) -> "FieldElem":
        return FieldElem(self.field, self.field.pow_code(self.code, e))

    def __bool__(self) -> bool:
        return self.code != 0

    def is_zero(self) -> bool:
        return self.code == 0

    def in_prime_field(self) -> bool:
        return self.code < self.field.p

    def __repr__(self) -> str:
        return f"FieldElem({self.coeffs} over p={self.field.p},m={self.field.m})"

    def to_json(self) -> list[int]:
        return self.coeffs


# -- module-level operations ----------------------------------------------


def check_field(p: int, m: int) -> None:
    """Refuse what make_field refuses, before any work: a degree below 1,
    then a characteristic that is not a prime in [2, 2^20]."""
    if m < 1:
        raise DegreeZero(f"extension degree {m} < 1")
    if not 2 <= p <= P_LIMIT or not is_prime(p):
        raise CompositeModulusBase(f"{p} is not a prime in [2, 2^20]")


def check_budget(q: int, budget: int) -> None:
    """Refuse a sweep over a field of order q above the element budget."""
    if q > budget:
        raise BudgetExceeded(f"field order {q} exceeds budget {budget}")


@functools.cache
def make_field(p: int, m: int) -> FieldDesc:
    """Build (and cache) the deterministic descriptor of F_{p^m}.

    The modulus is the first monic irreducible of degree m in ascending
    integer-encoding order; repeated calls return the identical object.
    """
    check_field(p, m)
    if m == 1:
        return FieldDesc(p, 1, (0, 1))
    from .upoly import DensePoly, is_irreducible  # upoly imports this module

    prime = make_field(p, 1)
    # product() varies the last digit fastest: reversed, the tuples run
    # through the codes sum(c_i * p^i) in ascending order
    for digits in itertools.product(range(p), repeat=m):
        coeffs = digits[::-1] + (1,)
        if is_irreducible(DensePoly(prime, coeffs)):
            return FieldDesc(p, m, coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def frobenius(x: FieldElem, k: int = 1) -> FieldElem:
    """x^(p^k): the Frobenius automorphism iterated k times."""
    return FieldElem(x.field, x.field.frob_code(x.code, k))


def mult_order(x: FieldElem) -> int:
    """Least k >= 1 with x^k = 1, by stripping prime factors of q - 1."""
    return x.field.order_code(x.code)


def enumerate_elements(field: FieldDesc, budget: int = DEFAULT_BUDGET):
    """Every element of the field exactly once, in ascending
    coefficient-code order; the budget is checked before any iteration."""
    check_budget(field.q, budget)
    return (FieldElem(field, code) for code in field.codes())


def subfield_membership(x: FieldElem, d: int) -> bool:
    """x lies in F_{p^d} (for d dividing m) iff Frobenius^d fixes x."""
    return x.field.frob_code(x.code, d) == x.code


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
