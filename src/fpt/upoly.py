"""Univariate polynomial arithmetic over F_p, plus integer polynomials
with arbitrary-precision coefficients.

Polynomials are coefficient vectors, constant term first, trimmed so the
leading coefficient is nonzero (the zero polynomial is the empty
vector).  Coefficients are residues in [0, p): every polynomial the
library factors or tests (the 0/1 family, gamma_z, the trinomials, the
field moduli) lies over a prime field, so DensePoly refuses extension
fields.  Multiplication switches to numpy once the vectors are long
enough to pay for the call overhead, and division once the divisor is.
Powers modulo a fixed polynomial f of degree n go by square-and-multiply,
except repeated p-th powers: h -> h^p is F_p-linear on F_p[X]/(f), so a
reduction context can build the Frobenius matrix of f once and then take
each p-th power as one matrix-vector product.  All numpy arithmetic is
int64, exact while a dot product of n residues stays below
n*(p-1)^2 < 2^63, which holds for every n below 2^23 since p <= 2^20.

numpy is imported only when one of these large-polynomial routes is
first entered, so the integer work of the rest of the library, and small
moduli such as those of the field-modulus search, never load it.

Factoring support covers exactly what the rest of the library needs:
squarefree decomposition (with the p-th-root branch for vanishing
derivatives), distinct-degree splitting, Ben-Or's irreducibility test
(the distinct-degree loop stopped at its first shared factor), and
seeded equal-degree splitting for pulling out a single factor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import FptError
from .gf import FieldDesc

_NP_MUL_THRESHOLD = 24
# divisor length from which a numpy slice per quotient coefficient beats
# the pure-Python loop; the two tie at 40-48 coefficients over F_31,
# F_251 and F_1048573 whatever the quotient length
_NP_MOD_THRESHOLD = 48

np = None  # numpy, bound on first entry to a numpy route


def _load_numpy() -> None:
    global np
    if np is None:
        import numpy

        np = numpy


# ---------------------------------------------------------------------------
# raw helpers on (field, list-of-residues)


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _raw_add(field: FieldDesc, a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    p = field.p
    out = list(a)
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _trim(out)


def _raw_sub(field: FieldDesc, a: list[int], b: list[int]) -> list[int]:
    p = field.p
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _trim(out)


def _raw_mul(field: FieldDesc, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    p = field.p
    if len(a) + len(b) >= _NP_MUL_THRESHOLD:
        if np is None:
            _load_numpy()
        prod = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        return _trim((prod % p).tolist())
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([v % p for v in out])


def _raw_divmod(
    field: FieldDesc, a: list[int], b: list[int]
) -> tuple[list[int], list[int]]:
    if not b:
        raise FptError("polynomial division by zero")
    if len(a) < len(b):
        return [], list(a)
    p = field.p
    nb = len(b)
    if nb >= _NP_MOD_THRESHOLD:
        return _np_divmod(p, a, b)
    # rem is reduced mod p only where it is read
    rem = list(a)
    quot = [0] * (len(a) - nb + 1)
    inv_lead = pow(b[-1], -1, p)
    for k in range(len(a) - nb, -1, -1):
        c = rem[k + nb - 1] * inv_lead % p
        if c:
            quot[k] = c
            for i in range(nb - 1):
                rem[k + i] -= c * b[i]
    return _trim(quot), _trim([v % p for v in rem[: nb - 1]])


def _np_divmod(p: int, a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    _load_numpy()
    rem = np.array(a, dtype=np.int64)
    bv = np.array(b, dtype=np.int64)
    nb = len(b)
    inv_lead = pow(b[-1], -1, p)
    quot = [0] * (len(a) - nb + 1)
    for k in range(len(a) - nb, -1, -1):
        c = int(rem[k + nb - 1]) * inv_lead % p
        if c:
            quot[k] = c
            seg = rem[k : k + nb]  # a view: updates rem in place
            seg -= c * bv
            seg %= p
    return _trim(quot), _trim(rem[: nb - 1].tolist())


def _raw_gcd(field: FieldDesc, a: list[int], b: list[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _raw_divmod(field, a, b)[1]
    if a:
        p = field.p
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


# ---------------------------------------------------------------------------
# DensePoly


@dataclass(frozen=True)
class DensePoly:
    """Dense univariate polynomial over a prime field, constant term
    first; an extension-field descriptor raises FptError."""

    field: FieldDesc
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.field.m != 1:
            raise FptError(f"polynomials are over prime fields only, not {self.field}")

    @classmethod
    def make(cls, field: FieldDesc, coeffs) -> "DensePoly":
        """From integer coefficients, reduced mod p (negative values
        allowed)."""
        p = field.p
        return cls(field, tuple(_trim([int(c) % p for c in coeffs])))

    @classmethod
    def zero(cls, field: FieldDesc) -> "DensePoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldDesc) -> "DensePoly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldDesc) -> "DensePoly":
        return cls(field, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check(self, other: "DensePoly") -> None:
        if self.field != other.field:
            raise FptError("polynomials over different fields")

    def __add__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        return DensePoly(self.field, tuple(_raw_add(self.field, list(self.coeffs), list(other.coeffs))))

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        return DensePoly(self.field, tuple(_raw_sub(self.field, list(self.coeffs), list(other.coeffs))))

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        self._check(other)
        return DensePoly(self.field, tuple(_raw_mul(self.field, list(self.coeffs), list(other.coeffs))))

    def __divmod__(self, other: "DensePoly") -> tuple["DensePoly", "DensePoly"]:
        self._check(other)
        q, r = _raw_divmod(self.field, list(self.coeffs), list(other.coeffs))
        return DensePoly(self.field, tuple(q)), DensePoly(self.field, tuple(r))

    def __floordiv__(self, other: "DensePoly") -> "DensePoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "DensePoly") -> "DensePoly":
        return divmod(self, other)[1]

    def monic(self) -> "DensePoly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        p = self.field.p
        inv = pow(self.coeffs[-1], -1, p)
        return DensePoly(self.field, tuple(c * inv % p for c in self.coeffs))

    def derivative(self) -> "DensePoly":
        p = self.field.p
        out = [i * c % p for i, c in enumerate(self.coeffs)][1:]
        return DensePoly(self.field, tuple(_trim(out)))

    def eval_code(self, x: int) -> int:
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def shift_arg(self, c: int) -> "DensePoly":
        """The composition f(X + c) by Horner in the polynomial ring."""
        f = self.field
        out: list[int] = []
        xc = [c % f.p, 1]
        for coef in reversed(self.coeffs):
            out = _raw_add(f, _raw_mul(f, out, xc), [coef])
        return DensePoly(f, tuple(out))

    def scale_arg(self, a: int) -> "DensePoly":
        """The composition f(a*X).  It checks the paper's rescaling
        delta_z = z^(-2) beta_z(zX), by which gamma_z, beta_z and delta_z
        share one factorization degree multiset."""
        p = self.field.p
        out, power = [], 1
        for coef in self.coeffs:
            out.append(coef * power % p)
            power = power * a % p
        return DensePoly(self.field, tuple(_trim(out)))

    def to_json(self):
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"DensePoly(p={self.field.p}, coeffs={list(self.coeffs)})"


def poly_gcd(f: DensePoly, g: DensePoly) -> DensePoly:
    """Monic greatest common divisor."""
    f._check(g)
    return DensePoly(
        f.field, tuple(_raw_gcd(f.field, list(f.coeffs), list(g.coeffs)))
    )


class _ModCtx:
    """Reduction context for repeated multiplication modulo a fixed
    nonconstant polynomial f of degree n over F_p.  While a product of two
    residues stays below _NP_MUL_THRESHOLD coefficients (n <= 11 at 24)
    the context is pure Python and reduces with _raw_divmod; from there on
    products go to numpy and are reduced with a precomputed matrix of
    X^k mod f rows.  Powers go by square-and-multiply, except that the
    second p-th power taken in a context may build the Frobenius matrix Q
    (row i is X^(i*p) mod f), after which h^p is the single product h Q:
    a numpy context always builds it, a pure-Python one when its rows
    cost fewer products than one squaring chain for p."""

    def __init__(self, field: FieldDesc, mod: list[int]):
        if len(mod) < 2:
            raise FptError("modulus must be nonconstant")
        self.field = field
        self.p = p = field.p
        self.mod = list(mod)
        self.n = n = len(mod) - 1
        self.rows = self.frob = self.x_p = None
        self.p_powers = 0
        if 2 * n >= _NP_MUL_THRESHOLD:
            _load_numpy()
            inv_lead = pow(mod[-1], -1, p)
            self.x_n = np.array([-c * inv_lead % p for c in mod[:n]], dtype=np.int64)  # X^n mod f
            # rows[i] = X^(n+i) mod f, enough to reduce a product of two residues
            self.rows = self._x_multiples(self.x_n, n - 1)

    def _x_multiples(self, first: np.ndarray, count: int) -> np.ndarray:
        # rows X^j * first mod f for j < count, one multiply-by-X step each
        out = np.zeros((count, self.n), dtype=np.int64)
        if count:
            out[0] = first
        for j in range(1, count):
            out[j, 1:] = out[j - 1, :-1]
            out[j] = (out[j] + out[j - 1, -1] * self.x_n) % self.p
        return out

    def reduce(self, cs: list[int]) -> list[int]:
        if len(cs) <= self.n:
            return list(cs)
        if self.rows is not None and len(cs) <= 2 * self.n - 1:
            arr = np.asarray(cs, dtype=np.int64)
            low = arr[: self.n] + arr[self.n :] @ self.rows[: len(cs) - self.n]
            return _trim((low % self.p).tolist())
        return _raw_divmod(self.field, list(cs), self.mod)[1]

    def mulmod(self, a: list[int], b: list[int]) -> list[int]:
        return self.reduce(_raw_mul(self.field, a, b))

    def powmod(self, a: list[int], e: int) -> list[int]:
        if e < 0:
            raise FptError("negative exponent in powmod")
        base = self.reduce(list(a))
        if e != self.p:
            return self._square_multiply(base, e)
        # a one-off p-th power is cheaper by squaring than building Q; in
        # pure Python Q is built only if its n - 2 new rows take fewer
        # products than one square-and-multiply chain for p
        self.p_powers += 1
        if self.p_powers == 2 and (
            self.rows is not None or self.n < self.p.bit_length() + self.p.bit_count()
        ):
            self.frob = self._frobenius_matrix()
        if self.frob is not None:
            return self._apply_frobenius(base)
        h = self._square_multiply(base, e)
        if base == [0, 1]:
            self.x_p = h  # Q's second row: the distinct-degree loop's first step
        return h

    def _square_multiply(self, base: list[int], e: int) -> list[int]:
        result = [1]
        while e:
            if e & 1:
                result = self.mulmod(result, base)
            e >>= 1
            if e:
                base = self.mulmod(base, base)
        return result

    def _apply_frobenius(self, h: list[int]) -> list[int]:
        # h^p = sum of h_i * X^(i*p): h times Q
        if not h:
            return []
        if self.rows is not None:
            return _trim((np.asarray(h, dtype=np.int64) @ self.frob[: len(h)] % self.p).tolist())
        out = [0] * self.n
        for c, row in zip(h, self.frob):
            if c:
                for j, r in enumerate(row):
                    out[j] += c * r
        return _trim([v % self.p for v in out])

    def _frobenius_matrix(self):
        # row i of Q is row i-1 times X^p mod f: in pure Python one mulmod
        # per row; on the numpy route shift[j] = X^(p+j) mod f is
        # multiplication by X^p, dropped once Q is built
        n, p = self.n, self.p
        xp_cs = self.x_p if self.x_p is not None else self._square_multiply([0, 1], p)
        if self.rows is None:
            frob = [[1]]
            while len(frob) < n:
                frob.append(self.mulmod(frob[-1], xp_cs))
            return frob
        xp = np.zeros(n, dtype=np.int64)
        xp[: len(xp_cs)] = xp_cs
        shift = self._x_multiples(xp, n)
        frob = np.zeros((n, n), dtype=np.int64)
        frob[0, 0] = 1
        for i in range(1, n):
            frob[i] = frob[i - 1] @ shift % p
        return frob


def poly_powmod(f: DensePoly, e: int, mod: DensePoly) -> DensePoly:
    """f**e reduced modulo a nonconstant polynomial.  A single call squares
    and multiplies: the Frobenius matrix pays only for repeated p-th
    powers in one _ModCtx, as the distinct-degree loop takes them."""
    f._check(mod)
    if mod.is_constant():
        raise FptError("powmod modulus must be nonconstant")
    ctx = _ModCtx(f.field, list(mod.coeffs))
    return DensePoly(f.field, tuple(ctx.powmod(list(f.coeffs), e)))


# ---------------------------------------------------------------------------
# factorization support


def _pth_root(field: FieldDesc, cs: list[int]) -> list[int]:
    # f = g(X^p)  ->  g; over F_p every coefficient is its own p-th root
    p = field.p
    for i, c in enumerate(cs):
        if i % p and c:
            raise AssertionError("polynomial with zero derivative not in F[X^p]")
    return cs[::p]


def squarefree_decomposition(f: DensePoly) -> list[tuple[DensePoly, int]]:
    """Monic squarefree parts with multiplicities; the product of
    part**multiplicity recovers monic(f).  Characteristic-p safe."""
    if f.is_constant():
        raise FptError("squarefree decomposition needs a nonconstant input")
    field = f.field
    out: list[tuple[DensePoly, int]] = []
    stack = [(list(f.monic().coeffs), 1)]
    while stack:
        cs, scale = stack.pop()
        deriv = list(DensePoly(field, tuple(cs)).derivative().coeffs)
        if not deriv:
            stack.append((_pth_root(field, cs), scale * field.p))
            continue
        c = _raw_gcd(field, cs, deriv)
        w = _raw_divmod(field, cs, c)[0]
        i = 1
        while len(w) > 1:
            y = _raw_gcd(field, w, c)
            z = _raw_divmod(field, w, y)[0]
            if len(z) > 1:
                out.append((DensePoly(field, tuple(z)), i * scale))
            i += 1
            w = y
            c = _raw_divmod(field, c, y)[0]
        if len(c) > 1:
            stack.append((_pth_root(field, c), scale * field.p))
    out.sort(key=lambda t: (t[1], t[0].coeffs))
    return out


@dataclass(frozen=True)
class DegreeMultiset:
    """Degrees of irreducible factors counted with multiplicity."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "DegreeMultiset":
        return cls(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def total_degree(self) -> int:
        return sum(d * m for d, m in self.counts)

    def to_json(self) -> dict[str, int]:
        return {str(d): m for d, m in self.counts}

    def __repr__(self) -> str:
        return f"DegreeMultiset({self.as_dict()})"


def _ddf_squarefree(g: DensePoly):
    """Distinct-degree split of a monic squarefree polynomial, lazily:
    yields (d, product of all irreducible factors of degree d) for each d
    in increasing order, one p-th power per step.  The first pair is
    right for any monic nonconstant g, squarefree or not: d is the least
    degree of an irreducible factor of g, and d = deg g only when g is
    irreducible."""
    field = g.field
    p = field.p
    ctx = _ModCtx(field, list(g.coeffs))
    remaining = list(g.coeffs)
    h = [0, 1]  # X
    d = 0
    while len(remaining) > 1:
        d += 1
        if 2 * d > len(remaining) - 1:
            yield len(remaining) - 1, DensePoly(field, tuple(remaining))
            return
        h = ctx.powmod(h, p)
        w = _raw_gcd(field, _raw_sub(field, h, [0, 1]), remaining)
        if len(w) > 1:
            yield d, DensePoly(field, tuple(w))
            remaining = _raw_divmod(field, remaining, w)[0]


def distinct_degree_factor(f: DensePoly) -> DegreeMultiset:
    """Exact multiset of degrees of the irreducible factors of f, counted
    with multiplicity: squarefree decomposition first, then standard
    distinct-degree splitting within each squarefree part."""
    if f.is_constant():
        raise FptError("cannot factor a constant")
    counts: dict[int, int] = {}
    for part, mult in squarefree_decomposition(f):
        for d, w in _ddf_squarefree(part):
            counts[d] = counts.get(d, 0) + (w.degree // d) * mult
    ms = DegreeMultiset.from_dict(counts)
    if ms.total_degree != f.degree:
        raise AssertionError("factor degrees do not sum to the input degree")
    return ms


def is_irreducible(f: DensePoly) -> bool:
    """Ben-Or's irreducibility test: f of degree n is irreducible iff
    X^(p^d) - X is coprime to f for every d <= n/2.  This is the
    distinct-degree loop stopped at its first shared factor, so a
    reducible f is rejected after as many p-th powers as the degree of its
    smallest irreducible factor."""
    if f.is_constant():
        raise FptError("constants are neither irreducible nor reducible here")
    return next(_ddf_squarefree(f.monic()))[0] == f.degree


def equal_degree_split(f: DensePoly, d: int, seed: int = 0) -> list[DensePoly]:
    """Split a monic squarefree product of degree-d irreducibles into its
    irreducible factors (Cantor-Zassenhaus, odd p only).  Deterministic
    for a fixed seed."""
    field = f.field
    p = field.p
    if p == 2:
        raise FptError("equal-degree splitting is implemented for odd p")
    rng = random.Random(seed)
    out: list[DensePoly] = []
    stack = [f.monic()]
    e = (p**d - 1) // 2
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        ctx = _ModCtx(field, list(g.coeffs))
        while True:
            r = [rng.randrange(p) for _ in range(g.degree)]
            r = _trim(r)
            if len(r) < 1:
                continue
            h = ctx.powmod(r, e)
            h0 = _raw_sub(field, h, [1])
            w = _raw_gcd(field, h0, list(g.coeffs))
            if 0 < len(w) - 1 < g.degree:
                stack.append(DensePoly(field, tuple(w)))
                stack.append(g // DensePoly(field, tuple(w)))
                break
    out.sort(key=lambda t: t.coeffs)
    return out


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, coeffs) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = list(self.coeffs), list(other.coeffs)
        if len(a) < len(b):
            a, b = b, a
        for i, y in enumerate(b):
            a[i] += y
        return IntPoly.make(a)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + IntPoly.make([-c for c in other.coeffs])

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return IntPoly.make(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]
