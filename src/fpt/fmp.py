"""The 0/1-coefficient polynomial family attached to plane orbits,
indexed by (m, p): three-term recursion with gap exponent theta(m-3, p),
zigzag support formula, prime-field evaluation, and the strong division
property over F_p.

The family is stored sparsely as a set of exponents (all coefficients
are 1); exponents grow like p^(m-3) and are kept as arbitrary-precision
integers throughout.  Dense reductions over F_p are materialized only
under a degree budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, FptError
from .gf import DEFAULT_BUDGET, make_field
from .numth import require_prime
from .upoly import DensePoly, poly_gcd
from .zigzag import enum_zigzag, value_base

DENSE_DEGREE_BUDGET = 10**5
# support terms a build may hold per budget unit: at the default budget the
# line falls between m = 36, whose build peaks at 2.8 GB RSS, and m = 37,
# which exhausts a 3 GB address space (Python 3.11, 64-bit Linux)
BUILD_TERMS_PER_UNIT = 16


def theta(r: int, p: int) -> int:
    """The alternating sum p^r - p^(r-1) + ... + (-1)^r."""
    if r < 0:
        raise FptError(f"theta index {r} < 0")
    return (p ** (r + 1) + (-1) ** r) // (p + 1)


def degree_formula(m: int, p: int) -> int:
    """Degree of the family member: (p^(m-1)-1)/(p^2-1) for odd m,
    (p^(m-1)-p)/(p^2-1) for even m."""
    require_prime(p)
    if m < 2:
        return 0
    if m % 2 == 1:
        num = p ** (m - 1) - 1
    else:
        num = p ** (m - 1) - p
    if num % (p * p - 1):
        raise AssertionError("degree formula did not divide exactly")
    return num // (p * p - 1)


@dataclass(frozen=True)
class SparseSupport:
    """A family member as its exponent set; every coefficient is 1."""

    p: int
    m: int
    support: frozenset[int]

    @property
    def degree(self) -> int:
        return max(self.support) if self.support else -1

    def term_count(self) -> int:
        return len(self.support)

    def to_dense(self, budget: int = DENSE_DEGREE_BUDGET) -> DensePoly:
        """Dense reduction over F_p (coefficients are all 1)."""
        if self.degree > budget:
            raise BudgetExceeded(
                f"dense degree {self.degree} exceeds budget {budget}"
            )
        field = make_field(self.p, 1)
        cs = [0] * (self.degree + 1)
        for e in self.support:
            cs[e] = 1
        return DensePoly.make(field, cs)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "support": [str(e) for e in sorted(self.support)],
        }


def build_recursive(m: int, p: int, cache: dict | None = None) -> SparseSupport:
    """Support built by the three-term recursion; the shifted and
    unshifted halves are checked disjoint at every step."""
    require_prime(p)
    if m < 0:
        raise FptError("family index must be >= 0")
    if cache is None:
        cache = {}
    if m in cache:
        if cache[m].p != p:
            raise FptError("cache holds members of a different characteristic")
        return cache[m]
    supports: dict[int, frozenset[int]] = {
        0: frozenset(),
        1: frozenset({0}),
        2: frozenset({0}),
    }
    for k in range(3, m + 1):
        shift = theta(k - 3, p)
        shifted = frozenset(e + shift for e in supports[k - 1])
        low = supports[k - 2]
        if shifted & low:
            raise AssertionError(f"support halves overlap at index {k}")
        supports[k] = shifted | low
    for k in list(supports):
        if k <= m:
            cache.setdefault(k, SparseSupport(p, k, supports[k]))
    return cache[m]


def refuse_build(m: int, budget: int = DEFAULT_BUDGET) -> None:
    """What a build of member m refuses before it starts: a support of more
    than BUILD_TERMS_PER_UNIT terms per budget unit.  The support has
    Fib(m) terms whatever p (support_size), so the count walks the
    Fibonacci numbers and stops at the limit."""
    limit = BUILD_TERMS_PER_UNIT * budget
    terms, nxt = 0, 1
    for _ in range(m):
        terms, nxt = nxt, terms + nxt
        if terms > limit:
            raise BudgetExceeded(
                f"family member {m} has more than {limit} support terms"
                f" ({BUILD_TERMS_PER_UNIT} per unit of budget {budget})"
            )


def build_zigzag(m: int, p: int) -> SparseSupport:
    """Support from down/up sequences of length m-2: the exponents are
    (-1)^(m-1) times their base-(-p) values, all non-negative."""
    require_prime(p)
    if m < 2:
        raise FptError("zigzag construction needs m >= 2")
    sign = 1 if (m - 1) % 2 == 0 else -1
    exps = []
    for seq in enum_zigzag(m - 2):
        e = sign * value_base(seq, -p)
        if e < 0:
            raise AssertionError(f"exponent {e} negative for {seq.bits}")
        exps.append(e)
    support = frozenset(exps)
    if len(support) != len(exps):
        raise AssertionError("duplicate exponents in zigzag support")
    return SparseSupport(p, m, support)


def support_size(m: int, p: int) -> int:
    """Exact term count without materializing the support.

    Follows the recursion, verifying at every step that the shift
    exponent exceeds the lower member's degree (so the two halves are
    disjoint) and that the accumulated degree matches the closed form.
    """
    require_prime(p)
    if m < 0:
        raise FptError("family index must be >= 0")
    counts = {0: 0, 1: 1, 2: 1}
    degs = {0: -1, 1: 0, 2: 0}
    for k in range(3, m + 1):
        shift = theta(k - 3, p)
        if shift <= degs[k - 2]:
            raise AssertionError(f"shift {shift} does not clear the low half at {k}")
        counts[k] = counts[k - 1] + counts[k - 2]
        degs[k] = shift + degs[k - 1]
        if degs[k] != degree_formula(k, p):
            raise AssertionError(f"degree mismatch at index {k}")
    return counts[m]


def eval_fp(m: int, p: int, z: int) -> int:
    """Family member evaluated at a prime-field point, via the
    parity-alternating two-term recursion (O(m) multiplications)."""
    if not isinstance(z, int) or not 0 <= z < p:
        raise FptError(f"{z!r} is not a residue mod {p}")
    if m < 0:
        raise FptError("family index must be >= 0")
    return eval_fp_sequence(p, z, m)[m]


def eval_fp_sequence(p: int, z: int, upto: int) -> list[int]:
    """Values of the family at z for every index 0..upto.

    The gap power z^theta(k-3, p) collapses to z (odd k) or 1 (even k)
    only on the multiplicative group; at z = 0 the even-index gap power
    is 0, so the previous-but-one value carries through unchanged.
    """
    vals = [0, 1]
    for k in range(2, upto + 1):
        if k % 2 == 1:
            vals.append((z * vals[k - 1] + vals[k - 2]) % p)
        elif z == 0 and k >= 4:
            vals.append(vals[k - 2])
        else:
            vals.append((vals[k - 1] + vals[k - 2]) % p)
    return vals[: upto + 1]


def gcd_check(m: int, n: int, p: int, budget: int = DENSE_DEGREE_BUDGET) -> bool:
    """Strong division property: gcd of the dense reductions equals the
    member at gcd(m, n)."""
    import math

    if min(m, n) < 0:
        raise FptError("family index must be >= 0")
    cache: dict = {}
    top = max(m, n)
    build_recursive(top, p, cache)
    fm = cache[m].to_dense(budget)
    fn = cache[n].to_dense(budget)
    fg = cache[math.gcd(m, n)].to_dense(budget)
    return poly_gcd(fm, fn) == fg.monic()


def eval_support_in_field(member: SparseSupport, field, x_code: int) -> int:
    """Evaluate a family member at an element of an extension field of
    the same characteristic (sum of powers; exponents arbitrary size).
    It checks the paper's bracket-product formula F_m(x, 1) =
    family_m(nu(x, 1)) at points x of F_{p^m}."""
    if field.p != member.p:
        raise FptError("field characteristic does not match the family")
    acc = 0
    for e in member.support:
        acc = field.add_code(acc, field.pow_code(x_code, e))
    return acc


def neg_base_digits(n: int, p: int) -> list[int]:
    """Digits of n in base -p, least significant first, each in [0, p).
    They check the paper's zigzag support claim: each exponent of an
    odd-index member, and minus each exponent of an even-index member,
    has only digits 0 and 1 in base -p."""
    digits = []
    while n != 0:
        r = n % p
        digits.append(r)
        n = (n - r) // -p
    return digits
