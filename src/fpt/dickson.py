"""Dickson brackets [i,j], the degree-two invariants I_0 and I_1, the
orbit invariant nu, and pointwise verification of the bracket-product
recursion used to build the polynomial family.

For a pair (x, y) in a common field, [i,j] = x^(p^i) y^(p^j) -
x^(p^j) y^(p^i).  The invariants are I_0 = [1,2]/[0,1] = [0,1]^(p-1)
and I_1 = [0,2]/[0,1]; the orbit invariant is nu = -I_1^(p+1)/I_0^p,
which is 0 exactly on (dilates of) the quadratic subfield and is
invariant under base change and scaling of the plane spanned by x, y.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DependentPair, Fp2OrbitDenominator
from .fmp import theta
from .gf import DEFAULT_BUDGET, FieldDesc, check_budget


def bracket_code(field: FieldDesc, i: int, j: int, x: int, y: int) -> int:
    """The 2x2 Moore determinant x^(p^i) y^(p^j) - x^(p^j) y^(p^i)."""
    xi = field.frob_code(x, i)
    xj = field.frob_code(x, j)
    yi = field.frob_code(y, i)
    yj = field.frob_code(y, j)
    return field.sub_code(field.mul_code(xi, yj), field.mul_code(xj, yi))


def i0_code(field: FieldDesc, x: int, y: int) -> int:
    """I_0 = [1,2]/[0,1], computed as [0,1]^(p-1)."""
    b01 = bracket_code(field, 0, 1, x, y)
    if b01 == 0:
        raise DependentPair("I_0 needs a linearly independent pair")
    return field.pow_code(b01, field.p - 1)


def i1_code(field: FieldDesc, x: int, y: int) -> int:
    """I_1 = [0,2]/[0,1]."""
    b01 = bracket_code(field, 0, 1, x, y)
    if b01 == 0:
        raise DependentPair("I_1 needs a linearly independent pair")
    b02 = bracket_code(field, 0, 2, x, y)
    return field.mul_code(b02, field.inv_code(b01))


def nu_code(field: FieldDesc, x: int, y: int) -> int:
    """nu = -I_1^(p+1)/I_0^p; zero exactly on the orbit of the quadratic
    subfield, invariant under basis change and scaling."""
    i0 = i0_code(field, x, y)  # nonzero whenever the pair is independent
    i1 = i1_code(field, x, y)
    if i1 == 0:
        return 0
    num = field.pow_code(i1, field.p + 1)
    den = field.pow_code(i0, field.p)
    return field.neg_code(field.mul_code(num, field.inv_code(den)))


def nu_point_code(field: FieldDesc, x: int) -> int:
    """nu(x, 1) through I_0(x,1) = (x^p - x)^(p-1); x must lie outside
    the prime subfield."""
    t = field.sub_code(field.frob_code(x, 1), x)
    if t == 0:
        raise DependentPair("nu(x, 1) needs x outside the prime field")
    i0 = field.pow_code(t, field.p - 1)
    i1 = field.add_code(i0, 1)
    if i1 == 0:
        return 0
    num = field.pow_code(i1, field.p + 1)
    den = field.pow_code(i0, field.p)
    return field.neg_code(field.mul_code(num, field.inv_code(den)))


def bracket_F_code(field: FieldDesc, m: int, x: int, y: int) -> int:
    """The bracket-product family member at (x, y).

    Odd index 2k+1: (-1)^k [0,2k+1] [0,1]^(-theta(2k,p));
    even index 2k >= 4: (-1)^(k+1) ([1,2]/([0,1][0,2])) [0,2k]
    [0,1]^(-theta(2k-1,p)); indices 1 and 2 are the constant 1.
    """
    if m < 1:
        raise ValueError("bracket index must be >= 1")
    if m in (1, 2):
        return 1
    p = field.p
    b01 = bracket_code(field, 0, 1, x, y)
    if b01 == 0:
        raise DependentPair("bracket product needs an independent pair")
    sign_one = field.neg_code(1)
    if m % 2 == 1:
        k = (m - 1) // 2
        lead = bracket_code(field, 0, m, x, y)
        power = field.pow_code(field.inv_code(b01), theta(2 * k, p))
        out = field.mul_code(lead, power)
        if k % 2 == 1:
            out = field.mul_code(out, sign_one)
        return out
    k = m // 2
    b02 = bracket_code(field, 0, 2, x, y)
    if b02 == 0:
        raise Fp2OrbitDenominator("even bracket index undefined on the quadratic-subfield orbit")
    b12 = bracket_code(field, 1, 2, x, y)
    lead = bracket_code(field, 0, m, x, y)
    ratio = field.mul_code(
        b12, field.inv_code(field.mul_code(b01, b02))
    )
    power = field.pow_code(field.inv_code(b01), theta(2 * k - 1, p))
    out = field.mul_code(field.mul_code(ratio, lead), power)
    if (k + 1) % 2 == 1:
        out = field.mul_code(out, sign_one)
    return out


@dataclass(frozen=True)
class AppendixReport:
    m: int
    p: int
    field_degree: int
    points_checked: int
    failures: tuple[tuple[int, ...], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "p": self.p,
            "field_degree": self.field_degree,
            "points_checked": self.points_checked,
            "failures": [list(f) for f in self.failures],
        }


def refuse_appendix(m: int, p: int, n: int, budget: int = DEFAULT_BUDGET) -> None:
    """What verify_appendix_recursion at index m refuses before its sweep
    of F_{p^n}: an index below 3, then an order above the budget.  It
    needs no field, so a caller can refuse before building one."""
    if m < 3:
        raise ValueError("the recursion starts at index 3")
    check_budget(p, n, budget)


def verify_appendix_recursion(
    m: int, field: FieldDesc, budget: int = DEFAULT_BUDGET
) -> AppendixReport:
    """Check F_m = nu^theta(m-3,p) F_{m-1} + F_{m-2} at every valid point
    (x, 1) of the field.

    Points in the prime field are excluded (dependent pair); for m >= 4
    points of the quadratic subfield are excluded as well, since an even
    bracket index with a vanishing [0,2] denominator is involved.
    """
    refuse_appendix(m, field.p, field.m, budget)
    p = field.p
    t = theta(m - 3, p)
    need_quadratic_exclusion = m >= 4
    checked = 0
    failures = []
    for x in field.codes():
        if field.frob_code(x, 1) == x:
            continue  # prime subfield
        if need_quadratic_exclusion and field.frob_code(x, 2) == x:
            continue
        lhs = bracket_F_code(field, m, x, 1)
        nu_x = nu_point_code(field, x)
        rhs = field.add_code(
            field.mul_code(field.pow_code(nu_x, t), bracket_F_code(field, m - 1, x, 1)),
            bracket_F_code(field, m - 2, x, 1),
        )
        checked += 1
        if lhs != rhs:
            failures.append(tuple(field.to_coeffs(x)))
    return AppendixReport(m, p, field.m, checked, tuple(failures))
