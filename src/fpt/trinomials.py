"""Trinomials X^(p+1) - aX - b over F_p: the associated degree-(p+1)
polynomial gamma_z, its Descartes shift beta_z and rescaling delta_z,
removal of linear content (gamma_bar), exact prediction of the
factorization degree multiset, and irreducible-polynomial generation of
prescribed degree.

gamma_z(X) = X^(p+1) + (1+z) X^p + X + 1 encodes the fiber of the orbit
invariant over z: its roots are the I_0-labels of the pencil planes.
With zeta = b/a^2 and z = 1/zeta, the trinomial's irreducible factors
all share one degree m (the order of appearance of z), apart from the
explicit linear content, and m is the multiplicative order of X modulo
the quadratic X^2 + (z+2)X + 1 (the order of either of its roots).
"""

from __future__ import annotations

from dataclasses import dataclass

from .appearance import alpha_via_multiplicative_order, discriminant_class, sigma_map
from .dickson import i0_code
from .errors import BudgetExceeded, FptError
from .gf import (
    DEFAULT_BUDGET,
    check_budget,
    check_field,
    frobenius_orbit_minpoly,
    make_field,
)
from .numth import sqrt_mod_p
from .planes import canonical_plane
from .upoly import (
    DegreeMultiset,
    DensePoly,
    distinct_degree_factor,
    equal_degree_split,
    is_irreducible,
)

BRANCH_NONSQUARE = "nonsquare"
BRANCH_SQUARE = "nonzero-square"
BRANCH_QUARTER = "zeta=-1/4"
BRANCH_ZERO = "zeta=0"


@dataclass(frozen=True)
class TrinomialCase:
    p: int
    a: int
    b: int
    zeta: int
    z: int | None
    branch: str

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "b": self.b,
            "zeta": self.zeta,
            "z": self.z,
            "branch": self.branch,
        }


def classify(a: int, b: int, p: int) -> TrinomialCase:
    """Branch data for X^(p+1) - aX - b; requires a != 0."""
    a %= p
    b %= p
    if a == 0:
        raise FptError("the degree theorem needs a != 0")
    zeta = b * pow(a * a % p, -1, p) % p
    if zeta == 0:
        return TrinomialCase(p, a, b, 0, None, BRANCH_ZERO)
    z = pow(zeta, -1, p)
    chi = discriminant_class(z, p)
    if chi == 0:
        branch = BRANCH_QUARTER
    elif chi == 1:
        branch = BRANCH_SQUARE
    else:
        branch = BRANCH_NONSQUARE
    return TrinomialCase(p, a, b, zeta, z, branch)


def gamma(z: int, p: int) -> DensePoly:
    """X^(p+1) + (1+z) X^p + X + 1 over F_p."""
    field = make_field(p, 1)
    cs = [0] * (p + 2)
    cs[0] = 1
    cs[1] = (cs[1] + 1) % p
    cs[p] = (cs[p] + 1 + z) % p
    cs[p + 1] = (cs[p + 1] + 1) % p
    return DensePoly.make(field, cs)


def beta(z: int, p: int) -> DensePoly:
    """gamma_z with its argument shifted by -(z+1); expands to the
    trinomial X^(p+1) - zX - z."""
    return gamma(z, p).shift_arg((-(z + 1)) % p)


def delta(z: int, p: int) -> DensePoly:
    """The monic rescaling X^(p+1) - X - 1/z of beta_z; z must be nonzero."""
    if z % p == 0:
        raise FptError("delta needs z != 0")
    field = make_field(p, 1)
    cs = [0] * (p + 2)
    cs[0] = -pow(z, -1, p) % p
    cs[1] = -1 % p
    cs[p + 1] = 1
    return DensePoly.make(field, cs)


def trinomial_poly(a: int, b: int, p: int) -> DensePoly:
    field = make_field(p, 1)
    cs = [0] * (p + 2)
    cs[0] = -b % p
    cs[1] = -a % p
    cs[p + 1] = 1
    return DensePoly.make(field, cs)


def quadratic_factor(z: int, p: int) -> DensePoly:
    """X^2 + (z+2)X + 1, the potential linear content of gamma_z."""
    return DensePoly.make(make_field(p, 1), [1, (z + 2) % p, 1])


def gamma_bar(z: int, p: int) -> DensePoly:
    """gamma_z with linear content removed: divided by the quadratic
    when the discriminant is a nonzero square, by X - 1 at z = -4,
    untouched in the non-square case, and the constant 1 at z = 0."""
    z %= p
    if z == 0:
        return DensePoly.one(make_field(p, 1))
    g = gamma(z, p)
    chi = discriminant_class(z, p)
    if chi == 0:  # z = -4
        quot, rem = divmod(g, DensePoly.make(make_field(p, 1), [-1, 1]))
    elif chi == 1:
        quot, rem = divmod(g, quadratic_factor(z, p))
    else:
        return g
    if not rem.is_zero():
        raise AssertionError("linear content did not divide the polynomial")
    return quot


def linear_roots(z: int, p: int) -> frozenset[int]:
    """Roots of gamma_z lying in F_p: none, a pair of inverses, or the
    double cases at z = 0 and z = -4.  These are the linear content the
    paper excepts from its claim that all irreducible factors share one
    degree."""
    z %= p
    if z == 0:
        return frozenset({(-1) % p})
    chi = discriminant_class(z, p)
    if chi == 0:
        return frozenset({1})
    if chi == -1:
        return frozenset()
    # two distinct roots, so p is odd: at p = 2 and z = 1, X^2 + X + 1 has none
    s = sqrt_mod_p((z * z + 4 * z) % p, p)
    half = pow(2, -1, p)
    r_plus = (-(z + 2) + s) * half % p
    r_minus = (-(z + 2) - s) * half % p
    return frozenset({r_plus, r_minus})


def predict_degrees(a: int, b: int, p: int) -> DegreeMultiset:
    """Degree multiset of the irreducible factors of X^(p+1) - aX - b,
    predicted without factoring.

    b = 0 gives X (X-a)^p; otherwise the multiset follows the branch of
    zeta = b/a^2, with m the multiplicative order of X modulo
    X^2 + (z+2)X + 1 for z = 1/zeta, which divides p - 1 on the square
    branch and p + 1 on the non-square one.
    """
    case = classify(a, b, p)
    if case.branch == BRANCH_ZERO:
        return DegreeMultiset.from_dict({1: p + 1})
    if case.branch == BRANCH_QUARTER:
        return DegreeMultiset.from_dict({1: 1, p: 1})
    m = alpha_via_multiplicative_order(case.z, p)
    if case.branch == BRANCH_SQUARE:
        return DegreeMultiset.from_dict({1: 2, m: (p - 1) // m})
    return DegreeMultiset.from_dict({m: (p + 1) // m})


def verify_degrees(
    a: int, b: int, p: int, budget_degree: int = 2000
) -> tuple[DegreeMultiset, DegreeMultiset, bool]:
    """Predicted multiset, factoring-computed multiset, and their match."""
    if p + 1 > budget_degree:
        raise BudgetExceeded(f"degree {p + 1} exceeds factoring budget")
    predicted = predict_degrees(a, b, p)
    actual = distinct_degree_factor(trinomial_poly(a, b, p))
    return predicted, actual, predicted == actual


@dataclass(frozen=True)
class Frob2Report:
    p: int
    z: int
    m: int
    roots_checked: int
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "z": self.z,
            "splitting_degree": self.m,
            "roots_checked": self.roots_checked,
            "failures": list(self.failures),
        }


def _gamma_bar_roots(z: int, p: int, budget: int):
    """Splitting field and all roots of gamma_bar(z) in it, by sweep.

    The field is built only after p is found prime, z nonzero and the
    splitting field F_{p^m}, m = alpha(z, p), within budget."""
    check_field(p, 1)
    if z % p == 0:
        raise FptError("roots exist only for z != 0")
    m = alpha_via_multiplicative_order(z, p)
    check_budget(p, m, budget)
    field = make_field(p, m)
    coeffs = gamma_bar(z, p).coeffs

    def at(x: int) -> int:  # Horner in the field, on the F_p coefficients
        acc = 0
        for c in reversed(coeffs):
            acc = field.add_code(field.mul_code(acc, x), c)
        return acc

    roots = [x for x in field.codes() if at(x) == 0]
    if len(roots) != len(coeffs) - 1:
        raise AssertionError("polynomial did not split in the expected field")
    return field, roots


def frob2_check(z: int, p: int, budget: int = DEFAULT_BUDGET) -> Frob2Report:
    """Every root t of gamma_bar(z) in its splitting field must satisfy
    I_0(t, 1) = t^(p^2), the double Frobenius; in particular I_0(t, 1)
    is again a root."""
    field, roots = _gamma_bar_roots(z, p, budget)
    root_set = set(roots)
    failures = []
    for t in roots:
        i0 = i0_code(field, t, 1)
        if i0 != field.frob_code(t, 2) or i0 not in root_set:
            failures.append(t)
    return Frob2Report(p, z % p, field.m, len(roots), tuple(failures))


def roots_distinct_planes_check(z: int, p: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Distinct roots of gamma_bar(z) lie in distinct planes of the
    pencil (each root taken with the prime-field line it spans)."""
    from .dickson import nu_point_code

    field, roots = _gamma_bar_roots(z, p, budget)
    seen = set()
    for t in roots:
        if nu_point_code(field, t) != z % p:
            return False
        pl = canonical_plane(field, t, 1)
        key = (pl.u, pl.v)
        if key in seen:
            return False
        seen.add(key)
    return True


def generate_irreducible(
    p: int, m: int, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> DensePoly:
    """A monic irreducible of degree m over F_p, built from an element r
    of multiplicative order m in F_p or F_{p^2}: every irreducible
    factor of gamma_bar at z = -r - 2 - 1/r has degree exactly m.

    Requires m >= 3 and m dividing p-1 or p+1.
    """
    if m < 3:
        raise FptError("need order at least 3")
    if (p - 1) % m == 0:
        r = pow(make_field(p, 1).generator(), (p - 1) // m, p)
        z = sigma_map(r, p)
    elif (p + 1) % m == 0:
        F2 = make_field(p, 2)
        r = F2.pow_code(F2.generator(), (F2.q - 1) // m)
        z_code = F2.neg_code(
            F2.add_code(F2.add_code(r, 2 % p), F2.inv_code(r))
        )
        if z_code >= p:
            raise AssertionError("trace-style value did not land in F_p")
        z = z_code
    else:
        raise FptError(f"no element of order {m} in F_p or F_(p^2)")
    gbar = gamma_bar(z, p)
    if gbar.degree == m:
        out = gbar
    elif p**m <= budget:
        field, roots = _gamma_bar_roots(z, p, budget)
        out = DensePoly.make(make_field(p, 1), frobenius_orbit_minpoly(field, min(roots))[1])
    else:
        out = equal_degree_split(gbar, m, seed)[0]
    if out.degree != m or not is_irreducible(out):
        raise AssertionError("generated polynomial failed verification")
    return out
