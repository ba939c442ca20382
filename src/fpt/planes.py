"""Two-dimensional F_p-subspaces of F_{p^m}: enumeration in canonical
echelon form, dilation orbits, the value set of the orbit invariant,
pencils through the prime-field line, and the root-product oracle for
the polynomial family.

A plane is identified with the reduced row-echelon basis of its 2 x m
coordinate matrix over F_p, which makes equality and hashing O(1).
Every dilation orbit meets the planes span{1, y} through the prime line,
and the invariant takes one value per plane, so the orbit census, the
value sets and the pencils all walk those (q - p)/(p^2 - p) planes, one
y each (prime_line_reps), and never list the others.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .dickson import nu_code, nu_point_code
from .errors import (
    CoefficientNotInPrimeField,
    DegreeTooSmall,
    DependentPair,
    WrongField,
)
from .fmp import degree_formula, eval_fp
from .gf import (
    DEFAULT_BUDGET,
    FieldDesc,
    check_budget,
    check_field,
    frobenius_orbit_minpoly,
    make_field,
)
from .upoly import DensePoly


@dataclass(frozen=True)
class Plane:
    """A plane in canonical echelon basis (u, v); codes of the two rows."""

    field: FieldDesc
    u: int
    v: int

    def contains_prime_field(self) -> bool:
        # F_p = span{1}; in reduced echelon form 1 lies in the plane
        # exactly when it is the first row
        return self.u == 1

    def points(self) -> list[int]:
        """All p^2 element codes of the plane."""
        f = self.field
        out = []
        for a in range(f.p):
            au = f.mul_code(a, self.u)
            for b in range(f.p):
                out.append(f.add_code(au, f.mul_code(b, self.v)))
        return out

    def nu_value(self) -> int:
        return nu_code(self.field, self.u, self.v)

    def to_json(self) -> list[list[int]]:
        return [self.field.to_coeffs(self.u), self.field.to_coeffs(self.v)]


def canonical_plane(field: FieldDesc, x: int, y: int) -> Plane:
    """Reduced row-echelon representative of span{x, y}; raises on a
    dependent pair."""
    p, m = field.p, field.m
    r1 = field.to_coeffs(x)
    r2 = field.to_coeffs(y)
    # first pivot
    piv1 = next((i for i, c in enumerate(r1) if c), None)
    piv2 = next((i for i, c in enumerate(r2) if c), None)
    if piv1 is None:
        r1, r2, piv1, piv2 = r2, r1, piv2, None
    if piv1 is None:
        raise DependentPair("zero pair spans no plane")
    if piv2 is not None and (piv2 < piv1):
        r1, r2, piv1, piv2 = r2, r1, piv2, piv1
    inv = pow(r1[piv1], -1, p)
    r1 = [c * inv % p for c in r1]
    if r2[piv1]:
        c = r2[piv1]
        r2 = [(b - c * a) % p for a, b in zip(r1, r2)]
    piv2 = next((i for i, c in enumerate(r2) if c), None)
    if piv2 is None:
        raise DependentPair("pair is linearly dependent over the prime field")
    inv = pow(r2[piv2], -1, p)
    r2 = [c * inv % p for c in r2]
    if r1[piv2]:
        c = r1[piv2]
        r1 = [(a - c * b) % p for a, b in zip(r1, r2)]
    return Plane(field, field.from_coeffs(r1), field.from_coeffs(r2))


def enumerate_planes(field: FieldDesc, budget: int = DEFAULT_BUDGET) -> list[Plane]:
    """All planes, one canonical representative each, by direct echelon
    enumeration over pivot-column pairs."""
    p, m = field.p, field.m
    refuse_sweep(p, m, budget, "planes")
    out = []
    for j1 in range(m - 1):
        for j2 in range(j1 + 1, m):
            free1 = [i for i in range(j1 + 1, m) if i != j2]
            free2 = list(range(j2 + 1, m))
            n1, n2 = len(free1), len(free2)
            for mask1 in range(p**n1):
                r1 = [0] * m
                r1[j1] = 1
                rem = mask1
                for i in free1:
                    r1[i] = rem % p
                    rem //= p
                u = field.from_coeffs(r1)
                for mask2 in range(p**n2):
                    r2 = [0] * m
                    r2[j2] = 1
                    rem = mask2
                    for i in free2:
                        r2[i] = rem % p
                        rem //= p
                    out.append(Plane(field, u, field.from_coeffs(r2)))
    if len(out) != plane_count_formula(p, m):
        raise AssertionError("echelon enumeration missed planes")
    return out


def plane_count_formula(p: int, m: int) -> int:
    q = p**m
    return (q - 1) * (q - p) // ((p * p - 1) * (p * p - p))


def orbit_count_formula(p: int, m: int) -> int:
    """Number of dilation orbits of planes."""
    if m % 2 == 1:
        return (p ** (m - 1) - 1) // (p * p - 1)
    return 1 + (p ** (m - 1) - p) // (p * p - 1)


def prime_line_reps(p: int, m: int) -> list[int]:
    """One y per plane span{1, y} through the prime line, ascending: the
    codes with constant digit 0 and leading digit 1."""
    return [w * p for k in range(m - 1) for w in range(p**k, 2 * p**k)]


@dataclass(frozen=True)
class OrbitCensus:
    p: int
    m: int
    planes: int
    formula_orbits: int
    enumerated_orbits: int
    orbit_sizes: tuple[tuple[int, int], ...]  # (size, how many orbits)

    def to_json(self) -> dict:
        return {
            "planes": self.planes,
            "orbits": self.enumerated_orbits,
            "formula_orbits": self.formula_orbits,
            "orbit_sizes": {str(s): c for s, c in self.orbit_sizes},
        }


def orbit_count(p: int, m: int, budget: int = DEFAULT_BUDGET) -> OrbitCensus:
    """Formula value and an independent union-find census of the dilation
    orbits, run over the planes through the prime line.

    Every orbit meets the nodes span{1, y}, one per prime_line_reps
    code y.  Nodes A and B share an orbit iff B = s^-1 A for a nonzero
    s in A, and up to F_p-scaling s runs over y + a, a in F_p,
    so each node has p edges.  Each node is s^-1 P for exactly q - 1
    pairs (plane P, nonzero s in P), so an orbit with n nodes holds
    n (q - 1) / (p^2 - 1) planes.
    """
    check_field(p, m)
    refuse_sweep(p, m, budget, "planes")  # before the field is built
    field = make_field(p, m)
    q = field.q
    inv, mul = field.inv_code, field.mul_code
    reps = prime_line_reps(p, m)
    # node of every code outside F_p, looked up by code // p, which drops
    # the constant digit
    node = [0] * p ** (m - 1)
    for i, y in enumerate(reps):
        for c in range(1, p):
            node[mul(c, y) // p] = i
    parent = list(range(len(reps)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, y in enumerate(reps):
        for a in range(p):
            t = inv(y + a)  # y has constant digit 0, so y + a adds a to it
            ri, rj = find(i), find(node[t // p])
            if ri != rj:
                parent[ri] = rj
    nodes = Counter(find(i) for i in range(len(reps)))
    # multiply first: (q - 1)/(p^2 - 1) is not an integer for odd m
    hist = Counter(n * (q - 1) // (p * p - 1) for n in nodes.values())
    total = sum(size * count for size, count in hist.items())
    if total != plane_count_formula(p, m):
        raise AssertionError("orbit sizes do not add up to the plane count")
    return OrbitCensus(
        p,
        m,
        total,
        orbit_count_formula(p, m),
        len(nodes),
        tuple(sorted(hist.items())),
    )


def refuse_sweep(
    p: int, m: int, budget: int = DEFAULT_BUDGET, what: str = "plane invariants"
) -> None:
    """What a sweep of the planes of F_{p^m} refuses before it starts: a
    degree below 2, then an order above the budget.  It needs only p and
    m, so a caller can refuse before the field and its tables are
    built."""
    if m < 2:
        raise DegreeTooSmall(f"{what} need extension degree at least 2")
    check_budget(p, m, budget)


def z_values(
    field: FieldDesc, budget: int = DEFAULT_BUDGET
) -> tuple[frozenset[int], frozenset[int]]:
    """(Z, Z_circ): the invariant's value set over all planes, and the
    same set without 0.

    Every dilation orbit holds a plane span{1, y}, so nu(y, 1) over the
    prime-line planes takes every value.
    """
    refuse_sweep(field.p, field.m, budget)
    vals = {nu_point_code(field, y) for y in prime_line_reps(field.p, field.m)}
    z = frozenset(vals)
    z_circ = frozenset(v for v in vals if v)
    if len(z_circ) != degree_formula(field.m, field.p):
        raise AssertionError("value-set size disagrees with the degree formula")
    if (0 in z) != (field.m % 2 == 0):
        raise AssertionError("zero membership must track the parity of m")
    return z, z_circ


@dataclass(frozen=True)
class Pencil:
    """The planes through the prime-field line sharing one invariant value."""

    field: FieldDesc
    z: int
    planes: tuple[Plane, ...]

    def to_json(self) -> dict:
        return {
            "z": self.z,
            "planes": [pl.to_json() for pl in self.planes],
        }


def pencil(z: int, field: FieldDesc, budget: int = DEFAULT_BUDGET) -> Pencil:
    """The p+1 planes through F_p with invariant value z (a single plane
    for z = 0, which names the quadratic subfield)."""
    p, m = field.p, field.m
    if not 0 <= z < p:
        raise WrongField(f"{z} is not a residue mod {p}")
    check_budget(field.p, field.m, budget)
    if z == 0:
        if m % 2 != 0:
            raise WrongField("value 0 needs the quadratic subfield, so an even degree")
    elif eval_fp(m, p, z) != 0:
        raise WrongField(f"value {z} does not occur among planes of this field")
    # distinct codes y name distinct planes span{1, y}
    found = [
        canonical_plane(field, y, 1)
        for y in prime_line_reps(p, m)
        if nu_point_code(field, y) == z
    ]
    if len(found) != (1 if z == 0 else p + 1):
        raise AssertionError(f"pencil census wrong: {len(found)} planes")
    ordered = tuple(sorted(found, key=lambda pl: (pl.u, pl.v)))
    return Pencil(field, z, ordered)


def oracle_fmp(field: FieldDesc, budget: int = DEFAULT_BUDGET) -> DensePoly:
    """The family member as a root product over F_p: monic, squarefree,
    with one root per nonzero invariant value; coefficients must land in
    the prime subfield (checked via Frobenius-orbit minimal polynomials)."""
    _, z_circ = z_values(field, budget=budget)
    p = field.p
    remaining = set(z_circ)
    poly = DensePoly.one(make_field(p, 1))
    while remaining:
        orbit, cs = frobenius_orbit_minpoly(field, remaining.pop())
        if not remaining.issuperset(orbit[1:]):
            raise AssertionError("value set is not Frobenius-stable")
        remaining.difference_update(orbit)
        for c in cs:
            if c >= p:
                raise CoefficientNotInPrimeField(
                    f"orbit product coefficient {field.to_coeffs(c)} left F_p"
                )
        poly = poly * DensePoly(poly.field, tuple(cs))
    if poly.degree != degree_formula(field.m, p) or not poly.is_monic():
        raise AssertionError("root product has the wrong shape")
    return poly
