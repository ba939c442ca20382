"""Plane enumeration, dilation orbits, invariant value sets, pencils."""

import time
from collections import Counter

import pytest

from fpt import fmp, gf
from fpt.dickson import i0_code
from fpt.errors import BudgetExceeded, DependentPair, FptError
from fpt.planes import (
    OrbitCensus,
    canonical_plane,
    enumerate_planes,
    orbit_count,
    orbit_count_formula,
    oracle_fmp,
    pencil,
    plane_count_formula,
    z_values,
)


def test_canonical_plane_is_basis_invariant():
    F = gf.make_field(3, 4)
    x, y = 27, 40  # arbitrary independent codes
    base = canonical_plane(F, x, y)
    # swapping, scaling and shearing the basis cannot change the representative
    assert canonical_plane(F, y, x) == base
    two_x = F.mul_code(2, x)
    assert canonical_plane(F, two_x, y) == base
    assert canonical_plane(F, x, F.add_code(y, two_x)) == base
    with pytest.raises(DependentPair):
        canonical_plane(F, x, two_x)


def test_enumerate_planes_counts():
    assert len(enumerate_planes(gf.make_field(2, 2))) == 1
    assert len(enumerate_planes(gf.make_field(2, 5))) == (31 * 30) // (3 * 2) == 155
    assert plane_count_formula(3, 6) == 11011
    planes = enumerate_planes(gf.make_field(3, 4))
    assert len(planes) == plane_count_formula(3, 4) == 130
    assert len(set(planes)) == 130
    with pytest.raises(FptError, match="need extension degree at least 2$"):
        enumerate_planes(gf.make_field(3, 1))
    with pytest.raises(BudgetExceeded):
        enumerate_planes(gf.make_field(3, 6), budget=100)


def _census_by_generator(p, m):
    """Independent orbit census: enumerate every plane and union each
    one with its image under a multiplicative generator, which alone
    generates the dilation action.  Returns (planes, orbits, histogram
    of orbit sizes)."""
    F = gf.make_field(p, m)
    planes = enumerate_planes(F)
    index = {(pl.u, pl.v): i for i, pl in enumerate(planes)}
    parent = list(range(len(planes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    g = F.generator()
    for i, pl in enumerate(planes):
        img = canonical_plane(F, F.mul_code(g, pl.u), F.mul_code(g, pl.v))
        ri, rj = find(i), find(index[(img.u, img.v)])
        if ri != rj:
            parent[ri] = rj
    sizes = Counter(find(i) for i in range(len(planes)))
    return len(planes), len(sizes), Counter(sizes.values())


@pytest.mark.parametrize(
    "p,m",
    [(2, m) for m in range(2, 11)]
    + [(3, m) for m in range(2, 7)]
    + [(5, m) for m in range(2, 5)]
    + [(7, 2), (7, 3)],
)
def test_orbit_count_matches_generator_oracle(p, m):
    census = orbit_count(p, m)
    planes, orbits, hist = _census_by_generator(p, m)
    assert census.planes == planes
    assert census.enumerated_orbits == orbits
    assert dict(census.orbit_sizes) == hist


@pytest.mark.parametrize("p,m", [(2, 12), (3, 8)])
def test_orbit_count_at_scale(p, m):
    start = time.perf_counter()
    census = orbit_count(p, m)
    assert time.perf_counter() - start < 10
    assert census.planes == plane_count_formula(p, m)
    assert census.enumerated_orbits == census.formula_orbits == orbit_count_formula(p, m)


def test_orbit_count_small():
    census = orbit_count(2, 5)
    assert census.formula_orbits == 5
    assert census.enumerated_orbits == 5
    assert census.planes == 155
    assert orbit_count_formula(3, 2) == 1
    assert orbit_count_formula(7, 2) == 1
    census22 = orbit_count(2, 2)
    assert census22.enumerated_orbits == 1


def test_orbit_census_f729():
    census = orbit_count(3, 6)
    assert census.planes == 11011
    assert census.formula_orbits == 31
    assert census.enumerated_orbits == 31
    # one short orbit for the quadratic subfield, thirty of full length
    assert dict(census.orbit_sizes) == {91: 1, 364: 30}
    js = census.to_json()
    assert js["planes"] == 11011 and js["orbits"] == 31


def test_orbit_sizes_stabilizer_dichotomy():
    # odd degree: all orbits have size (q-1)/(p-1); even degree: one short orbit
    c = orbit_count(3, 4)
    assert dict(c.orbit_sizes) == {(81 - 1) // (9 - 1): 1, (81 - 1) // 2: 3}
    c = orbit_count(2, 6)
    assert dict(c.orbit_sizes) == {(64 - 1) // 3: 1, 63: 10}
    c = orbit_count(2, 5)
    assert dict(c.orbit_sizes) == {31: 5}


def test_dilation_preserves_invariant():
    # every nonzero scalar maps planes to planes with the same invariant
    for (p, m) in [(3, 4), (2, 6)]:
        F = gf.make_field(p, m)
        planes_list = enumerate_planes(F)
        plane_set = {(pl.u, pl.v) for pl in planes_list}
        for pl in planes_list:
            val = pl.nu_value()
            for lam in range(1, F.q):
                img = canonical_plane(F, F.mul_code(lam, pl.u), F.mul_code(lam, pl.v))
                assert (img.u, img.v) in plane_set
                assert img.nu_value() == val
                if lam < p:  # prime-field dilations fix the plane itself
                    assert (img.u, img.v) == (pl.u, pl.v)


def test_z_values_examples():
    # odd cubic case: the single value -1
    for p in (2, 3, 5):
        F = gf.make_field(p, 3)
        z, z_circ = z_values(F)
        assert z == z_circ == frozenset({(-1) % p if p > 2 else 1})
    F = gf.make_field(3, 6)
    z, z_circ = z_values(F)
    assert len(z) == 31 and 0 in z and len(z_circ) == 30
    F = gf.make_field(3, 5)
    _, z_circ = z_values(F)
    assert len(z_circ) == 10


# fields for the differential tests; the pencil test tries every z in F_p
# there, valid or not (F_{2^5} has no valid z, F_{2^8} only z = 0)
_PENCIL_FIELDS = (
    [(2, m) for m in range(4, 9)]
    + [(3, m) for m in range(4, 7)]
    + [(5, 3), (5, 4), (7, 3)]
)


def test_z_values_full_sweep_agrees():
    # the prime-line walk against the invariant swept over every plane
    for (p, m) in _PENCIL_FIELDS + [(2, 2), (3, 2), (2, 9)]:
        F = gf.make_field(p, m)
        vals = frozenset(pl.nu_value() for pl in enumerate_planes(F))
        assert z_values(F) == (vals, vals - {0})


@pytest.mark.parametrize("p,m", _PENCIL_FIELDS)
def test_pencil_matches_every_plane_route(p, m):
    # every plane through the prime line, found by its points, grouped by
    # invariant value: the same planes in the same order as pencil(z)
    F = gf.make_field(p, m)
    by_value: dict[int, list] = {}
    for pl in enumerate_planes(F):
        if 1 in pl.points():
            by_value.setdefault(pl.nu_value(), []).append(pl)
    valid = [z for z in range(p) if z in by_value]
    assert valid == [
        z for z in range(p) if (z == 0 and m % 2 == 0) or (z and fmp.eval_fp(m, p, z) == 0)
    ]
    for z in valid:
        expected = sorted(by_value[z], key=lambda pl: (pl.u, pl.v))
        assert list(pencil(z, F).planes) == expected
    for z in set(range(p)) - set(valid):
        with pytest.raises(FptError, match=rf"^value {z} (does not occur among planes of this field|needs the quadratic subfield)"):
            pencil(z, F)


def test_contains_prime_field_matches_points():
    for (p, m) in [(2, 5), (3, 4), (5, 3)]:
        for pl in enumerate_planes(gf.make_field(p, m)):
            assert pl.contains_prime_field() == (1 in pl.points())


def test_invariant_fibers_over_pencil_planes():
    # restricted to planes through F_p, each nonzero value is hit by
    # exactly p+1 planes; value 0 by the single quadratic subfield plane
    F = gf.make_field(3, 4)
    p = 3
    fibers: dict[int, set] = {}
    for pl in enumerate_planes(F):
        if pl.contains_prime_field():
            fibers.setdefault(pl.nu_value(), set()).add((pl.u, pl.v))
    for z, planes_set in fibers.items():
        assert len(planes_set) == (1 if z == 0 else p + 1)


def test_pencil_cubic_field():
    for p in (2, 3, 5):
        F = gf.make_field(p, 3)
        pen = pencil((-1) % p, F)
        assert len(pen.planes) == p + 1
        # the union of the pencil planes is the whole cubic field
        pts = set()
        for pl in pen.planes:
            pts.update(pl.points())
        assert pts == set(F.codes())


def test_pencil_zero_names_quadratic_subfield():
    F = gf.make_field(3, 4)
    pen = pencil(0, F)
    assert len(pen.planes) == 1
    pts = set(pen.planes[0].points())
    assert pts == {x for x in F.codes() if F.frob_code(x, 2) == x}
    with pytest.raises(FptError, match="^value 0 needs the quadratic subfield, so an even degree$"):
        pencil(0, gf.make_field(3, 3))


def test_pencil_planes_intersect_in_prime_field():
    F = gf.make_field(3, 4)  # alpha(1, 3) = 4
    pen = pencil(1, F)
    assert len(pen.planes) == 4
    prime = set(range(3))
    pts = [set(pl.points()) for pl in pen.planes]
    for i in range(len(pts)):
        assert prime <= pts[i]
        for j in range(i + 1, len(pts)):
            assert pts[i] & pts[j] == prime


def test_pencil_wrong_field():
    with pytest.raises(FptError, match="^value 1 does not occur among planes of this field$"):
        pencil(1, gf.make_field(3, 3))  # alpha(1,3) = 4 does not divide 3


def test_frobenius_permutes_pencil_by_root_labels():
    # each pencil plane carries the label I_0(x, 1); Frobenius sends the
    # plane with label t to the plane with label t^p
    for (p, m, z) in [(3, 4, 1), (3, 3, 2), (5, 3, 4)]:
        F = gf.make_field(p, m)
        pen = pencil(z, F)
        labels = {}
        for pl in pen.planes:
            x = next(c for c in pl.points() if F.frob_code(c, 1) != c)
            labels[(pl.u, pl.v)] = i0_code(F, x, 1)
        label_set = set(labels.values())
        assert len(label_set) == len(pen.planes)
        for pl in pen.planes:
            img = canonical_plane(F, F.frob_code(pl.u, 1), F.frob_code(pl.v, 1))
            assert labels[(img.u, img.v)] == F.frob_code(labels[(pl.u, pl.v)], 1)


def test_oracle_fmp_low_degrees():
    for p in (2, 3, 5):
        F = gf.make_field(p, 3)
        assert list(oracle_fmp(F).coeffs) == [1, 1]  # X + 1
    F = gf.make_field(3, 4)
    assert list(oracle_fmp(F).coeffs) == [1, 0, 1, 1]  # X^3 + X^2 + 1
    F = gf.make_field(3, 2)
    assert list(oracle_fmp(F).coeffs) == [1]  # empty product


def test_oracle_matches_recursive_build():
    for (p, m) in [(2, 5), (2, 8), (3, 5), (5, 4)]:
        F = gf.make_field(p, m)
        oracle = oracle_fmp(F)
        dense = fmp.build_recursive(m, p).to_dense()
        assert list(oracle.coeffs) == list(dense.coeffs)
