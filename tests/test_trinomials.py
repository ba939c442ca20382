"""Trinomial degree prediction, Frobenius-square property, irreducible
generation."""

import pytest

from fpt import trinomials
from fpt.errors import BudgetExceeded, NoSuchOrder, OrderTooSmall, ZeroA, ZeroZ
from fpt.gf import make_field
from fpt.trinomials import (
    beta,
    classify,
    delta,
    frob2_check,
    gamma,
    gamma_bar,
    generate_irreducible,
    linear_roots,
    predict_degrees,
    quadratic_factor,
    roots_distinct_planes_check,
    trinomial_poly,
    verify_degrees,
)
from fpt.upoly import DegreeMultiset, DensePoly, distinct_degree_factor, is_irreducible


def test_gamma_shape_and_derivative():
    for p in (3, 5, 7):
        for z in range(p):
            g = gamma(z, p)
            assert g.degree == p + 1
            # derivative collapses to (X+1)^p = X^p + 1
            d = g.derivative()
            expected = [0] * (p + 1)
            expected[0] = 1
            expected[p] = 1
            assert list(d.coeffs) == expected


def test_gamma_zero_is_power_of_linear():
    for p in (2, 3, 5):
        g = gamma(0, p)
        assert distinct_degree_factor(g) == DegreeMultiset.from_dict({1: p + 1})


def test_gamma_repeated_roots_only_at_zero():
    from fpt.upoly import poly_gcd

    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for z in range(p):
            g = gamma(z, p)
            has_repeat = poly_gcd(g, g.derivative()).degree > 0
            assert has_repeat == (z == 0)


def test_beta_is_descartes_shift():
    # literal shift of the argument equals the closed trinomial form
    for p in (3, 7):
        for z in range(p):
            b = beta(z, p)
            expected = trinomial_poly(z, z, p)  # X^(p+1) - zX - z
            assert b == expected


def test_gamma_at_shift_point_matches_beta_constant():
    for p in (3, 5, 7):
        for z in range(1, p):
            g = gamma(z, p)
            assert g.eval_code((-(z + 1)) % p) == (-z) % p


def test_delta_form_and_scaling():
    for p in (3, 5, 7, 19):
        for z in range(1, p):
            d = delta(z, p)
            assert d.is_monic()
            assert d.coeffs[0] == -pow(z, -1, p) % p
            # z^(-2) beta(zX) reproduces delta
            zb = beta(z, p).scale_arg(z)
            scale = pow(z * z % p, -1, p)
            scaled = DensePoly.make(
                zb.field, [c * scale % p for c in zb.coeffs]
            )
            assert scaled == d
    with pytest.raises(ZeroZ):
        delta(0, 5)


def test_beta_delta_gamma_share_degree_multisets():
    for p in (3, 5, 7):
        for z in range(1, p):
            dm_g = distinct_degree_factor(gamma(z, p))
            dm_b = distinct_degree_factor(beta(z, p))
            dm_d = distinct_degree_factor(delta(z, p))
            assert dm_g == dm_b == dm_d


def test_gamma_bar_branches():
    assert list(gamma_bar(0, 7).coeffs) == [1]
    # z = -4: quotient by X-1 equals X^p - 1 - 2(X + ... + X^(p-1))
    for p in (3, 5, 7, 11):
        gb = gamma_bar((-4) % p, p)
        expected = [(-1) % p] + [(-2) % p] * (p - 1) + [1]
        assert list(gb.coeffs) == expected
    assert gamma_bar(5, 19).degree == 18
    # nonsquare branch leaves gamma intact
    assert gamma_bar(4, 19) == gamma(4, 19)


def test_gamma_bar_minus_four_irreducible():
    for p in (3, 5, 7, 11, 13):
        assert is_irreducible(gamma_bar((-4) % p, p))


def test_linear_roots_branches():
    for p in (3, 5, 7, 19):
        assert linear_roots((-4) % p, p) == frozenset({1})
        assert linear_roots(0, p) == frozenset({(-1) % p})
    # p=19, z=5: the two roots of X^2 + 7X + 1, product 1
    roots = linear_roots(5, 19)
    assert len(roots) == 2
    r1, r2 = sorted(roots)
    assert r1 * r2 % 19 == 1
    q = quadratic_factor(5, 19)
    assert all(q.eval_code(r) == 0 for r in roots)
    assert linear_roots(4, 19) == frozenset()
    # p = 2: -4 = 0, and at z = 1 the quadratic X^2 + X + 1 has no root
    assert linear_roots(0, 2) == frozenset({1})
    assert linear_roots(1, 2) == linear_roots(3, 2) == frozenset()


def test_classify_cases():
    case = classify(1, 4, 19)  # zeta = 4, z = 5
    assert case.zeta == 4 and case.z == 5 and case.branch == "nonzero-square"
    assert classify(1, 0, 7).branch == "zeta=0"
    assert classify(2, 3, 5).zeta == 3 * pow(4, -1, 5) % 5
    with pytest.raises(ZeroA):
        classify(0, 1, 7)


def test_predict_degrees_p19_examples():
    # zeta^(-1) = 5 -> {1:2, 18:1}; zeta^(-1) = 16 -> {1:2, 6:3}
    z5 = pow(5, -1, 19)
    pred = predict_degrees(1, z5, 19)
    assert pred == DegreeMultiset.from_dict({1: 2, 18: 1})
    z16 = pow(16, -1, 19)
    assert predict_degrees(1, z16, 19) == DegreeMultiset.from_dict({1: 2, 6: 3})
    # b = 0: X (X-a)^p
    for p in (3, 7):
        for a in range(1, p):
            assert predict_degrees(a, 0, p) == DegreeMultiset.from_dict({1: p + 1})


def test_verify_degrees_exhaustive_small_primes():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            for b in range(p):
                predicted, actual, ok = verify_degrees(a, b, p)
                assert ok, (p, a, b, predicted, actual)


def test_verify_degrees_p19_spot():
    _, _, ok = verify_degrees(3, 7, 19)
    assert ok
    _, _, ok = verify_degrees(18, 12, 19)
    assert ok


@pytest.mark.parametrize("p, b, expected", [
    # a = 1; b picks the branch, and for the two quadratic branches a root
    # order of p + 1 or p - 1, so the factorization takes every DDF step
    (101, 0, {1: 102}),
    (101, 7, {102: 1}),
    (101, 2, {1: 2, 100: 1}),
    (101, 25, {1: 1, 101: 1}),
    (251, 0, {1: 252}),
    (251, 7, {252: 1}),
    (251, 1, {1: 2, 250: 1}),
    (251, 188, {1: 1, 251: 1}),
])
def test_verify_degrees_max_order_large_p(p, b, expected):
    predicted, actual, ok = verify_degrees(1, b, p)
    assert ok and actual == DegreeMultiset.from_dict(expected)


def test_splitting_degrees_match_alpha():
    # all non-linear factors of gamma_bar share degree alpha(z, p)
    from fpt.appearance import alpha_zp
    from fpt.numth import primes_upto

    for p in primes_upto(31):
        for z in range(1, p):
            gb = gamma_bar(z, p)
            if gb.degree == 0:
                continue
            dm = distinct_degree_factor(gb).as_dict()
            a = alpha_zp(z, p).alpha
            assert set(dm) == {a}


def test_frob2_check_small(monkeypatch):
    # z = 2 is both -1 and -4 mod 3: cubic splitting field, X-1 removed
    rep = frob2_check(2, 3)
    assert rep.passed and rep.m == 3 and rep.roots_checked == 3
    rep = frob2_check(1, 3)  # alpha(1,3) = 4, nonsquare branch keeps degree 4
    assert rep.passed and rep.m == 4 and rep.roots_checked == 4
    rep = frob2_check(1, 5)  # alpha(1,5) = 5 = alpha(-4,5)
    assert rep.passed and rep.m == 5
    with pytest.raises(ZeroZ):
        frob2_check(0, 5)
    # a splitting field over budget is refused before its modulus search
    def unreachable(p, m):
        raise AssertionError(f"F_({p}^{m}) built before the budget check")

    monkeypatch.setattr(trinomials, "make_field", unreachable)
    with pytest.raises(BudgetExceeded):
        frob2_check(3, 4099)
    # alpha(4, 4099) = 4100 and alpha(5, 1048573) = 1048574: orders far
    # beyond the digit limit of int-to-str are refused all the same
    with pytest.raises(BudgetExceeded, match=r"4099\^4100 "):
        frob2_check(4, 4099)
    with pytest.raises(BudgetExceeded, match=r"1048573\^1048574 "):
        frob2_check(5, 1048573)


def test_frob2_check_p19():
    rep = frob2_check(18, 19)  # z = -1: cubic splitting field
    assert rep.passed and rep.m == 3 and rep.roots_checked == 18


def test_roots_distinct_planes():
    assert roots_distinct_planes_check(2, 3)
    assert roots_distinct_planes_check(1, 3)
    assert roots_distinct_planes_check(4, 5)  # z = -1 mod 5


def test_generate_irreducible():
    out = generate_irreducible(19, 18)
    assert out.degree == 18 and is_irreducible(out)
    assert out == gamma_bar(5, 19) or out.degree == 18  # whole polynomial case
    out = generate_irreducible(19, 9, seed=3)
    assert out.degree == 9 and is_irreducible(out)
    out = generate_irreducible(7, 8)
    assert out.degree == 8 and is_irreducible(out)
    out = generate_irreducible(2, 3)
    assert list(out.coeffs) == [1, 1, 0, 1]  # X^3 + X + 1
    with pytest.raises(OrderTooSmall):
        generate_irreducible(7, 2)
    with pytest.raises(NoSuchOrder):
        generate_irreducible(7, 5)


def test_generate_irreducible_deterministic_with_seed():
    a = generate_irreducible(19, 9, seed=42)
    b = generate_irreducible(19, 9, seed=42)
    assert a == b


def test_inverse_pair_roots_product_one():
    from fpt.appearance import discriminant_class

    for p in (7, 11, 19, 31):
        for z in range(1, p):
            if discriminant_class(z, p) == 1:
                roots = sorted(linear_roots(z, p))
                assert len(roots) == 2 and roots[0] * roots[1] % p == 1


def test_primitive_root_iff_irreducible():
    # R is a primitive root mod p exactly when the reduced polynomial at
    # z = sigma(R) is irreducible
    from fpt.appearance import sigma_map
    from fpt.numth import primes_upto

    for p in primes_upto(97):
        if p <= 3:
            continue
        F = make_field(p, 1)
        for R in (2, 3, 5, 6, 7, 8, 10):
            r = R % p
            if r in (0, 1, p - 1):
                continue
            z = sigma_map(r, p)
            primitive = F.order_code(r) == p - 1
            assert is_irreducible(gamma_bar(z, p)) == primitive
