"""Order-of-appearance computations and scans."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpt.appearance import (
    alpha_any,
    alpha_classical,
    alpha_divisor_bound,
    alpha_prime,
    alpha_table,
    alpha_via_multiplicative_order,
    alpha_zp,
    carmichael_search,
    check_divisibility_law,
    salle_bound_scan,
    shanks_taylor_density,
    sigma_image,
    sigma_map,
    wall_check,
)
from fpt.errors import FptError
from fpt.numth import primes_upto


def test_alpha_zp_examples():
    for p in primes_upto(97)[1:]:
        assert alpha_zp(p - 1, p).alpha == 3          # z = -1
        # z = -4: X = 1 + eps modulo (X - 1)^2 has order p
        assert alpha_via_multiplicative_order((-4) % p, p) == p == alpha_zp((-4) % p, p).alpha
    assert alpha_zp(16, 19).alpha == 6
    assert alpha_zp(18, 19).alpha == 3
    with pytest.raises(FptError, match=r"^alpha\(0, p\) is undefined; the value 0 names the quadratic-subfield orbit$"):
        alpha_zp(0, 7)


def test_alpha_zp_witness():
    rec = alpha_zp(16, 19)
    assert rec.witness[rec.alpha] == 0
    assert all(v != 0 for v in rec.witness[2 : rec.alpha])


def test_p19_table():
    # sigma pairs fix the expected values: the orbit of order-18 elements
    # maps to {1,5,7}, order-9 to {8,10,14}, order-6 to {16}, order-3 to {18}
    expected = {1: 18, 5: 18, 7: 18, 8: 9, 10: 9, 14: 9, 16: 6, 18: 3}
    for z, a in expected.items():
        assert alpha_zp(z, 19).alpha == a
    # the remaining residues have discriminant non-squares: alpha divides 20
    for rec in alpha_table(19):
        assert rec.alpha <= 20
        assert alpha_divisor_bound(rec.z, 19) % rec.alpha == 0


def test_sigma_map_structure():
    # sigma is 2-to-1 with image size (p-3)/2, and pairs (r, 1/r) collapse
    for p in primes_upto(97):
        if p < 7:
            continue
        image = sigma_image(p)
        assert len(image) == (p - 3) // 2
        for z, fiber in image.items():
            assert len(fiber) == 2
            r, s = fiber
            assert r * s % p == 1
    assert sigma_map(2, 19) == 5
    assert sigma_map(4, 19) == 8


def test_alpha_matches_sigma_preimage_order():
    # alpha(sigma(r), p) equals the multiplicative order of r
    from fpt.gf import make_field

    for p in (7, 11, 19, 31):
        F = make_field(p, 1)
        for r in range(2, p - 1):
            z = sigma_map(r, p)
            assert alpha_zp(z, p).alpha == F.order_code(r)


def test_alpha_classical_examples():
    assert alpha_classical(11) == 10
    assert alpha_classical(2) == 3
    assert alpha_classical(6) == 12
    assert alpha_classical(3) == 4
    assert alpha_classical(5) == 5


def test_alpha_prime_fast_path_agrees():
    # no special case at p = 2 (no root in F_2) or p = 5 (double root 1)
    assert alpha_prime(2) == 3 and alpha_prime(5) == 5
    for p in primes_upto(1000):
        assert alpha_prime(p) == alpha_classical(p)


def test_alpha_any_agrees_with_direct_recursion():
    for n in [*range(2, 300), 2**12, 3**7, 5**6, 7**4, 11**3, 2**3 * 5**4]:
        assert alpha_any(n) == alpha_classical(n)
    for n in (1, 0, -7):
        with pytest.raises(ValueError, match="entry points start at n = 2"):
            alpha_any(n)


def test_alpha_zp_at_one_is_classical():
    for p in primes_upto(1000):
        assert alpha_zp(1, p).alpha == alpha_classical(p)


def test_check_divisibility_law():
    assert check_divisibility_law(11)
    assert check_divisibility_law(19)
    assert check_divisibility_law(3)
    for p in primes_upto(200):
        if p != 5:
            assert check_divisibility_law(p)
    with pytest.raises(FptError, match="^the law excludes p = 5$"):
        check_divisibility_law(5)


def test_wall_check():
    assert wall_check(11, 100)
    assert wall_check(2, 30)
    assert wall_check(6, 60)
    for n in (2, 3, 4, 5, 7, 10, 12, 100):
        assert wall_check(n, 200)


def test_salle_scan():
    assert salle_bound_scan(200).equality_cases == (6, 30, 150)
    assert salle_bound_scan(10).equality_cases == (6,)
    assert salle_bound_scan(5).equality_cases == ()


def test_carmichael_search():
    assert carmichael_search(10, 100) == 11
    assert carmichael_search(4, 100) == 3
    assert carmichael_search(3, 10) == 2
    assert carmichael_search(5, 10) == 5  # chi = 0: m divides p itself
    assert carmichael_search(10, 10) is None
    assert carmichael_search(10, 10**8) == 11  # only primes <= Fib(10) = 55 are sieved
    for m in (-3, 0, 1, 2, 6, 12):
        assert carmichael_search(m, 10000) is None


def test_carmichael_search_matches_a_walk_over_alpha_prime():
    alpha = {p: alpha_prime(p) for p in primes_upto(10**4)}
    for limit in (10, 100, 10**4):
        for m in range(1, 121):
            want = next((p for p, a in alpha.items() if p <= limit and a == m), None)
            assert carmichael_search(m, limit) == want, (m, limit)


def _density_by_walk(limit, alpha):
    ps = [p for p in alpha if p <= limit]
    pm1 = sum(alpha[p] == p - 1 for p in ps)
    pp1 = tuple(p for p in ps if alpha[p] == p + 1)
    return (limit, pm1, len(pp1), len(ps), pm1 / len(ps), pp1)


def _density_fields(rep):
    return (rep.limit, rep.count_pm1, rep.count_pp1, rep.total_primes, rep.density, rep.pp1_primes)


def test_density_matches_a_walk_over_alpha_prime():
    alpha = {p: alpha_prime(p) for p in primes_upto(3000)}
    for limit in range(2, 3001):
        assert _density_fields(shanks_taylor_density(limit)) == _density_by_walk(limit, alpha)
    alpha = {p: alpha_prime(p) for p in primes_upto(10**5)}
    for limit in (4096, 54321, 99991, 10**5):
        assert _density_fields(shanks_taylor_density(limit)) == _density_by_walk(limit, alpha)


def test_density_keeps_its_cap():
    with pytest.raises(ValueError, match="scan limit capped at 1e6"):
        shanks_taylor_density(10**6 + 1)


def test_density_scan_small():
    rep = shanks_taylor_density(100)
    # alpha(p) = p+1 forces p = +-2 mod 5 (2 and 3 qualify at tiny sizes)
    for p in rep.pp1_primes:
        assert p % 5 in (2, 3)
    # spot values derivable by hand: alpha(2)=3=2+1, alpha(3)=4=3+1
    assert 2 in rep.pp1_primes and 3 in rep.pp1_primes
    assert rep.total_primes == len(primes_upto(100))


def test_alpha_via_multiplicative_order_examples():
    assert alpha_via_multiplicative_order(1, 19) == 18
    assert alpha_via_multiplicative_order(18, 19) == 3
    assert alpha_via_multiplicative_order(16, 19) == 6
    # z = 4 sits in the non-residue branch: the order lives in F_{19^2}
    assert alpha_via_multiplicative_order(4, 19) == 20
    assert alpha_via_multiplicative_order(1, 2) == 3
    assert alpha_via_multiplicative_order(3, 7) == 7  # -4 mod 7
    with pytest.raises(FptError, match=r"^alpha\(0, p\) is undefined$"):
        alpha_via_multiplicative_order(0, 7)


def test_alpha_cross_validation_small():
    for p in (2, 3, 5, 7, 11, 13, 19, 23):
        for z in range(1, p):
            assert alpha_via_multiplicative_order(z, p) == alpha_zp(z, p).alpha


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from(primes_upto(500)), st.integers(1, 498))
def test_alpha_routes_agree_at_random_points(p, z):
    z %= p
    assume(z != 0)
    assert alpha_via_multiplicative_order(z, p) == alpha_zp(z, p).alpha


def test_divisor_law_all_small_primes():
    for p in (2, 3, 5, 7, 11, 13, 19, 23, 29):
        for z in range(1, p):
            rec = alpha_zp(z, p)
            assert alpha_divisor_bound(z, p) % rec.alpha == 0
