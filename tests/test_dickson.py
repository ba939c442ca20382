"""Bracket and invariant identities, checked pointwise."""

import itertools
import random

import pytest

from fpt import fmp, gf
from fpt.dickson import (
    bracket_code,
    bracket_F_code,
    i0_code,
    i1_code,
    nu_code,
    verify_appendix_recursion,
)
from fpt.errors import DependentPair, FptError


def rand_codes(field, rng, count):
    for _ in range(count):
        yield rng.randrange(field.q)


def outside_prime_field(F):
    return (x for x in F.codes() if F.frob_code(x) != x)


def test_bracket_alternating_and_antisymmetric():
    rng = random.Random(1)
    F = gf.make_field(3, 4)
    for x, y in zip(rand_codes(F, rng, 50), rand_codes(F, rng, 50)):
        assert bracket_code(F, 0, 1, x, x) == 0
        assert bracket_code(F, 0, 1, x, y) == F.neg_code(bracket_code(F, 1, 0, x, y))
        assert bracket_code(F, 2, 3, x, y) == F.neg_code(bracket_code(F, 3, 2, x, y))


def test_bracket_p_power_shift():
    rng = random.Random(2)
    for (p, m) in [(2, 6), (3, 4), (5, 3)]:
        F = gf.make_field(p, m)
        for x, y in zip(rand_codes(F, rng, 30), rand_codes(F, rng, 30)):
            for (i, j) in ((0, 1), (0, 2), (1, 3)):
                shifted = bracket_code(F, i + 1, j + 1, x, y)
                assert F.frob_code(bracket_code(F, i, j, x, y)) == shifted


def test_bracket_cocycle_normalized_second_argument():
    # the telescoping sum [i,l] = [i,j] + [j,k] + [k,l] holds whenever the
    # second argument lies in the prime field (the pencil-normalized form)
    rng = random.Random(3)
    for (p, m) in [(2, 6), (3, 4)]:
        F = gf.make_field(p, m)
        for _ in range(120):
            x = rng.randrange(F.q)
            y = rng.randrange(1, p)  # a nonzero prime-field code
            i = rng.randrange(2)
            j = i + 1 + rng.randrange(2)
            k = j + rng.randrange(2)
            l = k + 1 + rng.randrange(2)
            total = 0
            for a, b in ((i, j), (j, k), (k, l)):
                total = F.add_code(total, bracket_code(F, a, b, x, y))
            assert bracket_code(F, i, l, x, y) == total


def test_bracket_plucker_identity():
    rng = random.Random(4)
    for (p, m) in [(2, 5), (3, 4), (5, 3)]:
        F = gf.make_field(p, m)
        for x, y in zip(rand_codes(F, rng, 40), rand_codes(F, rng, 40)):
            idx = sorted(rng.sample(range(5), 4))
            i, j, k, l = idx

            def prod(a, b, c, d):
                return F.mul_code(bracket_code(F, a, b, x, y), bracket_code(F, c, d, x, y))

            lhs = F.add_code(F.sub_code(prod(i, j, k, l), prod(i, k, j, l)), prod(i, l, j, k))
            assert lhs == 0


def test_bracket_prime_field_bilinearity():
    rng = random.Random(5)
    F = gf.make_field(3, 4)
    for _ in range(60):
        x, x2, y = rng.randrange(F.q), rng.randrange(F.q), rng.randrange(F.q)
        c = rng.randrange(3)  # a prime-field code
        assert bracket_code(F, 0, 2, F.add_code(x, x2), y) == F.add_code(
            bracket_code(F, 0, 2, x, y), bracket_code(F, 0, 2, x2, y)
        )
        assert bracket_code(F, 0, 2, F.mul_code(c, x), y) == F.mul_code(c, bracket_code(F, 0, 2, x, y))
        assert bracket_code(F, 1, 2, x, F.mul_code(c, y)) == F.mul_code(c, bracket_code(F, 1, 2, x, y))


def test_bracket_divisibility_pointwise():
    # [0,j](x,y) = 0 forces [0,kj](x,y) = 0
    for (p, m) in [(2, 6), (3, 4)]:
        F = gf.make_field(p, m)
        for x in range(F.q):
            for y in (1, 2 % F.q):
                for j, k in ((1, 2), (1, 3), (2, 2)):
                    if j * k > m:
                        continue
                    if bracket_code(F, 0, j, x, y) == 0:
                        assert bracket_code(F, 0, j * k, x, y) == 0


def test_invariants_on_line():
    # I_1(x,1) = I_0(x,1) + 1, and I_0 never vanishes off the prime field
    for (p, m) in [(3, 2), (3, 4), (2, 6), (5, 2)]:
        F = gf.make_field(p, m)
        for x in outside_prime_field(F):
            i0 = i0_code(F, x, 1)
            assert i0 != 0
            assert i1_code(F, x, 1) == F.add_code(i0, 1)


def test_invariants_reject_dependent_pairs():
    F = gf.make_field(3, 3)
    x = F.p  # the code of X
    with pytest.raises(DependentPair):
        i0_code(F, x, F.add_code(x, x))
    with pytest.raises(DependentPair):
        nu_code(F, 2, 1)


def test_invariant_scaling_weights():
    rng = random.Random(6)
    for (p, m) in [(3, 4), (2, 6)]:
        F = gf.make_field(p, m)
        for _ in range(40):
            x, y = rng.randrange(F.q), rng.randrange(F.q)
            lam = rng.randrange(1, F.q)
            try:
                i0 = i0_code(F, x, y)
            except DependentPair:
                continue
            lx, ly = F.mul_code(lam, x), F.mul_code(lam, y)
            assert i0_code(F, lx, ly) == F.mul_code(F.pow_code(lam, (p + 1) * (p - 1)), i0)
            i1 = i1_code(F, x, y)
            assert i1_code(F, lx, ly) == F.mul_code(F.pow_code(lam, p * (p - 1)), i1)
            assert nu_code(F, lx, ly) == nu_code(F, x, y)


def test_invariant_frobenius_compatibility():
    rng = random.Random(7)
    F = gf.make_field(3, 4)
    for _ in range(40):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        try:
            i0 = i0_code(F, x, y)
        except DependentPair:
            continue
        fx, fy = F.frob_code(x), F.frob_code(y)
        assert i0_code(F, fx, fy) == F.pow_code(i0, 3)
        assert i1_code(F, fx, fy) == F.pow_code(i1_code(F, x, y), 3)
        assert nu_code(F, fx, fy) == F.pow_code(nu_code(F, x, y), 3)


def test_nu_zero_exactly_on_quadratic_subfield():
    F = gf.make_field(3, 4)
    for x in outside_prime_field(F):
        in_quadratic = F.frob_code(x, 2) == x
        assert (nu_code(F, x, 1) == 0) == in_quadratic


def test_nu_is_minus_one_on_cubic_subfield():
    for p in (2, 3, 5):
        F = gf.make_field(p, 3)
        minus_one = F.neg_code(1)
        for x in outside_prime_field(F):
            assert nu_code(F, x, 1) == minus_one


def test_nu_bracket_quotient_form():
    # -[0,2][1,3] / ([0,1][2,3]) agrees with -I_1^(p+1)/I_0^p everywhere
    rng = random.Random(8)
    for (p, m) in [(2, 6), (3, 4), (5, 3)]:
        F = gf.make_field(p, m)
        for _ in range(120):
            x, y = rng.randrange(F.q), rng.randrange(F.q)
            if bracket_code(F, 0, 1, x, y) == 0:
                continue
            num = F.mul_code(
                bracket_code(F, 0, 2, x, y), bracket_code(F, 1, 3, x, y)
            )
            den = F.mul_code(
                bracket_code(F, 0, 1, x, y), bracket_code(F, 2, 3, x, y)
            )
            assert nu_code(F, x, y) == F.neg_code(F.mul_code(num, F.inv_code(den)))


def test_nu_is_a_class_function_of_the_plane():
    # all (p^2-1)(p^2-p) ordered bases of every plane of F_81 share one nu
    from fpt.planes import enumerate_planes

    F = gf.make_field(3, 4)
    p = 3
    changes = [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p
    ]
    assert len(changes) == (p * p - 1) * (p * p - p)
    for pl in enumerate_planes(F):
        x, y = pl.u, pl.v
        base_val = nu_code(F, x, y)
        for a, b, c, d in changes:
            u = F.add_code(F.mul_code(a, x), F.mul_code(c, y))
            v = F.add_code(F.mul_code(b, x), F.mul_code(d, y))
            assert nu_code(F, u, v) == base_val


def test_bracket_F_base_cases():
    rng = random.Random(10)
    F = gf.make_field(3, 4)
    for _ in range(30):
        x = rng.randrange(F.q)
        if F.frob_code(x) == x:
            continue
        assert bracket_F_code(F, 1, x, 1) == 1
        assert bracket_F_code(F, 2, x, 1) == 1
        assert bracket_F_code(F, 3, x, 1) == F.add_code(nu_code(F, x, 1), 1)


def test_bracket_F_even_rejects_quadratic_orbit():
    F = gf.make_field(3, 4)
    quad = next(x for x in outside_prime_field(F) if F.frob_code(x, 2) == x)
    with pytest.raises(FptError, match="^even bracket index undefined on the quadratic-subfield orbit$"):
        bracket_F_code(F, 4, quad, 1)


def test_bracket_F_matches_family_polynomial():
    # F_m(x, 1) = family_m(nu(x,1)) for x outside the quadratic subfield
    F = gf.make_field(3, 5)  # odd degree: no quadratic subfield to dodge
    cache = {}
    fmp.build_recursive(5, 3, cache)
    for x in outside_prime_field(F):
        nux = nu_code(F, x, 1)
        for m in range(2, 6):
            lhs = bracket_F_code(F, m, x, 1)
            rhs = fmp.eval_support_in_field(cache[m], F, nux)
            assert lhs == rhs


def test_verify_appendix_recursion_small_fields():
    r = verify_appendix_recursion(3, gf.make_field(3, 3))
    assert r.passed and r.points_checked == 24
    r = verify_appendix_recursion(4, gf.make_field(3, 4))
    assert r.passed and r.points_checked == 81 - 9
    r = verify_appendix_recursion(5, gf.make_field(3, 5))
    assert r.passed and r.points_checked == 3**5 - 3
    js = r.to_json()
    assert js["failures"] == [] and js["m"] == 5
