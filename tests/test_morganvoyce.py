"""Morgan-Voyce ladders, Fibonacci polynomials, Lehmer terms."""

import random

import pytest

from fpt.errors import ZeroResidue
from fpt.fmp import eval_fp
from fpt.morganvoyce import (
    f_m1,
    fib_poly,
    lehmer_U,
    mv_apparition,
    mv_poly,
    mv_three_term_check,
)
from fpt.gf import make_field
from fpt.numth import fib, primes_upto
from fpt.upoly import DensePoly


def test_f_m1_base_cases():
    assert f_m1(0).coeffs == ()
    assert f_m1(1).coeffs == (1,)
    assert f_m1(2).coeffs == (1,)
    assert f_m1(3).coeffs == (1, 1)
    assert f_m1(6).coeffs == (3, 4, 1)  # X^2 + 4X + 3


def test_mv_poly_closed_forms():
    assert mv_poly("b", 0).coeffs == (1,)
    assert mv_poly("b", 1).coeffs == (1, 1)
    assert mv_poly("b", 2).coeffs == (1, 3, 1)
    assert mv_poly("B", 1).coeffs == (2, 1)
    assert mv_poly("B", 2).coeffs == (3, 4, 1)
    with pytest.raises(ValueError):
        mv_poly("c", 1)


def test_mv_poly_equals_family_member():
    for k in range(51):
        assert mv_poly("b", k) == f_m1(2 * k + 1)
        assert mv_poly("B", k) == f_m1(2 * k + 2)


def test_three_term_recursion():
    for kind in ("b", "B"):
        for k in range(2, 12):
            assert mv_three_term_check(kind, k)
    assert mv_three_term_check("b", 10)
    assert mv_three_term_check("B", 10)


def test_fib_poly_values_and_parity():
    for m in range(30):
        f = fib_poly(m)
        assert f(1) == fib(m)
        # odd index: even polynomial; even index: odd polynomial
        for i, c in enumerate(f.coeffs):
            if c:
                assert i % 2 == (1 if m % 2 == 0 else 0)


def test_fib_poly_morgan_voyce_bridge():
    for k in range(11):
        b = mv_poly("b", k)
        B = mv_poly("B", k)
        f_odd = fib_poly(2 * k + 1)
        f_even = fib_poly(2 * k + 2)
        # f_(2k+1)(X) = b_k(X^2)
        spread = [0] * (2 * len(b.coeffs))
        for i, c in enumerate(b.coeffs):
            spread[2 * i] = c
        assert tuple(spread[: len(f_odd.coeffs)]) == f_odd.coeffs
        # f_(2k+2)(X) = X B_k(X^2)
        spread = [0] * (2 * len(B.coeffs) + 1)
        for i, c in enumerate(B.coeffs):
            spread[2 * i + 1] = c
        assert tuple(spread[: len(f_even.coeffs)]) == f_even.coeffs


def test_lehmer_values():
    assert lehmer_U(0, 5) == 0
    assert lehmer_U(1, 5) == 1
    assert lehmer_U(2, 5) == 1
    # Z = 1 gives plain Fibonacci numbers
    for n in range(25):
        assert lehmer_U(n, 1) == fib(n)
    # Morgan-Voyce values are the family at the integer point
    for Z in (2, 3, 5):
        for n in range(21):
            assert lehmer_U(n, Z) == f_m1(n)(Z)


def test_family_reduces_mod_p():
    # the integer family reduced mod p agrees with the prime-field family
    # on the multiplicative group (at z = 0 the gap power vanishes instead
    # of collapsing to 1, so the two families genuinely differ there)
    for p in (3, 5, 7, 11, 13, 19):
        for n in range(p + 2):
            dense = DensePoly.make(make_field(p, 1), f_m1(n).coeffs)
            for z in range(1, p):
                assert dense.eval_code(z) == eval_fp(n, p, z)
            if n >= 1:
                assert eval_fp(n, p, 0) == 1


def test_mv_apparition_examples():
    assert mv_apparition(1, 11, 1) == 10
    assert mv_apparition(16, 19, 16) == 6
    # lift independence
    assert mv_apparition(16, 19, 16 + 19) == 6
    assert mv_apparition(16, 19, 16 - 19) == 6
    with pytest.raises(ZeroResidue):
        mv_apparition(0, 7, 7)
    with pytest.raises(ValueError):
        mv_apparition(2, 7, 10)


def test_mv_apparition_matches_alpha():
    from fpt.appearance import alpha_zp

    for z in range(1, 19):
        assert mv_apparition(z, 19, z) == alpha_zp(z, 19).alpha
    rng = random.Random(13)
    for p in primes_upto(97):
        if p == 2:
            continue
        for _ in range(4):
            z = rng.randrange(1, p)
            lift = z + p * rng.randrange(-3, 4)
            assert mv_apparition(z, p, lift) == alpha_zp(z, p).alpha
