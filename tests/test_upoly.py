"""Polynomial arithmetic and factorization tests."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpt import upoly
from fpt.errors import FptError
from fpt.gf import make_field
from fpt.upoly import (
    DegreeMultiset,
    DensePoly,
    IntPoly,
    distinct_degree_factor,
    equal_degree_split,
    is_irreducible,
    poly_gcd,
    poly_powmod,
    squarefree_decomposition,
)


def gamma_poly(z: int, p: int) -> DensePoly:
    # X^(p+1) + (1+z) X^p + X + 1
    field = make_field(p, 1)
    cs = [0] * (p + 2)
    cs[0] = 1
    cs[1] = 1
    cs[p] = (1 + z) % p
    cs[p + 1] = 1
    return DensePoly.make(field, cs)


def x_q_minus_x(field) -> DensePoly:
    cs = [0] * (field.q + 1)
    cs[1] = -1 % field.p
    cs[field.q] = 1
    return DensePoly.make(field, cs)


def test_gcd_with_zero_is_monic():
    F = make_field(5, 1)
    f = DensePoly.make(F, [1, 2, 3])
    assert poly_gcd(f, DensePoly.zero(F)) == f.monic()
    assert poly_gcd(DensePoly.zero(F), f) == f.monic()


def test_gcd_gamma5_f19():
    F = make_field(19, 1)
    g = poly_gcd(gamma_poly(5, 19), x_q_minus_x(F))
    # z^2+4z = 45 = 7 is a residue mod 19, gcd = X^2 + (z+2)X + 1
    assert list(g.coeffs) == [1, 7, 1]


def test_gcd_coprime_over_f3():
    F = make_field(3, 1)
    f = DensePoly.make(F, [1, 0, 1])  # X^2+1, irreducible over F_3
    g = x_q_minus_x(F) * DensePoly.one(F)
    assert poly_gcd(f, g).degree == 0


def test_gcd_properties_randomized():
    rng = random.Random(3)
    for p in (2, 3, 5, 19):
        F = make_field(p, 1)
        for _ in range(40):
            f = DensePoly.make(F, [rng.randrange(p) for _ in range(rng.randrange(1, 50))])
            g = DensePoly.make(F, [rng.randrange(p) for _ in range(rng.randrange(1, 50))])
            h = DensePoly.make(F, [rng.randrange(p) for _ in range(rng.randrange(1, 8))])
            d = poly_gcd(f, g)
            if not f.is_zero() and not g.is_zero():
                assert (f % d).is_zero() and (g % d).is_zero()
            # any common divisor divides the gcd
            fh, gh = f * h, g * h
            dh = poly_gcd(fh, gh)
            if not h.is_zero():
                assert (dh % h.monic()).is_zero()


def test_powmod_frobenius_orbit_closure():
    # X^(p^m) == X mod any irreducible of degree m
    for (p, m) in [(2, 4), (3, 3), (5, 2)]:
        Fext = make_field(p, m)
        F = make_field(p, 1)
        mod = DensePoly.make(F, list(Fext.modulus))
        h = DensePoly.x(F)
        for _ in range(m):
            h = poly_powmod(h, p, mod)
        assert h == DensePoly.x(F)


def test_powmod_identity_exponent():
    F = make_field(7, 1)
    mod = DensePoly.make(F, [3, 1, 1])
    f = DensePoly.make(F, [2, 5, 1, 6])
    assert poly_powmod(f, 1, mod) == f % mod


def test_powmod_rejects_constant_modulus():
    F = make_field(5, 1)
    with pytest.raises(FptError, match="^powmod modulus must be nonconstant$"):
        poly_powmod(DensePoly.x(F), 2, DensePoly.one(F))


def test_powmod_x_p_not_fixed_by_gamma_bar_5():
    # gamma_5 over F_19 with the quadratic factor removed has no linear
    # factor, so X^p != X modulo it
    F = make_field(19, 1)
    quot, rem = divmod(gamma_poly(5, 19), DensePoly.make(F, [1, 7, 1]))
    assert rem.is_zero()
    assert poly_powmod(DensePoly.x(F), 19, quot) != DensePoly.x(F)


def _square_multiply(ctx, h, e):
    # the route the Frobenius matrix replaces, built from ctx.mulmod alone
    result, base = [1], ctx.reduce(list(h))
    while e:
        if e & 1:
            result = ctx.mulmod(result, base)
        base = ctx.mulmod(base, base)
        e >>= 1
    return result


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5, 31, 251, 1048573)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(1, 80).flatmap(lambda n: st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
    st.integers(1, p - 1) | st.just(1),
    st.lists(st.lists(st.integers(0, p - 1), max_size=200), min_size=2, max_size=4),
)))
@example((5, [3], 2, [[1, 2, 3], [4]]))  # a linear modulus: Q is 1 x 1
@example((5, [3] + [0] * 10, 2, [[1, 2, 3], [4]]))  # n = 11, p = 5: no Q
@example((251, [3] + [0] * 10, 2, [[1, 2, 3], [4]]))  # n = 11, p = 251: Q in pure Python
@example((5, [3] + [0] * 11, 2, [[1, 2, 3], [4]]))  # n = 12: the smallest numpy Q
def test_frobenius_matrix_matches_square_and_multiply(case):
    p, low, lead, hs = case
    ctx = upoly._ModCtx(make_field(p, 1), low + [lead])
    # in pure Python Q's n - 2 new rows must cost fewer products than the
    # bit_length + bit_count - 2 of one square-and-multiply chain for p
    builds_q = ctx.rows is not None or ctx.n < p.bit_length() + p.bit_count()
    for i, h in enumerate(map(upoly._trim, hs)):
        assert ctx.powmod(h, p) == _square_multiply(ctx, h, p)
        assert (ctx.frob is None) == (i == 0 or not builds_q)
    assert ctx.powmod([0, 1], 2 * p) == _square_multiply(ctx, [0, 1], 2 * p)


def _ctx_answers(ctx, hs, exponents):
    residues = [ctx.reduce(h) for h in hs]
    return (
        residues,
        [ctx.mulmod(a, b) for a in residues for b in residues],
        [ctx.powmod(h, e) for h in hs for e in exponents],
    )


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5, 31, 251, 1048573)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(1, 11).flatmap(lambda n: st.lists(st.integers(0, p - 1), min_size=n, max_size=n)),
    st.integers(1, p - 1),
    st.lists(st.lists(st.integers(0, p - 1), max_size=30), min_size=2, max_size=4),
    st.integers(0, 10**6),
)))
@example((5, [3], 2, [[1, 2, 3], [4]], 7))  # a linear modulus
def test_small_context_matches_the_numpy_route(case):
    # below the product threshold a context is pure Python; patching the
    # threshold to 0 puts the same modulus on the numpy rows and Q.  X
    # comes first, as in the distinct-degree loop, whose first p-th power
    # is the X^p that Q is built from
    p, low, lead, hs, e = case
    field, mod = make_field(p, 1), low + [lead]
    hs = [[0, 1]] + [upoly._trim(h) for h in hs]
    exponents = (p, 2 * p, e)
    small = upoly._ModCtx(field, mod)
    expected = _ctx_answers(small, hs, exponents)
    assert small.rows is None
    with mock.patch.object(upoly, "_NP_MUL_THRESHOLD", 0):
        numpy_route = upoly._ModCtx(field, mod)
        assert _ctx_answers(numpy_route, hs, exponents) == expected
    assert numpy_route.frob is not None


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from((2, 3, 31, 251, 1048573)).flatmap(lambda p: st.tuples(
    st.just(p),
    st.lists(st.integers(0, p - 1), max_size=240),
    st.lists(st.integers(0, p - 1), max_size=120),
    st.integers(1, p - 1),
)))
def test_np_divmod_matches_the_python_loop(case):
    # divisors of 1 to 121 coefficients fall on both sides of _NP_MOD_THRESHOLD
    p, a, b_low, lead = case
    field = make_field(p, 1)
    b = b_low + [lead]
    with mock.patch.object(upoly, "_NP_MOD_THRESHOLD", 10**9):
        q, r = upoly._raw_divmod(field, a, b)
    if len(a) >= len(b):
        assert upoly._np_divmod(p, a, b) == (q, r)
    assert len(r) < len(b)
    assert upoly._raw_add(field, upoly._raw_mul(field, q, b), r) == upoly._trim(list(a))


def test_ddf_gamma_examples_f19():
    assert distinct_degree_factor(gamma_poly(5, 19)) == DegreeMultiset.from_dict(
        {1: 2, 18: 1}
    )
    assert distinct_degree_factor(gamma_poly(16, 19)) == DegreeMultiset.from_dict(
        {1: 2, 6: 3}
    )


def test_ddf_gamma0_full_multiplicity():
    # gamma_0 = (X+1)^(p+1): squarefree machinery must survive the
    # vanishing-derivative branch
    for p in (2, 3, 5, 7, 19):
        assert distinct_degree_factor(gamma_poly(0, p)) == DegreeMultiset.from_dict(
            {1: p + 1}
        )


def test_squarefree_decomposition_explicit():
    F = make_field(3, 1)
    x = DensePoly.x(F)
    one = DensePoly.one(F)
    f = (x + one) * (x + one) * x * (x - one) * (x - one) * (x - one)
    parts = squarefree_decomposition(f)
    as_set = {(tuple(g.coeffs), e) for g, e in parts}
    assert as_set == {((0, 1), 1), ((1, 1), 2), ((2, 1), 3)}


def test_ddf_degree_sum_randomized():
    rng = random.Random(17)
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 19))
        F = make_field(p, 1)
        cs = [rng.randrange(p) for _ in range(rng.randrange(2, 24))]
        cs.append(1)
        f = DensePoly.make(F, cs)
        ms = distinct_degree_factor(f)
        assert ms.total_degree == f.degree


def _assert_ddf_rebuilds_squarefree_parts(f):
    for part, _ in squarefree_decomposition(f):
        prod = DensePoly.one(f.field)
        for d, w in upoly._ddf_squarefree(part):
            assert w.degree % d == 0
            prod = prod * w
        assert prod == part


def test_ddf_reconstruction_of_squarefree_part():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice((3, 5, 19))
        F = make_field(p, 1)
        cs = [rng.randrange(p) for _ in range(rng.randrange(3, 20))]
        cs.append(1)
        _assert_ddf_rebuilds_squarefree_parts(DensePoly.make(F, cs))


def test_ddf_reconstruction_over_f251():
    # degrees 60-120 put the gcd divisors on the numpy path and Q at n > 48
    rng = random.Random(251)
    F = make_field(251, 1)
    for _ in range(6):
        cs = [rng.randrange(251) for _ in range(rng.randrange(60, 121))] + [1]
        _assert_ddf_rebuilds_squarefree_parts(DensePoly.make(F, cs))


def test_is_irreducible_agrees_with_ddf():
    rng = random.Random(5)
    for _ in range(120):
        p = rng.choice((2, 3, 7))
        F = make_field(p, 1)
        cs = [rng.randrange(p) for _ in range(rng.randrange(2, 14))]
        cs.append(1)
        f = DensePoly.make(F, cs)
        expected = distinct_degree_factor(f) == DegreeMultiset.from_dict({f.degree: 1})
        assert is_irreducible(f) == expected


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
))
def test_is_irreducible_matches_trial_division(case):
    p, low = case
    F = make_field(p, 1)
    f = DensePoly.make(F, low + [1])
    n = f.degree
    has_factor = any(
        (f % DensePoly.make(F, list(tail) + [1])).is_zero()
        for d in range(1, n // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )
    assert is_irreducible(f) == (not has_factor)


def test_is_irreducible_examples():
    F3 = make_field(3, 1)
    assert is_irreducible(DensePoly.make(F3, [1, 0, 1]))  # X^2+1
    for p in (3, 5, 7):
        F = make_field(p, 1)
        assert not is_irreducible(DensePoly.make(F, [-1, 0, 1]))  # X^2-1
    # not squarefree: g^2, and g*h with deg g = deg h = n/2
    for p in (2, 3, 5):
        F = make_field(p, 1)
        g = DensePoly.make(F, make_field(p, 3).modulus)
        h = DensePoly.make(F, g.coeffs[::-1]).monic()  # reciprocal of g
        assert g != h and is_irreducible(h)
        assert not is_irreducible(g * g)
        assert not is_irreducible(g * h)
    with pytest.raises(FptError, match="^constants are neither irreducible nor reducible here$"):
        is_irreducible(DensePoly.one(F3))


def test_is_irreducible_stops_at_the_first_shared_factor(monkeypatch):
    # a root already shows in gcd(X^p - X, f), so one p-th power decides
    steps = []
    powmod = upoly._ModCtx.powmod
    monkeypatch.setattr(upoly._ModCtx, "powmod", lambda self, a, e: steps.append(e) or powmod(self, a, e))
    rng = random.Random(31)
    F = make_field(31, 1)
    f = DensePoly.make(F, [-5, 1]) * DensePoly.make(F, [rng.randrange(31) for _ in range(29)] + [1])
    assert not is_irreducible(f)
    assert steps == [31]


def test_densepoly_refuses_extension_fields():
    F4 = make_field(2, 2)
    with pytest.raises(FptError, match="^polynomials are over prime fields only, not "):
        DensePoly(F4, (2, 1, 1))
    with pytest.raises(FptError, match="^polynomials are over prime fields only, not "):
        DensePoly.make(F4, [0, 1, 0, 0, 1])


def test_equal_degree_split():
    F = make_field(19, 1)
    quot, rem = divmod(gamma_poly(16, 19), DensePoly.make(F, [1, 16 + 2, 1]))
    assert rem.is_zero()
    factors = equal_degree_split(quot, 6, seed=1)
    assert len(factors) == 3
    prod = DensePoly.one(F)
    for f in factors:
        assert f.degree == 6 and is_irreducible(f)
        prod = prod * f
    assert prod == quot.monic()
    # same seed, same answer
    assert factors == equal_degree_split(quot, 6, seed=1)


def test_field_mismatch():
    f = DensePoly.x(make_field(3, 1))
    g = DensePoly.x(make_field(5, 1))
    with pytest.raises(FptError, match="^polynomials over different fields$"):
        _ = f * g


def test_int_poly_ops():
    zero = IntPoly(())
    assert zero(12345) == 0
    b1 = IntPoly.make([1, 1])
    assert b1(1) == 2
    B2 = IntPoly.make([3, 4, 1])
    assert B2(1) == 8  # Fib(6)
    assert (b1 * B2).coeffs == (3, 7, 5, 1)
    assert (b1 + B2).coeffs == (4, 5, 1)
    assert IntPoly.make([0, 0, 1])(10**30) == 10**60


def test_densepoly_make_reduces_integer_coefficients():
    f = IntPoly.make([10, -3, 7])
    g = DensePoly.make(make_field(7, 1), f.coeffs)
    assert list(g.coeffs) == [3, 4]
    assert g.field.p == 7


def test_serialization():
    assert DegreeMultiset.from_dict({18: 1, 1: 2}).to_json() == {"1": 2, "18": 1}
    F = make_field(3, 1)
    assert DensePoly.make(F, [1, 0, 2]).to_json() == [1, 0, 2]
    assert IntPoly.make([2, 10**40]).to_json() == ["2", str(10**40)]
