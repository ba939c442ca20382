"""Field construction and arithmetic tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpt import gf
from fpt.errors import (
    BudgetExceeded,
    CompositeModulusBase,
    DegreeZero,
    DivisionByZero,
    FieldMismatch,
    ZeroElement,
)


def test_make_field_moduli_deterministic():
    # frozen from an exhaustive ascending scan of monic irreducibles
    assert gf.make_field(3, 1).modulus == (0, 1)
    assert gf.make_field(3, 2).modulus == (1, 0, 1)
    assert gf.make_field(2, 4).modulus == (1, 1, 0, 0, 1)
    assert gf.make_field(2, 2).modulus == (1, 1, 1)
    assert gf.make_field(2, 5).modulus == (1, 0, 1, 0, 0, 1)
    assert gf.make_field(3, 3).modulus == (1, 2, 0, 1)
    assert gf.make_field(5, 2).modulus == (2, 0, 1)
    assert gf.make_field(7, 1).q == 7


def test_make_field_rejects_bad_input():
    with pytest.raises(CompositeModulusBase):
        gf.make_field(6, 2)
    with pytest.raises(CompositeModulusBase):
        gf.make_field(1, 1)
    with pytest.raises(DegreeZero):
        gf.make_field(3, 0)


def test_make_field_is_cached():
    assert gf.make_field(3, 2) is gf.make_field(3, 2)


def test_prime_field_arithmetic():
    F = gf.make_field(19, 1)
    two, ten = F.elem(2), F.elem(10)
    assert (two * ten).code == 1  # the inverse pair (2, 10)
    assert (F.one() / F.one()).code == 1
    assert (F.elem(7) + F.elem(15)).code == 3
    assert (-F.elem(4)).code == 15
    with pytest.raises(DivisionByZero):
        F.one() / F.zero()


def test_f9_multiplication_and_frobenius():
    # F_9 = F_3[X]/(X^2+1), i := class of X, so i*i = -1 = 2
    F = gf.make_field(3, 2)
    i = F.gen()
    assert (i * i).coeffs == [2, 0]
    # Frobenius: i^3 = i * i^2 = -i = 2i
    assert gf.frobenius(i).coeffs == [0, 2]
    assert gf.frobenius(i, 2) == i


def test_frobenius_fixes_prime_field():
    F = gf.make_field(5, 3)
    for c in range(5):
        x = F.elem(c)
        assert gf.frobenius(x) == x


def test_frobenius_order_divides_m():
    for (p, m) in [(2, 4), (3, 3), (5, 2)]:
        F = gf.make_field(p, m)
        for x in gf.enumerate_elements(F):
            assert gf.frobenius(x, m) == x


def test_frobenius_is_automorphism():
    rng = random.Random(7)
    for (p, m) in [(3, 4), (2, 6), (5, 3), (7, 2)]:
        F = gf.make_field(p, m)
        for _ in range(2500):
            x = F.from_code(rng.randrange(F.q))
            y = F.from_code(rng.randrange(F.q))
            assert gf.frobenius(x + y) == gf.frobenius(x) + gf.frobenius(y)
            assert gf.frobenius(x * y) == gf.frobenius(x) * gf.frobenius(y)


def test_mult_order_f19():
    F = gf.make_field(19, 1)
    assert gf.mult_order(F.elem(2)) == 18
    assert gf.mult_order(F.elem(8)) == 6
    assert gf.mult_order(F.one()) == 1
    with pytest.raises(ZeroElement):
        gf.mult_order(F.zero())


def test_mult_order_divides_group_order():
    for (p, m) in [(2, 6), (3, 3), (7, 2)]:
        F = gf.make_field(p, m)
        for x in gf.enumerate_elements(F):
            if x.is_zero():
                continue
            assert (F.q - 1) % gf.mult_order(x) == 0


def test_fermat_exhaustive_small_fields():
    for (p, m) in [(2, 5), (3, 4), (5, 2), (61, 1)]:
        F = gf.make_field(p, m)
        assert F.q <= 1 << 12
        for x in gf.enumerate_elements(F):
            if not x.is_zero():
                assert (x ** (F.q - 1)).code == 1


def test_enumerate_elements():
    F2 = gf.make_field(2, 1)
    assert [x.code for x in gf.enumerate_elements(F2)] == [0, 1]
    F9 = gf.make_field(3, 2)
    elems = list(gf.enumerate_elements(F9))
    assert len(elems) == 9
    assert len({x.code for x in elems}) == 9
    F729 = gf.make_field(3, 6)
    assert sum(1 for _ in gf.enumerate_elements(F729)) == 729
    with pytest.raises(BudgetExceeded):
        list(gf.enumerate_elements(F729, budget=100))


def test_subfield_criterion():
    # x in F_{p^d} iff Frobenius^d fixes x; subfield sizes must come out exact
    F = gf.make_field(2, 6)
    for d in (1, 2, 3, 6):
        members = [x for x in gf.enumerate_elements(F) if gf.subfield_membership(x, d)]
        assert len(members) == 2**d
    F81 = gf.make_field(3, 4)
    assert sum(1 for x in gf.enumerate_elements(F81) if gf.subfield_membership(x, 2)) == 9


def test_field_mismatch_raises():
    a = gf.make_field(3, 2).one()
    b = gf.make_field(3, 3).one()
    with pytest.raises(FieldMismatch):
        _ = a + b


def test_pow_arbitrary_precision_exponent():
    F = gf.make_field(3, 2)
    x = F.gen()
    e = 3**40 + 7
    assert x**e == x ** (e % (F.q - 1))


def test_field_axioms_randomized():
    rng = random.Random(11)
    F = gf.make_field(5, 3)
    for _ in range(300):
        a = F.from_code(rng.randrange(F.q))
        b = F.from_code(rng.randrange(F.q))
        c = F.from_code(rng.randrange(F.q))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        if not b.is_zero():
            assert (a / b) * b == a


def test_serialization_shapes():
    F = gf.make_field(3, 2)
    assert F.to_json() == {"p": 3, "m": 2, "modulus": [1, 0, 1]}
    assert F.elem([2, 1]).to_json() == [2, 1]


def test_arithmetic_only_field_beyond_table_limit():
    # fields above the table limit still do exact arithmetic (no tables)
    F = gf.make_field(2, 30)
    x = F.gen()
    y = x ** (2**20 + 3)
    assert gf.frobenius(y, 30) == y
    assert (y / y).code == 1
    assert (F.q - 1) % gf.mult_order(x) == 0


@settings(max_examples=25, deadline=None, database=None)
@given(st.sampled_from(
    [(3, 1), (5, 1), (7, 1), (101, 1), (2, 2), (2, 3), (2, 5), (2, 8),
     (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2)]
))
def test_generator_is_smallest_primitive_code(pm):
    F = gf.make_field(*pm)

    def order(c):
        k, x = 1, c
        while x != 1:
            x = F.mul_code(x, c)
            k += 1
        return k

    assert F.generator() == next(c for c in range(2, F.q) if order(c) == F.q - 1)
