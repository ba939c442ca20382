"""Field construction and arithmetic tests."""

import functools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpt import gf, upoly
from fpt.errors import BudgetExceeded, FptError
from fpt.numth import factorize, primes_upto
from fpt.upoly import DensePoly


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
    with pytest.raises(FptError, match=r"^6 is not a prime in \[2, 2\^20\]$"):
        gf.make_field(6, 2)
    with pytest.raises(FptError, match=r"^1 is not a prime in \[2, 2\^20\]$"):
        gf.make_field(1, 1)
    with pytest.raises(FptError, match="^extension degree 0 < 1$"):
        gf.make_field(3, 0)


def test_make_field_is_cached():
    assert gf.make_field(3, 2) is gf.make_field(3, 2)


def test_evicted_field_comes_back_equal():
    # the cache keeps the 64 fields last used: 65 builds of other fields
    # (the prime fields from 5 up) evict F_81
    gf.make_field.cache_clear()
    first = gf.make_field(3, 4)
    for p in primes_upto(400)[2:67]:
        gf.make_field(p, 1)
    again = gf.make_field(3, 4)
    assert again is not first
    assert again == first
    assert (again._exp, again._log) == (first._exp, first._log)


def test_prime_field_arithmetic():
    F = gf.make_field(19, 1)
    assert F.mul_code(2, 10) == 1  # the inverse pair (2, 10)
    assert F.inv_code(2) == 10 and F.inv_code(1) == 1
    assert F.add_code(7, 15) == 3
    assert F.sub_code(4, 7) == 16
    assert F.neg_code(4) == 15
    with pytest.raises(FptError, match="^inverse of zero$"):
        F.inv_code(0)


def test_f9_multiplication_and_frobenius():
    # F_9 = F_3[X]/(X^2+1), i := class of X, so i*i = -1 = 2
    F = gf.make_field(3, 2)
    i = F.p  # the code of X
    assert F.to_coeffs(F.mul_code(i, i)) == [2, 0]
    # Frobenius: i^3 = i * i^2 = -i = 2i
    assert F.to_coeffs(F.frob_code(i)) == [0, 2]
    assert F.frob_code(i, 2) == i


def test_frobenius_fixes_prime_field():
    F = gf.make_field(5, 3)
    for c in range(5):
        assert F.frob_code(c) == c


def test_frobenius_order_divides_m():
    for (p, m) in [(2, 4), (3, 3), (5, 2)]:
        F = gf.make_field(p, m)
        for x in F.codes():
            assert F.frob_code(x, m) == x


def test_frobenius_is_automorphism():
    rng = random.Random(7)
    for (p, m) in [(3, 4), (2, 6), (5, 3), (7, 2)]:
        F = gf.make_field(p, m)
        for _ in range(2500):
            x, y = rng.randrange(F.q), rng.randrange(F.q)
            assert F.frob_code(F.add_code(x, y)) == F.add_code(F.frob_code(x), F.frob_code(y))
            assert F.frob_code(F.mul_code(x, y)) == F.mul_code(F.frob_code(x), F.frob_code(y))


def test_mult_order_f19():
    F = gf.make_field(19, 1)
    assert F.order_code(2) == 18
    assert F.order_code(8) == 6
    assert F.order_code(1) == 1
    with pytest.raises(FptError, match="^multiplicative order of zero$"):
        F.order_code(0)


def test_mult_order_divides_group_order():
    for (p, m) in [(2, 6), (3, 3), (7, 2)]:
        F = gf.make_field(p, m)
        for x in range(1, F.q):
            assert (F.q - 1) % F.order_code(x) == 0


def test_fermat_exhaustive_small_fields():
    for (p, m) in [(2, 5), (3, 4), (5, 2), (61, 1)]:
        F = gf.make_field(p, m)
        assert F.q <= 1 << 12
        for x in range(1, F.q):
            assert F.pow_code(x, F.q - 1) == 1


def test_codes_enumerate_every_element():
    assert list(gf.make_field(2, 1).codes()) == [0, 1]
    for (p, m) in [(3, 2), (3, 6)]:
        F = gf.make_field(p, m)
        vectors = [F.to_coeffs(c) for c in F.codes()]
        assert len({tuple(v) for v in vectors}) == F.q
        assert [F.from_coeffs(v) for v in vectors] == list(F.codes())
    with pytest.raises(BudgetExceeded):
        gf.check_budget(3, 6, 100)


def test_check_budget_at_the_bound_and_beyond():
    gf.check_budget(3, 6, 729)
    gf.check_budget(2, 10, 1024)
    for p, m, budget in [(3, 6, 728), (2, 11, 2047), (2, 1, 0)]:
        with pytest.raises(BudgetExceeded):
            gf.check_budget(p, m, budget)
    # p^m is never formed or written out in decimal: the message gives
    # the order as a power, far past the digit limit of int-to-str
    with pytest.raises(BudgetExceeded, match=r"^field order 1048573\^1000000000 exceeds budget 1000000$"):
        gf.check_budget(1048573, 10**9, 10**6)
    with pytest.raises(BudgetExceeded, match=r"^field order 4099\^4100 "):
        gf.check_budget(4099, 4100, 10**6)


def test_subfield_criterion():
    # x in F_{p^d} iff Frobenius^d fixes x; subfield sizes must come out exact
    F = gf.make_field(2, 6)
    for d in (1, 2, 3, 6):
        members = [x for x in F.codes() if F.frob_code(x, d) == x]
        assert len(members) == 2**d
    F81 = gf.make_field(3, 4)
    assert sum(1 for x in F81.codes() if F81.frob_code(x, 2) == x) == 9


def test_pow_arbitrary_precision_exponent():
    F = gf.make_field(3, 2)
    x = F.p
    e = 3**40 + 7
    assert F.pow_code(x, e) == F.pow_code(x, e % (F.q - 1))
    assert F.pow_code(x, -e) == F.inv_code(F.pow_code(x, e))


def test_field_axioms_randomized():
    rng = random.Random(11)
    F = gf.make_field(5, 3)
    for _ in range(300):
        a, b, c = rng.randrange(F.q), rng.randrange(F.q), rng.randrange(F.q)
        assert F.mul_code(F.add_code(a, b), c) == F.add_code(F.mul_code(a, c), F.mul_code(b, c))
        assert F.mul_code(a, b) == F.mul_code(b, a)
        assert F.add_code(F.sub_code(a, b), b) == a
        assert F.add_code(a, F.neg_code(a)) == 0
        if b:
            assert F.mul_code(F.mul_code(a, F.inv_code(b)), b) == a


def test_serialization_shapes():
    F = gf.make_field(3, 2)
    assert F.to_json() == {"p": 3, "m": 2, "modulus": [1, 0, 1]}


def test_arithmetic_only_field_beyond_table_limit():
    # fields above the table limit still do exact arithmetic (no tables)
    F = gf.make_field(2, 30)
    assert F.q > gf.TABLE_LIMIT
    x = F.p
    y = F.pow_code(x, 2**20 + 3)
    assert F.frob_code(y, 30) == y
    assert F.mul_code(y, F.inv_code(y)) == 1
    assert (F.q - 1) % F.order_code(x) == 0


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


TWIN_FIELDS = [(2, 8), (2, 10), (3, 5), (3, 6), (5, 4), (7, 3)]


@functools.cache
def table_free_twin(p, m):
    """The table-backed make_field(p, m) and a descriptor of the same
    field, on the same modulus, built with no tables."""
    F = gf.make_field(p, m)
    with mock.patch.object(gf, "TABLE_LIMIT", 0):
        G = gf.FieldDesc(p, m, F.modulus)
    assert F._exp is not None and G._exp is None
    return F, G


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(TWIN_FIELDS),
    st.integers(min_value=0, max_value=7**3 * 3**6),
    st.integers(min_value=0, max_value=7**3 * 3**6),
    st.one_of(st.integers(-1000, 1000), st.integers(-(10**60), 10**60)),
)
@example((2, 10), 0, 5, 0)
@example((3, 6), 3, 1, 3**40 + 7)
@example((5, 4), 2, 1, -(5**50))
def test_table_and_table_free_arithmetic_agree(pm, a, b, e):
    F, G = table_free_twin(*pm)
    a %= F.q
    b %= F.q
    assert F.mul_code(a, b) == G.mul_code(a, b)
    if a == 0:
        assert F.pow_code(a, abs(e)) == G.pow_code(a, abs(e))
        return
    assert F.inv_code(a) == G.inv_code(a)
    assert F.pow_code(a, e) == G.pow_code(a, e)
    assert F.order_code(a) == G.order_code(a)


NP_TABLE_FIELDS = [(2, 5), (2, 14), (3, 7), (3, 9), (5, 6), (7, 4), (13, 3), (251, 2)]


def tables_by_route(p, m, modulus, numpy_route):
    threshold = 0 if numpy_route else gf.TABLE_LIMIT + 1
    with mock.patch.object(gf, "_NP_TABLE_MIN_Q", threshold):
        return gf.FieldDesc(p, m, modulus)


@pytest.mark.parametrize("pm", NP_TABLE_FIELDS)
def test_numpy_and_loop_tables_agree(pm):
    p, m = pm
    F = gf.make_field(p, m)
    A = tables_by_route(p, m, F.modulus, numpy_route=True)
    B = tables_by_route(p, m, F.modulus, numpy_route=False)
    assert A._exp == B._exp
    assert A._log == B._log
    assert {type(c) for c in A._exp + A._log} == {int}


def test_numpy_tables_cover_a_partial_last_block():
    # the numpy build steps in blocks of s powers, s the least power of
    # two with s^2 >= q - 1; the fields above include both sides of the
    # threshold and a q - 1 that s does not divide
    qs = [p**m for p, m in NP_TABLE_FIELDS]
    assert min(qs) < gf._NP_TABLE_MIN_Q <= max(qs)
    assert {p for p, _ in NP_TABLE_FIELDS} > {2}
    block = {q: next(1 << k for k in range(q.bit_length()) if (1 << k) ** 2 >= q - 1) for q in qs}
    assert any((q - 1) % s for q, s in block.items() if q % 2)


@pytest.mark.parametrize("pm", [(2, 14), (3, 7)])
@pytest.mark.parametrize("numpy_route", [True, False])
def test_tables_refuse_a_generator_of_smaller_order(pm, numpy_route):
    # q - 1 = 3 * 43 * 127 and 2 * 1093: the square or cube of a generator
    # has smaller order, and stepping by it cannot cover the group
    p, m = pm
    F = gf.make_field(p, m)
    g = F.pow_code(F.generator(), 3 if p == 2 else 2)
    with mock.patch.object(gf.FieldDesc, "generator", lambda self: g):
        with pytest.raises(AssertionError, match="did not cover the group"):
            tables_by_route(p, m, F.modulus, numpy_route)


def test_binomial_skip_rule_is_exact():
    # make_field's scan skips the p binomials X^m + c exactly when none of
    # them is irreducible; gcd(m, p - 1) = 1 is one such case, where
    # c -> c^m permutes F_p and each binomial has a root
    for p in primes_upto(60):
        prime = gf.make_field(p, 1)
        for m in range(2, 13):
            skipped = any((p - 1) % r for r in factorize(m)) or (m % 4 == 0 and p % 4 == 3)
            binomials = (DensePoly(prime, (c,) + (0,) * (m - 1) + (1,)) for c in range(p))
            assert skipped == (not any(upoly.is_irreducible(f) for f in binomials))


def scanned(p, m):
    """An uncached make_field(p, m) and the candidates its scan tested."""
    tested = []
    is_irreducible = upoly.is_irreducible

    def counted(f):
        tested.append(f.coeffs)
        return is_irreducible(f)

    with mock.patch.object(upoly, "is_irreducible", counted):
        return gf.make_field.__wrapped__(p, m), tested


def test_modulus_scan_skips_reducible_binomials():
    F, tested = scanned(1048573, 5)  # gcd(5, 1048572) = 1
    assert tested[-1] == F.modulus and len(F.modulus) == 6
    assert all(any(c[1:-1]) for c in tested)
    assert upoly.is_irreducible(DensePoly(gf.make_field(1048573, 1), F.modulus))
    F, tested = scanned(2, 4)  # the scan starts at candidate p, X^4 + X
    assert tested == [(0, 1, 0, 0, 1), (1, 1, 0, 0, 1)] and F.modulus == (1, 1, 0, 0, 1)
    F, tested = scanned(3, 6)  # gcd(6, 2) = 2, but 3 does not divide 2: no binomial is tested
    assert all(any(c[1:-1]) for c in tested) and tested[-1] == F.modulus
    F, tested = scanned(7, 4)  # 2 divides 6, but 7 = 3 mod 4: no binomial is tested
    assert all(any(c[1:-1]) for c in tested) and tested[-1] == F.modulus
    F, tested = scanned(3, 2)  # 2 divides 2: the binomials X^2 and X^2 + 1 are tested
    assert tested == [(0, 0, 1), (1, 0, 1)] and F.modulus == (1, 0, 1)
