"""Polynomial family construction and property tests."""

import pytest

from fpt.errors import FptError
from fpt.fmp import (
    build_recursive,
    build_zigzag,
    degree_formula,
    eval_fp,
    gcd_check,
    neg_base_digits,
    support_size,
    theta,
)
from fpt.numth import fib


def test_theta_values():
    assert theta(0, 7) == 1
    assert theta(3, 3) == 27 - 9 + 3 - 1
    assert theta(1, 5) == 4
    # at base 1 the alternating sum collapses to 1 or 0 by parity
    for k in range(6):
        assert theta(2 * k, 1) == 1
        assert theta(2 * k + 1, 1) == 0
    # recursion theta(r) = p*theta(r-1) + (-1)^r
    for p in (2, 3, 5):
        for r in range(1, 12):
            assert theta(r, p) == p * theta(r - 1, p) + (-1) ** r


def test_low_index_members():
    for p in (2, 3, 5, 7):
        assert build_recursive(0, p).support == frozenset()
        assert build_recursive(1, p).support == {0}
        assert build_recursive(2, p).support == {0}
        assert build_recursive(3, p).support == {0, 1}
        assert build_recursive(4, p).support == {0, p - 1, p}


def test_member_5_display():
    # exponents {p^2+1, p^2, p^2-p+1, 1, 0}
    p = 2
    assert build_recursive(5, p).support == {5, 4, 3, 1, 0}
    p = 7
    assert build_recursive(5, p).support == {50, 49, 43, 1, 0}


def test_member_6_display_at_p3():
    assert build_recursive(6, 3).support == {30, 29, 27, 21, 20, 3, 2, 0}


def test_member_7_display():
    # 13 exponents; closed-form display specialized at p=2
    p = 2
    p4, p3, p2 = p**4, p**3, p**2
    expected = {
        p4 + p2 + 1, p4 + p2, p4 + p2 - p + 1, p4 + 1, p4,
        p4 - p3 + p2 + 1, p4 - p3 + p2, p4 - p3 + p2 - p + 1,
        p2 + 1, p2, p2 - p + 1, 1, 0,
    }
    assert build_recursive(7, p).support == expected
    assert len(expected) == fib(7)


def test_recursive_equals_zigzag():
    for p in (2, 3, 5, 7):
        cache = {}
        build_recursive(20, p, cache)
        for m in range(2, 21):
            assert cache[m].support == build_zigzag(m, p).support


def test_term_count_is_fibonacci():
    for p in (2, 3, 5, 7, 11):
        cache = {}
        build_recursive(22, p, cache)
        for m in range(23):
            assert cache[m].term_count() == fib(m)
            assert support_size(m, p) == fib(m)
    # counting route extends beyond materialization comfortably
    for p in (2, 3, 5, 7, 11):
        for m in (30, 35, 40):
            assert support_size(m, p) == fib(m)


def test_degree_formula_matches_support():
    assert degree_formula(3, 7) == 1
    assert degree_formula(6, 3) == 30
    assert degree_formula(5, 2) == 5
    assert degree_formula(2, 11) == 0
    for p in (2, 3, 5):
        cache = {}
        build_recursive(14, p, cache)
        for m in range(2, 15):
            assert cache[m].degree == degree_formula(m, p)


def test_support_nesting():
    for p in (2, 3, 5):
        cache = {}
        build_recursive(18, p, cache)
        for m in range(2, 17):
            assert cache[m].support <= cache[m + 2].support
    for p in (2, 3, 5, 7, 11):
        cache = {}
        build_recursive(30, p, cache)
        for m in range(2, 29):
            assert cache[m].support <= cache[m + 2].support


def test_neg_base_digit_property():
    # odd m: digits of each exponent in base -p are 0/1;
    # even m: digits of the negated exponent are 0/1
    for p in (2, 3, 5, 7):
        cache = {}
        build_recursive(16, p, cache)
        for m in range(2, 17):
            for e in cache[m].support:
                target = e if m % 2 == 1 else -e
                assert set(neg_base_digits(target, p)) <= {0, 1}


def test_neg_base_digits_reconstruct():
    for p in (2, 3, 5):
        for n in range(-300, 300):
            ds = neg_base_digits(n, p)
            acc = 0
            for d in reversed(ds):
                acc = acc * (-p) + d
            assert acc == n
            assert all(0 <= d < p for d in ds)


def test_eval_fp_examples():
    for p in (3, 5, 7, 11, 13):
        assert eval_fp(3, p, p - 1) == 0          # z = -1
        assert eval_fp(p, p, (-4) % p) == 0       # z = -4 vanishes at index p
    # value at 1 is the Fibonacci number mod p
    for p in (3, 5, 7, 11):
        for m in range(25):
            assert eval_fp(m, p, 1) == fib(m) % p


def test_eval_fp_matches_dense_evaluation():
    for p in (2, 3, 5):
        cache = {}
        build_recursive(9, p, cache)
        for m in range(2, 10):
            dense = cache[m].to_dense()
            for z in range(p):
                assert eval_fp(m, p, z) == dense.eval_code(z)


def test_eval_fp_rejects_non_residue():
    with pytest.raises(FptError, match=r"^9 is not a residue mod 7$"):
        eval_fp(5, 7, 9)
    with pytest.raises(FptError, match=r"^-1 is not a residue mod 7$"):
        eval_fp(5, 7, -1)


def test_gcd_check():
    assert gcd_check(6, 6, 3)
    assert gcd_check(6, 4, 2)   # gcd member is the constant 1
    assert gcd_check(6, 9, 3)   # gcd member is X+1
    for p in (2, 3):
        for m in range(2, 10):
            for n in range(2, 10):
                assert gcd_check(m, n, p)


def test_serialization():
    s = build_recursive(6, 3)
    js = s.to_json()
    assert js["p"] == 3 and js["m"] == 6
    assert js["support"] == ["0", "2", "3", "20", "21", "27", "29", "30"]


def test_member_7_display_at_p3():
    p = 3
    p4, p3_, p2 = 81, 27, 9
    expected = {
        p4 + p2 + 1, p4 + p2, p4 + p2 - p + 1, p4 + 1, p4,
        p4 - p3_ + p2 + 1, p4 - p3_ + p2, p4 - p3_ + p2 - p + 1,
        p2 + 1, p2, p2 - p + 1, 1, 0,
    }
    assert build_recursive(7, p).support == expected


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9])
def test_family_refuses_a_characteristic_that_is_not_prime(p):
    for build in (build_recursive, build_zigzag, support_size, degree_formula):
        with pytest.raises(FptError, match=rf"^{p} is not a prime$"):
            build(12, p)


def test_family_answers_primes_above_two_to_the_twenty():
    p = 1048583
    assert support_size(8, p) == len(build_recursive(8, p).support) == fib(8)
