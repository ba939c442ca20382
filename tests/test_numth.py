"""Integer helper sanity checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpt.appearance import alpha_divisor_bound, x_is_one
from fpt.errors import FptError
from fpt.gf import make_field
from fpt.numth import (
    factor_sieve,
    factorize,
    fib,
    fib_pair,
    has_order,
    is_prime,
    legendre,
    order_dividing,
    primes_upto,
    require_prime,
    sieve_factorize,
    sqrt_mod_p,
)

# the least strong pseudoprimes to the prime bases 2..37 and 2..41
# (Jaeschke, Math. Comp. 61, 1993)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_small():
    # 41 is both a trial divisor and a witness: a witness tested against
    # itself would fail the strong test
    assert [n for n in range(50) if is_prime(n)] == primes_upto(49)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert not is_prime(PSI_12)


def test_is_prime_refuses_what_it_cannot_prove():
    for n in (PSI_13, 2**89 - 1):  # a composite and a prime that both pass
        with pytest.raises(FptError, match="which proves nothing at or above psi_13$"):
            is_prime(n)
    assert not is_prime(PSI_13 + 2)  # 3 divides it: a composite answer is proven
    assert not is_prime(2**89 + 1)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(primes_upto(2000)), st.data())
def test_order_dividing_is_the_least_order(p, data):
    a = data.draw(st.integers(1, p - 1))
    brute = next(k for k in range(1, p) if pow(a, k, p) == 1)
    assert order_dividing(p - 1, lambda e: pow(a, e, p) == 1) == brute


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from(primes_upto(2000)), st.data())
def test_has_order_is_order_dividing_reaching_n_on_pair_powers(p, data):
    # X modulo X^2 + (z+2)X + 1 over F_p, z = -4 (order p) included, and
    # multiples of p - chi so that "no" answers get drawn too
    z = data.draw(st.integers(1, p - 1))
    n = alpha_divisor_bound(z, p) * data.draw(st.integers(1, 3))
    is_one = x_is_one(z, p)
    assert has_order(n, factorize(n), is_one) == (order_dividing(n, is_one) == n)


_FIELDS = ((2, 4), (2, 8), (3, 3), (3, 5), (5, 2), (7, 3), (13, 1), (19, 2), (2, 21))


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_has_order_is_order_dividing_reaching_n_on_field_elements(pm, data):
    F = make_field(*pm)
    a = data.draw(st.integers(1, F.q - 1))
    n = F.q - 1

    def is_one(e):
        return F.pow_code(a, e) == 1

    assert has_order(n, factorize(n), is_one) == (order_dividing(n, is_one) == n)


def test_factor_sieve_factors_multiply_back():
    n = 20000
    spf = factor_sieve(n)
    assert len(spf) == n + 1
    assert [k for k in range(2, n + 1) if spf[k] == k] == primes_upto(n)
    for k in range(1, n + 1):
        fac = sieve_factorize(spf, k)
        assert math.prod(f**e for f, e in fac.items()) == k
        assert fac == factorize(k) and list(fac) == sorted(fac)
    for tiny in (-3, 0, 1, 2, 3):
        assert list(factor_sieve(tiny)) == list(range(tiny + 1))
    assert list(factor_sieve(4)) == [0, 1, 2, 3, 2]


def test_require_prime_has_no_size_cap():
    for p in (2, 1048583, 2**31 - 1):
        require_prime(p)
    for n in (-3, 0, 1, 4, 2**32 + 1):
        with pytest.raises(FptError, match=rf"^{n} is not a prime$"):
            require_prime(n)


def test_primes_upto():
    assert primes_upto(19) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_upto(10**5)) == 9592


def test_factorize_and_divisors():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2971215073) == {2971215073: 1}  # prime
    n = 2**4 * 19 * 514229
    back = 1
    for p, e in factorize(n).items():
        back *= p**e
    assert back == n
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}


def test_legendre_and_sqrt():
    for p in (3, 7, 19, 97):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
            if a in squares:
                r = sqrt_mod_p(a, p)
                assert r * r % p == a


def test_fib_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fib(-2) == -1 and fib(-7) == 13 and fib(-10) == -55
    assert fib_pair(100)[0] == 354224848179261915075
    assert fib_pair(100, 1000)[0] == 75
    for n in range(-30, 31):
        assert fib(n) == fib(n - 1) + fib(n - 2)
