"""Integer helper sanity checks."""

import pytest

from fpt.errors import CompositeModulusBase
from fpt.numth import (
    divisors_sorted,
    factorize,
    fib,
    fib_pair,
    is_prime,
    legendre,
    primes_upto,
    require_prime,
    sqrt_mod_p,
)


def test_is_prime_small():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_require_prime_has_no_size_cap():
    for p in (2, 1048583, 2**31 - 1):
        require_prime(p)
    for n in (-3, 0, 1, 4, 2**32 + 1):
        with pytest.raises(CompositeModulusBase):
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
    assert divisors_sorted(12) == [1, 2, 3, 4, 6, 12]


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
