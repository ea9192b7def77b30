import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psibench.arith import MAX_POWER_BITS, adem_coefficient, is_prime, lucas_binom, validate_prime
from splitting_calculus import fermat_quotient


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_validate_prime_rejects():
    with pytest.raises(ValueError):
        validate_prime(6)
    with pytest.raises(ValueError):
        validate_prime(1)


@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([2, 3, 5, 7]))
def test_lucas_matches_direct_binomial(n, k, p):
    assert lucas_binom(n, k, p) == math.comb(n, k) % p


def test_lucas_out_of_range():
    assert lucas_binom(3, 5, 2) == 0
    assert lucas_binom(-1, 0, 3) == 0
    assert lucas_binom(4, -2, 3) == 0
    # binom(p, 1) = 0 mod p
    for p in (2, 3, 5, 7):
        assert lucas_binom(p, 1, p) == 0


def test_adem_coefficient_p3_gives_two_p2():
    # the i=1, j=1 relation at p=3 rewrites P1P1 as 2*P2
    assert adem_coefficient(3, 1, 1, 0) == 2


def test_adem_coefficient_p2_branch():
    assert adem_coefficient(2, 1, 1, 0) == math.comb(1, 2) % 2 == 0
    assert adem_coefficient(2, 2, 3, 0) == math.comb(5, 4) % 2
    assert adem_coefficient(2, 2, 3, 1) == math.comb(3, 0) % 2


def test_adem_coefficient_oracle_odd():
    # direct evaluation of the closed form, without Lucas
    for p in (3, 5):
        for j in range(1, 4):
            for i in range(1, p * j):
                for t in range(i // p + 1):
                    direct = ((-1) ** (i + t)) * math.comb((p - 1) * (j - t) - 1, i - p * t) \
                        if 0 <= i - p * t <= (p - 1) * (j - t) - 1 else 0
                    assert adem_coefficient(p, i, j, t) == direct % p


def test_adem_coefficient_domain():
    with pytest.raises(ValueError):
        adem_coefficient(3, 3, 1, 0)  # i >= pj
    with pytest.raises(ValueError):
        adem_coefficient(3, 1, 1, 1)  # t > floor(i/p)
    with pytest.raises(ValueError):
        adem_coefficient(4, 1, 1, 0)  # not prime


# the scalar rule of the splitting calculus that the tests keep as an oracle


@given(st.integers(-50, 50), st.sampled_from([2, 3, 5, 7]))
def test_fermat_quotient_exact(c, p):
    q = fermat_quotient(c, p)
    assert p * q + c**p == c


def test_fermat_quotient_values():
    assert fermat_quotient(2, 3) == -2
    assert fermat_quotient(-3, 5) == 48
    assert fermat_quotient(1, 7) == 0


def test_fermat_quotient_refuses_a_power_beyond_the_bit_budget():
    p = 2**31 - 1
    # the units have trivial powers and always pass
    assert fermat_quotient(1, p) == fermat_quotient(-1, p) == 0
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        fermat_quotient(2, p)
    # the budget bounds p * bit_length(c), whatever the sign of c
    bits = MAX_POWER_BITS // 10007
    c = 2 ** (bits - 1)
    assert 10007 * fermat_quotient(c, 10007) + c**10007 == c
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        fermat_quotient(-(2**bits), 10007)
