import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from psibench.arith import (MAX_POWER_BITS, adem_coefficient, add_into, band_cut, exact_quotient,
                            is_prime, lucas_binom, validate_prime)
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


# -- sparse {key: coefficient} helpers -----------------------------------------------

def test_add_into_deletes_a_cancelled_key_and_keeps_the_order():
    terms = {"a": 1, "b": 2, "c": 3}
    add_into(terms, [("b", 1), ("d", 4)], -2)
    assert terms == {"a": 1, "c": 3, "d": -8}
    assert list(terms) == ["a", "c", "d"]
    add_into(terms, [("a", -1), ("c", 1)])
    assert list(terms.items()) == [("c", 4), ("d", -8)]


def test_add_into_reduces_mod():
    terms = {"a": 4}
    add_into(terms, [("a", 5), ("b", 7)], 1, 5)
    assert list(terms.items()) == [("a", 4), ("b", 2)]
    add_into(terms, [("b", -3), ("a", 1)], 1, 5)  # a: 5 = 0 mod 5 leaves
    assert list(terms.items()) == [("b", 4)]
    add_into(terms, [("c", 3)], 4, 5)
    assert terms == {"b": 4, "c": 2}


def test_exact_quotient_divides_or_refuses():
    assert exact_quotient({"a": 6, "b": -9}, 3) == {"a": 2, "b": -3}
    assert exact_quotient({}, 7) == {}
    with pytest.raises(ArithmeticError, match=r"^coefficient 7 not divisible by 3$"):
        exact_quotient({"a": 6, "b": 7}, 3)


def test_band_cut_edges_divisions_and_rest():
    # p = 3, q = 2: bands start at 2q + 2i(p-1) = 4, 8, 12, 16; a key is its weight
    items = [(4, 81), (7, 162), (8, 27), (11, 54), (12, 9), (15, 18), (16, 5), (40, 7), (41, 1)]
    bands = band_cut(items, lambda m: m, 2, 3, 4, 2, less=[(40, 7), (17, 2)])
    # band i < n = 2 divided by 3^(2-i); bands 2 and 3 not divided; the last is
    # the rest less ``less``, whose cancelled key leaves
    assert bands == [{4: 9, 7: 18}, {8: 9, 11: 18}, {12: 9, 15: 18}, {16: 5, 41: 1, 17: -2}]
    assert list(bands[3]) == [16, 41, 17]
    # with n = count, as a ring splitting cuts, the last band is divided by p
    assert band_cut([(2, 4), (3, 8), (4, 2), (9, 6)], lambda m: m, 1, 2, 2, 2) == [
        {2: 1, 3: 2}, {4: 1, 9: 3}]
    assert band_cut([], lambda m: m, 1, 5, 2, 1) == [{}, {}]
    with pytest.raises(ArithmeticError, match="coefficient 3 not divisible by 9"):
        band_cut([(4, 9), (5, 3)], lambda m: m, 2, 3, 2, 2)
