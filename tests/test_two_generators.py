"""Mixed-generator coverage on the product of two truncated projective
lines: splittings of monomials in both variables, the two-variable binomial
oracle, and the full classifier."""

import math
import random

from psibench.atiyah import atiyah_decompose, random_element, verify_welldefined
from psibench.models import product_projective_spaces
from psibench.steenrod import (check_adem, check_cartan, classify, gr_class,
                               interesting_degrees, steenrod_P)
from psibench.verdicts import FAIL


def expected_class(A, a, b, i):
    """sum over l+k=i of binom(a,l) binom(b,k) t^(a+l(p-1)) u^(b+k(p-1))."""
    p = A.p
    t, u = A.ring.gen("t"), A.ring.gen("u")
    total = A.ring.zero(p)
    for l in range(i + 1):
        k = i - l
        coeff = (math.comb(a, l) * math.comb(b, k)) % p
        if coeff == 0:
            continue
        term = (t ** (a + l * (p - 1)) * u ** (b + k * (p - 1))).reduce_mod(p)
        total = total + term * coeff
    return total


def test_two_variable_binomial_oracle():
    for p, n, m in ((2, 3, 2), (3, 2, 2)):
        A = product_projective_spaces(p, n, m)
        t, u = A.ring.gen("t"), A.ring.gen("u")
        for a in range(0, n + 1):
            for b in range(0, m + 1):
                if a + b == 0:
                    continue
                e = t**a * u**b
                if not e:
                    continue
                degree = 2 * (a + b)
                cls = gr_class(A, e, degree)
                for i in range(a + b + 1):
                    target = degree + 2 * i * (p - 1)
                    if target > A.ring.max_weight:
                        continue
                    got = steenrod_P(A, i, cls)
                    assert got.rep == expected_class(A, a, b, i), (p, a, b, i)


def test_mixed_monomial_decompositions_exact():
    A = product_projective_spaces(3, 2, 3)
    t, u = A.ring.gen("t"), A.ring.gen("u")
    rng = random.Random(21)
    samples = [t * u, t**2 * u + u**2 * 3, t + u, t * u**3 - t**2 * u
               + A.ring.scalar(2)]
    for _ in range(15):
        e = random_element(A, rng, min_weight=0)
        if e:
            samples.append(e)
    for e in samples:
        qmax = int(e.weight() // 2)
        for q in {0, qmax // 2, qmax}:
            d = atiyah_decompose(A, e, q)
            assert d.problems() == [], (str(e), q)


def test_product_model_classifies_clean():
    for p in (2, 3):
        A = product_projective_spaces(p, 2, 2)
        result = classify(A, trials=3, seed=0)
        assert result.label == "psi-p-algebra", result.to_dict()


def test_cross_variable_cartan_and_adem():
    A = product_projective_spaces(3, 2, 2)
    assert check_cartan(A, 2, 4).status != FAIL
    for d in interesting_degrees(A, 2)[:4]:
        assert check_adem(A, d).status != FAIL


def test_welldefined_on_mixed_class():
    A = product_projective_spaces(3, 2, 2)
    e = A.ring.gen("t") * A.ring.gen("u")
    v = verify_welldefined(A, e, 2, trials=15, seed=8)
    assert v.witness is None, v.describe()
