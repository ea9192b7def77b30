import random

import pytest

import psibench.atiyah as atiyah
from psibench.atiyah import (atiyah_decompose, explicit_lift_decomposition,
                             graded_classes_agree, random_element,
                             verify_welldefined)
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             product_projective_spaces, projective_space_ring)
from psibench.verdicts import PASS
from splitting_calculus import calculus_decompose


def test_identical_lifts_pass():
    A = dual_numbers_ring(3, 2)
    e = A.ring.gen("e")
    v = verify_welldefined(A, e, 2, trials=5, seed=0)
    assert v.status == PASS and v.witness is None


def test_dual_numbers_welldefined_any_k():
    for p in (2, 3, 5):
        for k in (1, 2, p + 1):
            A = dual_numbers_ring(p, k)
            v = verify_welldefined(A, A.ring.gen("e"), 2, trials=20, seed=3)
            assert v.status == PASS, v.describe()


def test_explicit_lift_matches_engine():
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    dr = atiyah_decompose(A, x, 2)
    rng = random.Random(4)
    for _ in range(10):
        h = random_element(A, rng, min_weight=4)
        f = random_element(A, rng, min_weight=6)
        s = x + h * 3 + f
        dx = explicit_lift_decomposition(A, x, dr, h, f)
        assert dx.weighted_sum() == A.apply_psi(s)
        ds = atiyah_decompose(A, s, 2)
        calculus = calculus_decompose(A, s, 2)
        for i in range(3):
            w = 4 + 4 * i
            agree = graded_classes_agree(A, dx.layers[i], ds.layers[i], w)
            assert agree is True
            assert graded_classes_agree(A, calculus.layers[i], ds.layers[i], w) is True
        # and both agree with the original element's layer classes
        for i in range(3):
            w = 4 + 4 * i
            assert graded_classes_agree(A, dr.layers[i], ds.layers[i], w) is True


def test_explicit_lift_specific_perturbation():
    # s = x + p*x: layer classes agree with those of x (weight-8 component of
    # the middle layer vanishes even though the raw layer does not)
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    d1 = atiyah_decompose(A, x, 2)
    d2 = atiyah_decompose(A, x * 4, 2)
    calculus = calculus_decompose(A, x, 2)
    for i in range(3):
        w = 4 + 4 * i
        assert graded_classes_agree(A, d1.layers[i], d2.layers[i], w) is True
        assert graded_classes_agree(A, calculus.layers[i], d2.layers[i], w) is True


@pytest.mark.parametrize("make, generator, q", [
    (lambda: adem_failure_ring(3), "x", 2),
    (lambda: adem_failure_ring(5, D=8), "x", 4),
    (lambda: projective_space_ring(3, 5), "t", 1),
    (lambda: projective_space_ring(2, 6), "t", 1),
    (lambda: dual_numbers_ring(5, 2), "e", 2),
    (lambda: product_projective_spaces(3, 2, 2), "u", 1),
], ids=["adem-p3", "adem-p5", "projective-p3", "projective-p2", "dual-p5", "product-p3"])
def test_explicit_lift_from_the_calculus_has_the_band_classes(make, generator, q, monkeypatch):
    """The explicit construction built wholly from the calculus's splittings
    of e, h and f (tests/splitting_calculus.py) has the layer classes of the
    band splitting of s = e + p*h + f, in every weight the window decides."""
    A = make()
    engine, p, top = atiyah.atiyah_decompose, A.p, A.ring.top_weight()
    monkeypatch.setattr(atiyah, "atiyah_decompose", calculus_decompose)
    e = A.ring.gen(generator)
    dr = calculus_decompose(A, e, q)
    rng, compared = random.Random(generator + str(p)), 0
    for _ in range(10):
        h = random_element(A, rng, min_weight=2 * q)
        f = random_element(A, rng, min_weight=2 * q + 2)
        s = e + h * p + f
        dx = explicit_lift_decomposition(A, e, dr, h, f)
        assert dx.weighted_sum() == A.apply_psi(s)
        ds = engine(A, s, q)
        for i in range(q + 1):
            w = 2 * q + 2 * i * (p - 1)
            if w <= top:
                assert graded_classes_agree(A, dx.layer(i), ds.layer(i), w) is True, (str(s), i)
                compared += 1
    assert compared >= 10


def test_explicit_lift_requires_positive_level():
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    d0 = atiyah_decompose(A, x, 0)
    with pytest.raises(ValueError):
        explicit_lift_decomposition(A, x, d0, A.ring.zero(), A.ring.zero())


def test_explicit_lift_weight_preconditions():
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    dr = atiyah_decompose(A, x, 2)
    with pytest.raises(ValueError):
        explicit_lift_decomposition(A, x, dr, A.ring.one(), A.ring.zero())  # h too low
    with pytest.raises(ValueError):
        explicit_lift_decomposition(A, x, dr, A.ring.zero(), x)  # f too low


def test_welldefined_level_one():
    A = projective_space_ring(3, 5)
    t = A.ring.gen("t")
    v = verify_welldefined(A, t, 1, trials=25, seed=9)
    assert v.status == PASS, v.describe()


def test_welldefined_requires_exact_weight():
    A = adem_failure_ring(3)
    with pytest.raises(ValueError):
        verify_welldefined(A, A.ring.gen("x"), 1, trials=1)


def test_welldefined_refuses_level_zero():
    """At level 0 the only layer is the top one, and every alternative lift
    gives it the class e^p mod p, so no comparison there could fail."""
    A = dual_numbers_ring(3, 1)
    with pytest.raises(ValueError, match="level q >= 1"):
        verify_welldefined(A, A.ring.one(), 0, trials=1)


def test_welldefined_reports_seed():
    A = dual_numbers_ring(2, 1)
    v = verify_welldefined(A, A.ring.gen("e"), 2, trials=3, seed=42)
    assert "seed=42" in v.notes


def test_welldefined_detects_bad_layer_data():
    """A hand-built algebra whose generator layers break class agreement in a
    ring whose filtration is NOT closed under dividing by p is out of scope;
    instead check the verifier flags an engineered mismatch by comparing a
    corrupted splitting directly."""
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    d = atiyah_decompose(A, x, 2)
    corrupted = d.layers[0] + x, d.layers[1], d.layers[2]
    assert graded_classes_agree(A, corrupted[0], d.layers[0], 4) is False
