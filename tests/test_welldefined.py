import random

import pytest

from psibench.atiyah import (atiyah_decompose, explicit_lift_decomposition,
                             graded_classes_agree, random_element,
                             verify_welldefined)
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             projective_space_ring)
from psibench.verdicts import PASS


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
        for i in range(3):
            w = 4 + 4 * i
            agree = graded_classes_agree(A, dx.layers[i], ds.layers[i], w)
            assert agree is True
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
    for i in range(3):
        w = 4 + 4 * i
        assert graded_classes_agree(A, d1.layers[i], d2.layers[i], w) is True


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
