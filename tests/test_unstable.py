import pytest

import psibench.rings as rings
from psibench.models import base_polynomial_algebra, free_polynomial_presentation
from psibench.rings import GeneratorSymbol, WeightedRing
from psibench.steenrod import gr_class, run_axioms, steenrod_P
from psibench.unstable import (UnstableAlgebra, check_adem_table,
                               check_p0_identity_table)
from psibench.verdicts import FAIL, PASS


def test_table_action_on_polynomial_algebra():
    A = base_polynomial_algebra(2, d=1, D=6)
    x = A.ring.gen("x", mod=2)
    assert A.apply_P(0, x) == x
    assert A.apply_P(1, x) == x**2      # top power at d = 1
    assert not A.apply_P(2, x)
    # total operation is multiplicative: P(x^2) = (x + x^2)^2 = x^2 + x^4
    assert A.apply_P(0, x**2) == x**2
    assert not A.apply_P(1, x**2)
    assert A.apply_P(2, x**2) == x**4


def test_table_action_odd_prime():
    A = base_polynomial_algebra(3, d=1, D=9)
    x = A.ring.gen("x", mod=3)
    assert A.apply_P(1, x) == x**3
    assert A.apply_P(0, x**2) == x**2
    assert A.apply_P(1, x**2) == x**4 * 2     # binom(2,1) t^(q+1) pattern
    assert A.apply_P(2, x**2) == x**6


def test_class_level_operations_respect_window():
    A = base_polynomial_algebra(2, d=1, D=3)
    x = A.ring.gen("x", mod=2)
    c = gr_class(A, x.integer_lift(), 2)
    assert steenrod_P(A, 0, c) == c
    top = steenrod_P(A, 1, c)
    assert top.rep == x**2
    assert not steenrod_P(A, 5, c)
    big = gr_class(A, (x**3).integer_lift(), 6)
    with pytest.raises(ValueError):
        steenrod_P(A, 3, big)  # target degree 12 is outside the window and undecidable


def test_table_checkers():
    A = base_polynomial_algebra(3, d=1, D=6)
    degrees = [2, 4, 6]
    assert check_p0_identity_table(A, degrees).status == PASS
    for d in degrees:
        assert check_adem_table(A, d).status != FAIL


def test_total_images_need_one_mod_p_element_of_the_ring_per_generator():
    x, y = GeneratorSymbol("x", (), 4), GeneratorSymbol("y", (), 2)
    ring = WeightedRing([x, y], 8)
    xe, ye = ring.var(x, 3), ring.var(y, 3)
    UnstableAlgebra(ring, 3, totals=[ye + ye**3, xe + xe**3])
    other = WeightedRing([x, y], 8)
    for bad in ([ye + ye**3],                                     # one image short
                [ye + ye**3, xe, xe],                             # one image too many
                [ye + ye**3, (xe + xe**3).integer_lift()],        # integral
                [ye + ye**3, other.var(x, 3)]):                   # another ring
        with pytest.raises(ValueError, match="one mod-3 image per generator"):
            UnstableAlgebra(ring, 3, totals=bad)


def test_table_route_catches_a_broken_adem_relation():
    # x of weight 4 at p = 3: P^1 P^1 x = 2 P^2 x = 2 x^3 forces P^1 x != 0,
    # and the default total x + x^3 has P^1 x = 0
    x = GeneratorSymbol("x", (), 4)
    ring = WeightedRing([x], 6)
    broken = UnstableAlgebra(ring, 3)
    p0, adem = run_axioms(broken, ("p0", "adem"))
    assert p0.status == PASS
    assert adem.status == FAIL
    w = adem.witness
    assert (w["i"], w["j"], w["class"], w["lhs"], w["rhs"]) == (1, 1, "x", "0", "2*x^3")
    xe = ring.var(x, 3)
    square = UnstableAlgebra(ring, 3, totals=[xe + xe**2 + xe**3])
    assert all(v.status != FAIL for v in run_axioms(square, ("p0", "adem")))


@pytest.mark.parametrize("D", [6, 8])
def test_presentation_totals_are_the_layer_sums_mod_p(D):
    pres = free_polynomial_presentation(2, D)
    ring, images = pres.ring, pres.algebra.total.images
    assert len(images) == len(ring.generators)
    lossy = 0
    for g, image in zip(ring.generators, images):
        layers = pres.pi.psi_data[g.key]
        assert image == sum(layers[1:], layers[0]).reduce_mod(2)
        assert image.truncated == any(layer.truncated for layer in layers)
        lossy += image.truncated
    assert 0 < lossy < len(images)     # both kinds of image occur


def test_cartan_for_table_operations():
    A = base_polynomial_algebra(3, d=1, D=9)
    x = A.ring.gen("x", mod=3)
    a, b = x, x**2
    for i in range(4):
        target = 6 + 2 * i * 2
        if target > A.ring.max_weight:
            continue
        lhs = A.apply_P(i, a * b)
        rhs = A.ring.zero(3)
        for l in range(i + 1):
            rhs = rhs + A.apply_P(l, a) * A.apply_P(i - l, b)
        assert lhs == rhs


def _total_cases(A):
    """(i, monomial) pairs over every monomial of the window."""
    ring = A.ring
    return [(i, ring.element({m: 1}, mod=A.p))
            for w in range(2, ring.max_weight + 1, 2) for m in ring.monomials_of_weight(w)
            for i in range(w // 2 + 1)]


def _total_values(A, cases):
    return [(i, list(A.apply_P(i, e).terms.items())) for i, e in cases]


def test_total_memo_warm_equals_cold():
    A = free_polynomial_presentation(2, 6).algebra
    cases = _total_cases(A)
    cold = _total_values(A, cases)
    assert A.total.memo
    assert _total_values(A, cases) == cold      # read from the memo
    A.total.memo.clear()
    assert _total_values(A, cases) == cold      # recomputed


# 69 generators: the bound stretches to cover 138 monomials, 3 * ceil(138 / 3)
@pytest.mark.parametrize("size, held", [(3, 138), (0, 0)], ids=["3", "0"])
def test_total_memo_stays_bounded_with_unchanged_values(monkeypatch, size, held):
    reference = free_polynomial_presentation(2, 6).algebra
    want = _total_values(reference, _total_cases(reference))
    monkeypatch.setattr(rings, "SPLITTING_CACHE_SIZE", size)
    A = free_polynomial_presentation(2, 6).algebra
    cases = _total_cases(A)
    assert _total_values(A, cases) == want
    assert len(A.total.memo) == held
    assert _total_values(A, cases) == want
