import random
from dataclasses import replace

import pytest

import psibench.atiyah as atiyah
import psibench.steenrod as steenrod
from psibench.arith import adem_coefficient
from psibench.atiyah import atiyah_decompose
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             projective_space_ring)
from psibench.steenrod import (AXIOMS, check_additivity, check_adem,
                               check_cartan, check_exactness, check_instability,
                               check_p0_identity, check_pth_power, classify,
                               gr_class, graded_basis,
                               interesting_degrees, run_axioms, sample_classes,
                               steenrod_P, zero_class)
from psibench.verdicts import FAIL, PASS, PASS_UP_TO_TRUNCATION


def test_adem_coefficients_once_per_check(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return adem_coefficient(*args)

    monkeypatch.setattr(steenrod, "adem_coefficient", counted)
    A = projective_space_ring(3, 4)
    for d in (4, 6):
        calls.clear()
        assert check_adem(A, d, 2, 0).status != FAIL
        assert calls and len(calls) == len(set(calls))


def test_gr_class_examples():
    A = dual_numbers_ring(3, 2)
    e = A.ring.gen("e")
    assert not gr_class(A, e, 2)          # weight-2 piece of a weight-4 element
    B = adem_failure_ring(3)
    x = B.ring.gen("x")
    assert not gr_class(B, x * 9 + x**3, 4)   # 9 = 0 mod 3
    got = gr_class(B, x + x**2, 4)
    assert got.rep == x.reduce_mod(3)
    with pytest.raises(ValueError):
        gr_class(B, x, 6)  # element has weight 4 < 6


def test_p0_on_dual_numbers():
    for p in (2, 3, 5):
        for k in (1, 2, p + 1):
            A = dual_numbers_ring(p, k)
            c = gr_class(A, A.ring.gen("e"), 4)
            expect = gr_class(A, A.ring.gen("e") * k, 4)
            assert steenrod_P(A, 0, c) == expect


def test_operations_on_broken_adem_ring():
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    c = gr_class(A, x, 4)
    assert steenrod_P(A, 0, c) == c
    assert not steenrod_P(A, 1, c)
    assert steenrod_P(A, 2, c).rep == (x**3).reduce_mod(3)
    assert not steenrod_P(A, 3, c)  # vanishing above the level
    assert not steenrod_P(A, 7, c)


def test_top_power_and_q0():
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    c = gr_class(A, t**2, 4)
    assert steenrod_P(A, 2, c) == c.pth_power()
    # degree 0: P^0 is the p-th power = identity on Z/p
    for s in range(1, 3):
        c0 = gr_class(A, A.ring.scalar(s), 0)
        assert steenrod_P(A, 0, c0) == c0
        assert not steenrod_P(A, 1, c0)


def test_zero_class_operations():
    A = projective_space_ring(3, 4)
    z = zero_class(A, 4)
    assert not steenrod_P(A, 0, z)
    assert not steenrod_P(A, 2, z)


def test_cartan_instance_from_layer_convolution():
    # P^2(x*x) = 2 P^0(x) P^2(x) + (P^1 x)^2 = 2 x^4 at p = 3
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    cxx = gr_class(A, x**2, 8)
    lhs = steenrod_P(A, 2, cxx)
    assert lhs.rep == (x**4 * 2).reduce_mod(3)
    cx = gr_class(A, x, 4)
    rhs = zero_class(A, 16)
    for l in range(3):
        k = 2 - l
        if k <= 2:
            rhs = rhs + steenrod_P(A, l, cx) * steenrod_P(A, k, cx)
    assert lhs == rhs


def test_checkers_pass_on_projective_space():
    for p in (2, 3):
        A = projective_space_ring(p, 5)
        degrees = interesting_degrees(A, 2)
        assert check_p0_identity(A, degrees, 4, 0).status == PASS
        for d in degrees:
            assert check_additivity(A, d, 5, 0).status == PASS
            assert check_pth_power(A, d, 4, 0).status == PASS
            assert check_instability(A, d, 4, 0).status == PASS
            assert check_exactness(A, d, 4, 0).status == PASS
            v = check_adem(A, d, 3, 0)
            assert v.status != FAIL, v.describe()
        assert check_cartan(A, 2, 4, 4, 0).status == PASS


def test_cartan_with_unit_factor():
    # P^i(1*b) = sum P^l(1) P^k(b) collapses to P^i(b)
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    one = gr_class(A, A.ring.one(), 0)
    b = gr_class(A, t**2, 4)
    for i in range(3):
        lhs = steenrod_P(A, i, one * b)
        rhs = zero_class(A, 4 + 4 * i)
        for l in range(i + 1):
            rhs = rhs + steenrod_P(A, l, one) * steenrod_P(A, i - l, b)
        assert lhs == rhs == steenrod_P(A, i, b)
    assert check_cartan(A, 0, 4, 3, 0).status == PASS


def test_adem_failure_witness():
    for p in (3, 5):
        A = adem_failure_ring(p)
        v = check_adem(A, 2 * (p - 1), trials=3, seed=0)
        assert v.status == FAIL
        assert v.witness["i"] == 1 and v.witness["j"] == 1
        assert v.witness["class"] == "x"


def test_adem_layer_route_checks_the_operation(monkeypatch):
    # on an algebra with splittings, the composition route of an operation
    # other than the derived one disagrees with the double layers
    A = projective_space_ring(3, 8)

    def doubled(algebra, i, cls):
        return steenrod_P(algebra, i, cls) * (2 if i else 1)

    assert check_adem(A, 4, trials=2, seed=0).status == PASS
    monkeypatch.setattr(steenrod, "steenrod_P", doubled)
    v = check_adem(A, 4, trials=2, seed=0)
    assert v.status == FAIL
    assert v.witness["note"] == "layer route and composition route disagree"


def test_adem_trivial_on_dual_numbers():
    for p in (2, 3, 5):
        A = dual_numbers_ring(p, 2)
        v = check_adem(A, 4, trials=3, seed=0)
        assert v.status == PASS, v.describe()


def test_p0_failure_witness():
    A = dual_numbers_ring(3, 2)
    v = check_p0_identity(A, [4], trials=3, seed=0)
    assert v.status == FAIL and v.witness["degree"] == 4


def test_double_decomposition_contract():
    # second splittings satisfy psi(r_i) = sum_j p^(Q_i - j) r_(i,j) exactly
    A = adem_failure_ring(3, D=12)
    base = atiyah_decompose(A, A.ring.gen("x"), 2)
    p = 3
    for i in range(3):
        layer = base.layer(i)
        if not layer:
            continue
        level = 2 + 2 * i
        second = atiyah_decompose(A, layer, level)
        total = A.ring.zero()
        for j in range(level + 1):
            total = total + second.layer(j) * p ** (level - j)
        assert total == A.apply_psi(layer)


def test_classification_labels():
    assert classify(dual_numbers_ring(3, 1), 3, 0).label == "psi-p-algebra"
    assert classify(dual_numbers_ring(3, 2), 3, 0).label == "pre-psi-p"
    assert classify(adem_failure_ring(3), 3, 0).label == "pre-psi-p"
    assert classify(projective_space_ring(2, 4), 3, 0).label == "psi-p-algebra"
    assert classify(projective_space_ring(3, 4), 3, 0).label == "psi-p-algebra"


def test_classification_certificate_contents():
    result = classify(adem_failure_ring(3), 3, 0)
    assert result.verdict("adem").status == FAIL
    assert result.verdict("p0-identity").status == PASS
    assert result.verdict("atiyah-exactness").status == PASS
    assert result.verdict("well-definedness").status == PASS_UP_TO_TRUNCATION
    as_dict = result.to_dict()
    assert as_dict["classification"] == "pre-psi-p"


def test_structurally_zero_degrees_are_decidable():
    A = dual_numbers_ring(5, 1)  # max monomial weight 4
    assert A.ring.decidable(40) is True
    B = adem_failure_ring(3)     # free ring: beyond the window is unknowable
    assert B.ring.decidable(2 * B.ring.max_weight) is False
    assert B.ring.decidable(4) is True


def test_graded_basis_and_sampling():
    A = projective_space_ring(3, 4)
    basis = graded_basis(A, 6)
    assert len(basis) == 1 and basis[0].rep == (A.ring.gen("t") ** 3).reduce_mod(3)
    rng = random.Random(0)
    classes = sample_classes(A, 6, rng, 5)
    assert classes and all(c.degree == 6 for c in classes)
    assert graded_basis(A, 10) == []  # t^5 = 0


def test_graded_basis_is_memoized_per_algebra_and_returns_fresh_lists(monkeypatch):
    A = projective_space_ring(3, 4)
    first = graded_basis(A, 6)
    expected = list(first)
    first.clear()
    first.append("junk")
    calls = []
    original = A.ring.monomials_of_weight
    monkeypatch.setattr(A.ring, "monomials_of_weight",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    again = graded_basis(A, 6)
    assert again == expected and again is not first
    assert calls == []  # read from the algebra's memo, not enumerated again
    B = projective_space_ring(3, 4)
    assert graded_basis(B, 6)[0].algebra is B  # one memo per algebra object


def test_lift_independence_of_P_on_random_lift_pairs():
    rng = random.Random(13)
    A = projective_space_ring(3, 6)
    t = A.ring.gen("t")
    for q in (1, 2, 3):
        c = gr_class(A, t**q, 2 * q)
        base = atiyah_decompose(A, c.lift(), q)
        for _ in range(10):
            junk_low = A.ring.zero()
            for w in range(2 * q, 2 * A.ring.truncation + 1, 2):
                for m in A.ring.monomials_of_weight(w):
                    if rng.random() < 0.2:
                        junk_low = junk_low + A.ring.element({m: rng.randint(-6, 6)})
            alt = c.lift() + junk_low * A.p
            if alt.weight() != 2 * q:
                continue
            alt_d = atiyah_decompose(A, alt, q)
            for i in range(q + 1):
                target = 2 * q + 2 * i * (A.p - 1)
                if target > A.ring.max_weight:
                    continue
                a = gr_class(A, base.layer(i), target)
                b = gr_class(A, alt_d.layer(i), target)
                assert a == b


def test_each_operation_is_computed_once(monkeypatch):
    """classify computes P^i once per (i, degree, rep): the layer of a
    splitting is taken only for inputs the operation memo has not seen."""
    compute, derived = steenrod._derived_P, steenrod.steenrod_P
    computed, calls, reached = [], [], set()

    def counting_compute(algebra, i, cls):
        computed.append((i, cls.degree, frozenset(cls.lift().terms.items())))
        return compute(algebra, i, cls)

    def recording_P(algebra, i, cls):
        calls.append(i)
        target = cls.degree + 2 * i * (algebra.p - 1)
        if cls and i <= cls.degree // 2 and target <= algebra.ring.max_weight:
            reached.add((i, cls.degree, frozenset(cls.lift().terms.items())))
        return derived(algebra, i, cls)

    monkeypatch.setattr(steenrod, "_derived_P", counting_compute)
    monkeypatch.setattr(steenrod, "steenrod_P", recording_P)
    assert classify(projective_space_ring(3, 4), trials=2).label == "psi-p-algebra"
    assert len(computed) == len(set(computed)) == len(reached)
    assert set(computed) == reached
    assert len(calls) > 4 * len(computed)


# -- every registry axiom can fail ----------------------------------------------------


def _splitting_off_by_its_source(name):
    """A control in which the splittings ``atiyah.<name>`` builds gain their
    source in layer 0, so their weighted layer sum is no longer psi of it."""
    def control(monkeypatch):
        build = getattr(atiyah, name)

        def perturbed(da, db):
            d = build(da, db)
            return replace(d, layers=(d.layers[0] + d.source,) + d.layers[1:])

        monkeypatch.setattr(atiyah, name, perturbed)
        return projective_space_ring(3, 4)
    return control


def _operation_off_by_a_basis_class(monkeypatch):
    """P^i for i > 0 gains the first basis class of its target degree, an
    offset that is neither additive nor multiplicative."""
    derived = steenrod._derived_P

    def perturbed(algebra, i, cls):
        out = derived(algebra, i, cls)
        basis = graded_basis(algebra, out.degree)
        return out + basis[0] if i and basis else out

    monkeypatch.setattr(steenrod, "_derived_P", perturbed)
    return projective_space_ring(3, 4)


def _operation_plus_a_product(monkeypatch):
    """P^i for i > 0 gains the product of its class with the first basis
    class of degree 2i(p-1): still additive, but no longer a derivation of
    the product as Cartan asks."""
    derived = steenrod._derived_P

    def perturbed(algebra, i, cls):
        shift = graded_basis(algebra, 2 * i * (algebra.p - 1))
        out = derived(algebra, i, cls)
        return out + cls * shift[0] if i and shift else out

    monkeypatch.setattr(steenrod, "_derived_P", perturbed)
    return projective_space_ring(3, 4)


NEGATIVE_CONTROLS = {
    # products split every basis class; sums only the alternative lifts
    # that well-definedness compares against
    "exactness": _splitting_off_by_its_source("atiyah_product"),
    "welldefined": _splitting_off_by_its_source("atiyah_sum"),
    "p0": lambda monkeypatch: dual_numbers_ring(3, 2),
    "adem": lambda monkeypatch: adem_failure_ring(3),
    "additivity": _operation_off_by_a_basis_class,
    "cartan": _operation_plus_a_product,
}


def test_every_registry_axiom_has_a_negative_control():
    assert set(NEGATIVE_CONTROLS) == {a.cli for a in AXIOMS}


@pytest.mark.parametrize("axiom", AXIOMS, ids=lambda a: a.cli)
def test_every_registry_axiom_can_fail(axiom, monkeypatch):
    algebra = NEGATIVE_CONTROLS[axiom.cli](monkeypatch)
    (verdict,) = run_axioms(algebra, (axiom.cli,), trials=2, seed=0)
    assert verdict.name == axiom.verdict
    assert verdict.status == FAIL and verdict.witness, verdict.describe()
