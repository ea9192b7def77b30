import random

import pytest

import psibench.atiyah as atiyah
import psibench.steenrod as steenrod
from psibench.arith import adem_coefficient
from psibench.atiyah import (AtiyahDecomposition, PrePsiAlgebra, atiyah_decompose,
                             verify_welldefined)
from psibench.documents import algebra_from_document, algebra_to_document
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring, free_polynomial_presentation,
                             product_projective_spaces, projective_space_ring)
from psibench.rings import GeneratorSymbol, WeightedRing
from psibench.steenrod import (AXIOMS, GradedClass, check_additivity, check_adem,
                               check_cartan, check_closure, check_exactness, check_instability,
                               check_p0_identity, check_pth_power, classify,
                               gr_class, graded_basis,
                               interesting_degrees, run_axioms, sample_classes,
                               steenrod_P, zero_class)
from psibench.verdicts import FAIL, PASS, PASS_UP_TO_TRUNCATION
from test_self_checks import retired_verdicts


def test_adem_coefficients_once_per_check(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return adem_coefficient(*args)

    monkeypatch.setattr(steenrod, "adem_coefficient", counted)
    A = projective_space_ring(3, 20)  # top weight 40: every degree has Adem targets
    for d in (4, 6):
        calls.clear()
        assert check_adem(A, d).status != FAIL
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


def test_graded_class_validation():
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    for degree, rep, message in [
            (3, A.ring.zero(3), "non-negative even integers, got 3"),
            (-2, A.ring.zero(3), "non-negative even integers, got -2"),
            (2, t, "mod-p coefficients"),
            (2, t.reduce_mod(5), "mod-p coefficients"),
            (4, t.reduce_mod(3), "weight 2, expected 4"),
            (2, (t + t**2).reduce_mod(3), "weight-homogeneous")]:
        with pytest.raises(ValueError, match=message):
            GradedClass(A, degree, rep)
    assert GradedClass(A, 2, t.reduce_mod(3)).rep == t.reduce_mod(3)


def test_graded_classes_compare_by_degree_and_representative():
    A = projective_space_ring(3, 4)
    B = PrePsiAlgebra(A.ring, 3, {g.key: image - A.ring.var(g)**3
                                  for g, image in zip(A.ring.generators, A.psi.images)})
    t = A.ring.gen("t", mod=3)
    a, b = GradedClass(A, 2, t), GradedClass(B, 2, t)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != GradedClass(A, 2, t * 2) and not a == GradedClass(A, 2, t * 2)
    assert zero_class(A, 2) != zero_class(A, 4)


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
        assert check_p0_identity(A, degrees).status == PASS
        for d in degrees:
            assert check_additivity(A, d, 5, 0).status == PASS
            assert check_pth_power(A, d, 4, 0).status == PASS
            assert check_instability(A, d, 4, 0).status == PASS
            assert check_exactness(A, d, 4, 0).status == PASS
            v = check_adem(A, d)
            assert v.status != FAIL, v.describe()
        assert check_cartan(A, 2, 4).status == PASS


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
    assert check_cartan(A, 0, 4).status == PASS


def _nilpotent_adem_failure_ring():
    """x of weight 4 at p = 3 with x^4 = 0 and psi(x) = 9x + x^3: P^1 P^1 x
    = 0 but 2 P^2 x = 2 x^3, an Adem failure on the top monomial."""
    x = GeneratorSymbol("x", (), 4)
    ring = WeightedRing([x], 6, monomial_relations=[((x, 4),)])
    xe = ring.var(x)
    return PrePsiAlgebra(ring, 3, {x.key: xe * 9})


def test_adem_failure_witness():
    for A in (adem_failure_ring(3), adem_failure_ring(5), _nilpotent_adem_failure_ring()):
        v = check_adem(A, 2 * (A.p - 1))
        assert v.status == FAIL
        assert v.witness["i"] == 1 and v.witness["j"] == 1
        assert v.witness["class"] == "x"
    assert v.witness == {"degree": 4, "i": 1, "j": 1, "class": "x",
                         "lhs": "0", "rhs": "2*x^3"}


def _double_layer_class(base, j, i):
    """The class of r_(j,i): layer i of the splitting of layer j of ``base``,
    taken at level q + j(p-1)."""
    algebra = base.algebra
    level = base.level + j * (algebra.p - 1)
    target = 2 * level + 2 * i * (algebra.p - 1)
    layer = base.layer(j)
    if not layer:
        return zero_class(algebra, target)
    return gr_class(algebra, atiyah_decompose(algebra, layer, level).layer(i), target)


def _double_layer_mismatch(algebra, degree):
    """The first (class, j, i) in one degree where the splitting calculus and
    psi's bands disagree: r_(j,i) of the class's basis lift against the
    composition P^i P^j, which ``steenrod.steenrod_P`` reads off bands.  Only
    targets up to the top weight are compared; each Adem identity is a
    linear combination of these compositions."""
    p, q, top = algebra.p, degree // 2, algebra.ring.top_weight()
    for cls in graded_basis(algebra, degree):
        base = atiyah_decompose(algebra, cls.lift(), q)
        for j in range(q + 1):
            for i in range(q + j * (p - 1) + 1):
                if degree + 2 * (i + j) * (p - 1) > top:
                    break
                composed = steenrod.steenrod_P(algebra, i, steenrod.steenrod_P(algebra, j, cls))
                if _double_layer_class(base, j, i) != composed:
                    return str(cls.rep), j, i
    return None


DOUBLE_LAYER_MODELS = {
    "projective-p3-n8": lambda: projective_space_ring(3, 8),
    "projective-p2-n6": lambda: projective_space_ring(2, 6),
    "product-projective-p3-3-3": lambda: product_projective_spaces(3, 3, 3),
    "broken-adem-p3-D12": lambda: adem_failure_ring(3, D=12),
    "dual-numbers-p3-k2": lambda: dual_numbers_ring(3, 2),
    "lift-p2-D6": lambda: build_lift(free_polynomial_presentation(2, 6)).pi,
}


@pytest.mark.parametrize("name", sorted(DOUBLE_LAYER_MODELS))
def test_double_layers_are_the_compositions(name):
    A = DOUBLE_LAYER_MODELS[name]()
    for degree in interesting_degrees(A, 2):
        assert _double_layer_mismatch(A, degree) is None, (name, degree)


def test_double_layers_see_a_doubled_operation(monkeypatch):
    # at p = 3 a doubled P^i P^j (i, j >= 1) is 4 = 1 times the true one, but
    # P^i P^0 is doubled once, and r_(0,i) is not
    A = projective_space_ring(3, 8)

    def doubled(algebra, i, cls):
        return steenrod_P(algebra, i, cls) * (2 if i else 1)

    assert _double_layer_mismatch(A, 4) is None
    monkeypatch.setattr(steenrod, "steenrod_P", doubled)
    assert _double_layer_mismatch(A, 4) == ("t^2", 0, 1)


def test_adem_trivial_on_dual_numbers():
    for p in (2, 3, 5):
        A = dual_numbers_ring(p, 2)
        v = check_adem(A, 4)
        assert v.status == PASS, v.describe()


@pytest.mark.parametrize("make", [lambda: projective_space_ring(3, 4),
                                  lambda: product_projective_spaces(3, 3, 3)])
def test_basis_read_axioms_take_no_samples(make):
    # every axiom but welldefined reads the graded basis or the relations:
    # trials and seed change nothing
    names = ("closure", "p0", "adem")
    assert run_axioms(make(), names, 1, 0) == run_axioms(make(), names, 8, 5)


def test_merged_adem_fail_counts_the_identities_before_its_witness():
    A = adem_failure_ring(3)
    (merged,) = run_axioms(A, ("adem",))
    first = check_adem(A, interesting_degrees(A, 2)[0])
    assert (merged.status, merged.checked, merged.skipped) == (FAIL, 0, 0)
    assert merged.witness == first.witness
    assert (merged.witness["i"], merged.witness["j"], merged.witness["class"]) == (1, 1, "x")


def test_additivity_licenses_the_basis(monkeypatch):
    # an operation wrong only on classes with two or more terms passes every
    # check that reads the basis; only additivity, which samples
    # combinations, sees it.  P^i is one band of psi, so no document can make
    # it wrong this way (tests/test_band_formula.py): additivity left the
    # registry, and runs here as verify ran it
    apply = PrePsiAlgebra.apply_P

    def wrong_on_sums(algebra, i, e):
        out = apply(algebra, i, e)
        return out * 2 if len(e.terms) > 1 else out

    monkeypatch.setattr(PrePsiAlgebra, "apply_P", wrong_on_sums)
    A = product_projective_spaces(3, 2, 2)
    verdicts = {v.name: v for v in [*run_axioms(A, ("p0", "adem")),
                                    *retired_verdicts(A, trials=8)]}
    assert [verdicts[n].status for n in ("p0-identity", "adem", "cartan")] == [PASS] * 3
    assert verdicts["additivity"].status == FAIL, verdicts["additivity"].describe()


def test_p0_failure_witness():
    A = dual_numbers_ring(3, 2)
    v = check_p0_identity(A, [4])
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
    assert result.verdict("steenrod-closure").status == PASS
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


# -- every registry axiom can fail ----------------------------------------------------


def _splitting_off_by_its_source(module):
    """A control in which the band splittings that ``module`` reads gain
    their source in layer 0, so their weighted layer sum is no longer psi of
    it."""
    def control(monkeypatch):
        build = atiyah.atiyah_decompose

        def perturbed(algebra, e, q):
            d = build(algebra, e, q)
            return AtiyahDecomposition(algebra, e, q, (d.layers[0] + e,) + d.layers[1:])

        monkeypatch.setattr(module, "atiyah_decompose", perturbed)
        return projective_space_ring(3, 4)
    return control


def _operation_off_by_a_basis_class(monkeypatch):
    """P^i for i > 0 gains the first basis class of its target degree, an
    offset that is neither additive nor multiplicative."""
    apply = PrePsiAlgebra.apply_P

    def perturbed(algebra, i, e):
        basis = graded_basis(algebra, e.weight() + 2 * i * (algebra.p - 1))
        out = apply(algebra, i, e)
        return out + basis[0].rep if i and basis else out

    monkeypatch.setattr(PrePsiAlgebra, "apply_P", perturbed)
    return projective_space_ring(3, 4)


def _operation_plus_a_product(monkeypatch):
    """P^i for i > 0 gains the product of its class with the first basis
    class of degree 2i(p-1): still additive, but no longer a derivation of
    the product as Cartan asks."""
    apply = PrePsiAlgebra.apply_P

    def perturbed(algebra, i, e):
        shift = graded_basis(algebra, 2 * i * (algebra.p - 1))
        out = apply(algebra, i, e)
        return out + e * shift[0].rep if i and shift else out

    monkeypatch.setattr(PrePsiAlgebra, "apply_P", perturbed)
    return projective_space_ring(3, 4)


def _not_closed_document(monkeypatch=None):
    """Z[t,u]/(t^5, u^5) at p = 3, D = 16, with the graded relation t^2 + u^2,
    which P^1 sends to 2t^4 + 2u^4 = t^4 modulo the relation."""
    doc = algebra_to_document(product_projective_spaces(3, 4, 4, D=16))
    doc["graded_relations"] = [[{"coefficient": 1, "monomial": [["t", 2]]},
                                {"coefficient": 1, "monomial": [["u", 2]]}]]
    return algebra_from_document(doc)


NEGATIVE_CONTROLS = {
    "closure": _not_closed_document,
    # well-definedness reads the engine through atiyah's own name for it
    "welldefined": _splitting_off_by_its_source(atiyah),
    "p0": lambda monkeypatch: dual_numbers_ring(3, 2),
    "adem": lambda monkeypatch: adem_failure_ring(3),
}

# The checkers that left the registry (tests/test_self_checks.py), each
# called directly on its first degree under the mutation that made its
# registry entry fail: exactness reads the engine through steenrod's import
# of it.
CHECKER_CONTROLS = {
    "exactness": (_splitting_off_by_its_source(steenrod),
                  lambda A: check_exactness(A, 2, trials=2, seed=0)),
    "additivity": (_operation_off_by_a_basis_class,
                   lambda A: check_additivity(A, 2, trials=2, seed=0)),
    "cartan": (_operation_plus_a_product, lambda A: check_cartan(A, 2, 2)),
}


def test_a_relation_the_operations_leave_fails_closure():
    A = _not_closed_document()
    v = check_closure(A)
    assert (v.status, v.checked, v.skipped) == (FAIL, 0, 0)
    assert v.witness == {"relation": "u^2 + t^2", "i": 1, "image": "2*u^4 + 2*t^4"}
    assert classify(A, 2, 0).label == "not-pre-psi-p"


def test_closure_without_graded_relations_compares_nothing():
    v = check_closure(projective_space_ring(3, 4))
    assert (v.status, v.checked, v.skipped, v.notes) == (PASS, 0, 0, ("no graded relations",))


def test_every_registry_axiom_has_a_negative_control():
    assert set(NEGATIVE_CONTROLS) == {a.cli for a in AXIOMS}


@pytest.mark.parametrize("axiom", AXIOMS, ids=lambda a: a.cli)
def test_every_registry_axiom_can_fail(axiom, monkeypatch):
    algebra = NEGATIVE_CONTROLS[axiom.cli](monkeypatch)
    (verdict,) = run_axioms(algebra, (axiom.cli,), trials=2, seed=0)
    assert verdict.name == axiom.verdict
    assert verdict.status == FAIL and verdict.witness, verdict.describe()


@pytest.mark.parametrize("name", sorted(CHECKER_CONTROLS))
def test_every_retired_checker_can_fail(name, monkeypatch):
    control, check = CHECKER_CONTROLS[name]
    verdict = check(control(monkeypatch))
    assert verdict.status == FAIL and verdict.witness, verdict.describe()


# -- a witness after skipped identities ---------------------------------------------
# Every negative control above FAILs before any skip.  These FAIL after one:
# the first class or pair passes and leaves a run of targets that truncation
# cannot decide, then the next one fails.  Their (checked, skipped) and
# witnesses were recorded when each skipped identity was a separate outcome.


def _operation_off_on_one_class(monkeypatch, i_off, n, D, extra):
    """P^i_off of the second degree-2 basis class (u) alone gains
    ``extra(basis)``, on Z[t,u]/(t^(n+1), u^(n+1)) at p = 3 and truncation D."""
    apply = PrePsiAlgebra.apply_P

    def perturbed(algebra, i, e):
        out = apply(algebra, i, e)
        basis = graded_basis(algebra, 2)
        return out + extra(basis).rep if i == i_off and e == basis[1].rep else out

    monkeypatch.setattr(PrePsiAlgebra, "apply_P", perturbed)
    return product_projective_spaces(3, n, n, D)


def _p0_off(monkeypatch):
    # window 4 below the top 12: targets 6 and up are skipped
    return _operation_off_on_one_class(monkeypatch, 0, 3, 2, lambda basis: basis[0])


def _explicit_construction_off(monkeypatch):
    """verify_welldefined at level 1 when the explicit construction's layer 0
    gains its source: inexact, after the engine's layers agreed on weight 2
    and skipped weight 6."""
    build = atiyah.explicit_lift_decomposition

    def perturbed(*args):
        d = build(*args)
        return AtiyahDecomposition(d.algebra, d.source, d.level,
                                   (d.layers[0] + d.source,) + d.layers[1:])

    monkeypatch.setattr(atiyah, "explicit_lift_decomposition", perturbed)
    A = product_projective_spaces(3, 3, 3, D=2)
    return verify_welldefined(A, A.ring.gen("t"), 1, trials=2, seed=0)


LATE_WITNESS_CONTROLS = {
    "welldefined": (_explicit_construction_off, 1, 1,
                    {"oracle": "explicit construction is inexact"}),
    "additivity": (lambda mp: check_additivity(_p0_off(mp), 2, trials=2, seed=0), 1, 1,
                   {"degree": 2, "i": 0, "a": "t", "b": "u"}),
    "cartan": (lambda mp: check_cartan(_p0_off(mp), 2, 2), 1, 2,
               {"deg1": 2, "deg2": 2, "i": 0, "a": "t", "b": "u"}),
    # window 10, top 16: P^1 P^1 on degree 2 is compared, P^2 P^1 and
    # P^1 P^2 (weight 14) are skipped; P^1(u) gains t^2*u, and composition
    # alone sees it: P^1 of the perturbed image is not the 2 P^2 u = 0 of Adem
    "adem": (lambda mp: check_adem(_operation_off_on_one_class(
                 mp, 1, 4, 5, lambda basis: basis[0] * basis[0] * basis[1]), 2), 1, 2,
             {"degree": 2, "i": 1, "j": 1, "class": "u",
              "lhs": "t^2*u^3 + 2*t^4*u", "rhs": "0"}),
}


@pytest.mark.parametrize("name", sorted(LATE_WITNESS_CONTROLS))
def test_a_witness_after_skips_keeps_the_counts_before_it(name, monkeypatch):
    run, checked, skipped, witness = LATE_WITNESS_CONTROLS[name]
    v = run(monkeypatch)
    assert (v.status, v.checked, v.skipped) == (FAIL, checked, skipped), v.describe()
    assert witness.items() <= v.witness.items()
