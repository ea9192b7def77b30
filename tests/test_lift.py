import pytest

import psibench.groebner
import psibench.lift
from psibench.documents import lift_to_document
from psibench.lift import (UnstablePresentation, build_lift, default_k_max,
                           enumerate_generators, lift_generator_layers)
from psibench.models import free_polynomial_presentation
from psibench.rings import GeneratorSymbol, poly_to_json
from psibench.steenrod import (check_adem, check_additivity, check_cartan,
                               check_instability, check_p0_identity,
                               check_pth_power, classify, gr_class,
                               interesting_degrees, steenrod_P)
from psibench.verdicts import FAIL, PASS


def index_weight(p: int, d: int, indices) -> int:
    return 2 * d + 2 * (p - 1) * sum(indices)


def is_admissible(p: int, d: int, indices) -> bool:
    """Each successive index is bounded by d + (p-1) * (sum so far)."""
    running = d
    for i in indices:
        if i < 0 or i > running:
            return False
        running += (p - 1) * i
    return True


def test_admissibility_and_weights():
    # bound for the next index is d + (p-1) * (sum so far)
    assert is_admissible(2, 1, (0,)) and is_admissible(2, 1, (1,))
    assert not is_admissible(2, 1, (2,))
    assert is_admissible(2, 1, (1, 2)) and not is_admissible(2, 1, (1, 3))
    assert index_weight(2, 1, (1, 2)) == 2 + 2 * (1 + 2)
    assert index_weight(3, 1, ()) == 2


def _all_index_tuples(p: int, d: int, D: int, max_zeros: int):
    """Every index tuple of weight <= 2D and at most ``max_zeros`` zeros,
    admissible or not: each index is at most D, and a tuple of weight <= 2D
    has at most D - d positive indices."""
    def grow(indices):
        yield indices
        if len(indices) > D - d + max_zeros:
            return
        for i in range(D + 1):
            longer = indices + (i,)
            if index_weight(p, d, longer) <= 2 * D and longer.count(0) <= max_zeros:
                yield from grow(longer)
    return grow(())


@pytest.mark.parametrize("p,degrees,D,max_zeros", [
    (2, (2,), 5, 1), (2, (2, 4), 4, 0), (3, (2,), 7, 2), (3, (4,), 8, 1), (5, (2,), 9, 1)])
def test_enumeration_agrees_with_the_admissibility_oracle(p, degrees, D, max_zeros):
    syms = enumerate_generators(p, [(f"x{deg}", deg) for deg in degrees], D, max_zeros)
    got = {s.key for s in syms}
    assert len(got) == len(syms)
    for s in syms:
        d = int(s.name[1:]) // 2
        assert is_admissible(p, d, s.indices)
        assert s.weight == index_weight(p, d, s.indices) <= 2 * D
        assert s.indices.count(0) <= max_zeros
    want = {(f"x{deg}", t) for deg in degrees
            for t in _all_index_tuples(p, deg // 2, D, max_zeros)
            if is_admissible(p, deg // 2, t)}
    assert got == want


def test_enumeration_window_p2():
    syms = enumerate_generators(2, [("x", 2)], 2, max_zeros=1)
    got = {s.indices for s in syms}
    assert got == {(), (0,), (1,), (0, 1), (1, 0)}
    weights = {s.indices: s.weight for s in syms}
    assert weights[(1,)] == 4 and weights[(0,)] == 2
    # sorted by weight, then name, then tuple (length first)
    assert [s.indices for s in syms] == sorted(
        got, key=lambda t: (2 + 2 * sum(t), len(t), t))


def test_enumeration_respects_zero_cap():
    few = enumerate_generators(2, [("x", 2)], 2, max_zeros=0)
    assert {s.indices for s in few} == {(), (1,)}
    more = enumerate_generators(2, [("x", 2)], 2, max_zeros=2)
    assert (0, 0) in {s.indices for s in more}


def test_enumeration_empty_generators():
    assert enumerate_generators(3, [], 5) == []


def test_enumeration_closed_under_positive_extension():
    for p in (2, 3):
        syms = enumerate_generators(p, [("x", 2)], 6)
        keys = {s.indices for s in syms}
        for s in syms:
            sigma = s.weight // 2
            for i in range(1, sigma):
                if s.weight + 2 * i * (p - 1) <= 12:
                    assert s.indices + (i,) in keys, (s.indices, i)


def test_variable_cap_refuses_large_windows(monkeypatch):
    assert len(enumerate_generators(2, [("x", 2)], 6)) == 69
    monkeypatch.setattr(psibench.lift, "MAX_LIFT_VARIABLES", 68)
    with pytest.raises(ValueError, match="MAX_LIFT_VARIABLES=68"):
        free_polynomial_presentation(2, 6)
    monkeypatch.setattr(psibench.lift, "MAX_LIFT_VARIABLES", 69)
    assert len(free_polynomial_presentation(2, 6).symbols) == 69
    # the refusal comes before the full set is built: D=40 has millions
    monkeypatch.setattr(psibench.lift, "MAX_LIFT_VARIABLES", 10)
    with pytest.raises(ValueError, match="MAX_LIFT_VARIABLES=10"):
        enumerate_generators(2, [("x", 2)], 40)


def test_psi_on_lift_generator_formula():
    pres = free_polynomial_presentation(3, 9)
    lift = build_lift(pres)
    ring = lift.pi.ring
    # sigma = 1: psi X = pX + X^p
    base = ring.symbol("x")
    image, dec = lift.pi.apply_psi(ring.var(base)), lift.pi.generator_decomposition(base)
    assert image == ring.var(base) * 3 + ring.var(base) ** 3
    assert dec.problems() == []
    # sigma = 3 at index (1): psi X = 27X + 9X[1,1] + 3X[1,2] + X^3
    v = ring.symbol("x", (1,))
    image, dec = lift.pi.apply_psi(ring.var(v)), lift.pi.generator_decomposition(v)
    expected = (ring.var(v) * 27 + ring.gen("x", (1, 1)) * 9
                + ring.gen("x", (1, 2)) * 3 + ring.var(v) ** 3)
    assert image == expected
    assert dec.layers[0] == ring.var(v)
    assert dec.problems() == []


def test_layer_zero_forces_p0_identity_on_generators():
    pres = free_polynomial_presentation(2, 4)
    lift = build_lift(pres)
    for sym in pres.symbols:
        c = gr_class(lift.pi, lift.pi.ring.var(sym), sym.weight)
        assert steenrod_P(lift.pi, 0, c) == c


def test_integral_relation_lift_representatives():
    pres = free_polynomial_presentation(3, 4)
    lift = build_lift(pres)
    live = [rel for rel in pres.relations if rel]
    assert len(lift.ideal_generators[0]) == len(live)
    for rel, lifted in zip(live, lift.ideal_generators[0]):
        assert lifted.mod is None and lifted.ring is rel.ring
        assert all(1 <= c <= 2 for c in lifted.terms.values())
        assert lifted.reduce_mod(3) == rel


def test_build_small_free_polynomial_p2():
    pres = free_polynomial_presentation(2, 3)
    lift = build_lift(pres)
    assert lift.census == {0: 1, 2: 1, 4: 1, 6: 1}
    x = lift.pi.ring.gen("x")
    c = gr_class(lift.pi, x, 2)
    assert steenrod_P(lift.pi, 1, c).rep == (x**2).reduce_mod(2)


def test_ideal_iterates_have_zero_graded_class():
    pres = free_polynomial_presentation(3, 6)
    lift = build_lift(pres)
    for k, fs in lift.ideal_generators.items():
        if k == 0:
            continue
        for f0, fk in zip(lift.ideal_generators[0], fs):
            if not fk:
                continue
            bottom = fk.homogeneous_component(f0.weight()).reduce_mod(3)
            assert not bottom


def test_p2_d11_lifts_beyond_the_old_variable_cap():
    pres = free_polynomial_presentation(2, 11)
    assert len(pres.symbols) == 2703
    lift = build_lift(pres)
    assert lift.census == {degree: 1 for degree in range(0, 23, 2)}
    for f0, f1 in zip(lift.ideal_generators[0], lift.ideal_generators[1]):
        assert not f1 or not f1.homogeneous_component(f0.weight()).reduce_mod(2)


def test_connectedness_and_determinism():
    pres = free_polynomial_presentation(2, 5)
    lift = build_lift(pres)
    assert lift.census[0] == 1  # Gr^0 = Z/p
    again = build_lift(free_polynomial_presentation(2, 5))
    assert lift_to_document(lift) == lift_to_document(again)


def test_restriction_to_smaller_window():
    big = free_polynomial_presentation(2, 6)
    small = free_polynomial_presentation(2, 4)
    big_keys = {s.key for s in big.symbols}
    small_keys = {s.key for s in small.symbols}
    assert small_keys <= big_keys
    lift_b, lift_s = build_lift(big), build_lift(small)
    for degree, count in lift_s.census.items():
        assert lift_b.census[degree] == count


def test_lift_reuses_the_presentation(monkeypatch):
    pres = free_polynomial_presentation(2, 5)

    def refuse(relations, p):
        raise AssertionError("build_lift built a second Groebner basis")

    monkeypatch.setattr(psibench.groebner, "groebner_build", refuse)
    monkeypatch.setattr(psibench.lift, "groebner_build", refuse)
    lift = build_lift(pres)
    assert lift.pi is pres.pi
    assert lift.pi.ring is pres.ring
    assert lift.pi.graded_gb is pres.gb
    assert lift.graded is pres.algebra


def test_table_P_agrees_with_the_derived_P():
    """The presentation's table action and the operations derived from the
    lift's psi agree on every basis class of the graded quotient."""
    for p in (2, 3):
        pres = free_polynomial_presentation(p, 6)
        lift = build_lift(pres)
        for degree in interesting_degrees(lift.graded, 0):
            for cls in lift.basis(degree):
                for i in range(degree // 2 + 1):
                    if degree + 2 * i * (p - 1) > 2 * pres.truncation:
                        continue
                    assert steenrod_P(lift.graded, i, cls) == steenrod_P(lift.pi, i, cls)


def test_lift_axiom_suite():
    for p in (2, 3):
        pres = free_polynomial_presentation(p, 6)
        lift = build_lift(pres)
        degrees = interesting_degrees(lift.pi, 2)
        assert check_p0_identity(lift.pi, degrees).status == PASS
        for d in degrees:
            assert check_adem(lift.pi, d).status != FAIL
            assert check_additivity(lift.pi, d, 3, 0).status != FAIL
            assert check_pth_power(lift.pi, d, 3, 0).status != FAIL
            assert check_instability(lift.pi, d, 3, 0).status != FAIL
        assert check_cartan(lift.pi, 2, 2).status != FAIL
        assert classify(lift.pi, trials=3, seed=0).label == "psi-p-algebra"


def test_projection_to_quotient_commutes_with_P():
    """Naturality for the quotient map: operations computed in the free ring
    and then normal-formed agree with operations computed in the quotient."""
    from psibench.atiyah import PrePsiAlgebra
    from psibench.lift import lift_generator_layers
    from psibench.steenrod import gr_class_of_rep
    pres = free_polynomial_presentation(2, 5)
    lift = build_lift(pres)
    ring = lift.pi.ring
    free_pi = PrePsiAlgebra(
        ring, 2, {s.key: lift_generator_layers(ring, 2, s) for s in pres.symbols})
    for sym in pres.symbols:
        degree = sym.weight
        up = gr_class(free_pi, ring.var(sym), degree)
        down = gr_class(lift.pi, ring.var(sym), degree)
        for i in range(degree // 2 + 1):
            if degree + 2 * i > 2 * pres.truncation:
                continue
            upstairs = steenrod_P(free_pi, i, up)
            projected = gr_class_of_rep(lift.pi, upstairs.rep, upstairs.degree)
            assert projected == steenrod_P(lift.pi, i, down)


@pytest.mark.parametrize("p", [2, 3])
def test_relabelled_presentation_lifts_to_the_renamed_lift(p, rename_generator):
    """Relabelling x as y commutes with building and serializing the lift:
    psi layers, Groebner basis, relations and census all carry over."""
    lift_x = lift_to_document(build_lift(free_polynomial_presentation(p, 6)))
    lift_y = lift_to_document(build_lift(free_polynomial_presentation(p, 6, theta="y")))
    assert lift_y == rename_generator(lift_x, "x", "y")
    assert lift_y != lift_x


def test_validation_rejects_incomplete_relation_set():
    # leaving out the top-power identification X[1] = X^2 must be refused
    full = free_polynomial_presentation(2, 3)
    kept = [r for r in full.relations
            if r.terms.keys() != {full.ring.monomial([(full.ring.symbol("x", (1,)), 1)]),
                                  full.ring.monomial([(full.ring.symbol("x"), 2)])}]
    assert len(kept) == len(full.relations) - 1
    pres = UnstablePresentation(2, [("x", 2)], [poly_to_json(r) for r in kept], 3)
    failed = {v.name: v.witness for v in pres.validation if v.status == FAIL}
    assert failed == {
        "p0-index-identification": {"variable": "x[1,0]", "missing": "x[1,0] = x[1]"},
        "top-index-identification": {"variable": "x[1]", "missing": "x[1] = x^2"}}
    with pytest.raises(ValueError, match="load-validation: p0-index-identification: FAIL"):
        build_lift(pres)


def test_closure_fail_after_a_skip_keeps_the_counts_before_it():
    # without x[0,1,1] = 0, P^1 of the relation x[0,1] + x^2 leaves the
    # ideal; an earlier relation's targets ran past the window first.  The
    # counts were recorded when each skipped target was a separate outcome.
    full = free_polynomial_presentation(2, 3)
    kept = [poly_to_json(r) for r in full.relations if str(r) != "x[0,1,1]"]
    assert len(kept) == len(full.relations) - 1
    pres = UnstablePresentation(2, [("x", 2)], kept, 3)
    (v,) = [v for v in pres.validation if v.name == "steenrod-closure"]
    assert (v.status, v.checked, v.skipped) == (FAIL, 2, 1)
    assert v.witness == {"relation": "x[0,1] + x^2", "i": 1, "image": "x[0,1,1]"}


def test_validation_verdicts():
    pres = free_polynomial_presentation(2, 4)
    assert [v.name for v in pres.validation] == [
        "p0-index-identification", "top-index-identification", "steenrod-closure",
        "adem(table)"]
    assert all(v.passed for v in pres.validation)


def test_relation_referencing_unknown_variable():
    relation = [{"coefficient": 1, "monomial": [[{"theta": "x", "indices": [9, 9]}, 1]]}]
    with pytest.raises(ValueError, match="not an .*enumerated"):
        UnstablePresentation(2, [("x", 2)], [relation], 3)


def test_inhomogeneous_relation_rejected():
    relation = [{"coefficient": 1, "monomial": [["x", 1]]},
                {"coefficient": 1, "monomial": [["x", 2]]}]
    with pytest.raises(ValueError, match="inhomogeneous"):
        UnstablePresentation(2, [("x", 2)], [relation], 3)


def test_degree_four_generator_at_p2_builds():
    # zero middle action on a degree-4 generator is consistent at p = 2
    pres = free_polynomial_presentation(2, 6, d=2)
    lift = build_lift(pres)
    assert lift.census[4] == 1 and lift.census[2] == 0
    assert classify(lift.pi, trials=2, seed=0).label == "psi-p-algebra"


def test_degree_four_generator_at_p3_rejected():
    # ... but not at p = 3, where the relation forces 2 P^2 x = 2 x^3 != 0;
    # load-validation records the exact witness, and the lift is refused
    pres = free_polynomial_presentation(3, 8, d=2)
    failed = [v for v in pres.validation if v.status == FAIL]
    assert [v.name for v in failed] == ["adem(table)"]
    assert failed[0].witness == {"degree": 4, "i": 1, "j": 1, "class": "x",
                                 "lhs": "0", "rhs": "2*x^3"}
    with pytest.raises(ValueError, match=r"load-validation: adem\(table\): FAIL"):
        build_lift(pres)


def test_default_k_max():
    assert default_k_max(2, 6) == 4   # 2^4 = 16 > 12
    assert default_k_max(3, 6) == 3   # 27 > 18
    assert default_k_max(5, 4) == 2   # 25 > 20


def _reference_enumeration(p, generators, D, max_zeros):
    """Every child of a variable pushed, and a child above the window
    dropped when it is reached; sorted as ``enumerate_generators`` sorts."""
    out = []

    def grow(theta, indices, sigma, zeros):
        if sigma > D:
            return
        out.append(GeneratorSymbol(theta, indices, 2 * sigma))
        if zeros < max_zeros:
            grow(theta, indices + (0,), sigma, zeros + 1)
        for i in range(1, sigma + 1):
            grow(theta, indices + (i,), sigma + (p - 1) * i, zeros)

    for theta, degree in generators:
        grow(theta, (), degree // 2, 0)
    return sorted(out, key=lambda g: (g.weight, g.name, len(g.indices), g.indices))


WINDOWS = [(2, 2), (2, 5), (2, 7), (3, 4), (3, 9), (3, 11), (5, 6), (5, 13), (5, 18),
           (7, 3), (7, 14), (7, 25)]


@pytest.mark.parametrize("p, D", WINDOWS)
def test_bounded_children_agree_with_the_reference_enumeration(p, D):
    for generators in ([("x", 2)], [("x", 2), ("y", 4)]):
        for max_zeros in (0, 1, 2):
            want = _reference_enumeration(p, generators, D, max_zeros)
            assert enumerate_generators(p, generators, D, max_zeros) == want, (
                generators, max_zeros)


@pytest.mark.parametrize("p, D", [(2, 6), (3, 9), (5, 13), (7, 25)])
def test_variable_cap_refuses_the_same_windows(monkeypatch, p, D):
    generators = [("x", 2), ("y", 4)]
    count = len(_reference_enumeration(p, generators, D, 1))
    monkeypatch.setattr(psibench.lift, "MAX_LIFT_VARIABLES", count)
    assert len(enumerate_generators(p, generators, D)) == count
    monkeypatch.setattr(psibench.lift, "MAX_LIFT_VARIABLES", count - 1)
    with pytest.raises(ValueError, match=f"MAX_LIFT_VARIABLES={count - 1}"):
        enumerate_generators(p, generators, D)


def _reference_layers(ring, sym, admitted):
    """The psi layers of a lift variable below its top, every slot
    1..sigma-1 probed for an enumerated child: a missing one is a flagged
    zero."""
    lost = ring.element({}, truncated=True)
    children = [admitted.get((sym.name, sym.indices + (i,))) for i in range(1, sym.weight // 2)]
    return [ring.var(sym)] + [lost if c is None else ring.var(c) for c in children]


LAYER_WINDOWS = [(2, 3), (2, 6), (3, 5), (3, 9), (5, 9), (5, 12), (7, 8), (7, 15)]


@pytest.mark.parametrize("p, D", LAYER_WINDOWS)
def test_lift_layers_are_the_enumerated_children(p, D):
    children = padded = 0
    for generators in ([("x", 2)], [("x", 2), ("y", 4)]):
        for max_zeros in (0, 1, 2):
            pres = UnstablePresentation(p, generators, (), D, max_zeros=max_zeros)
            ring = pres.ring
            admitted = {s.key: s for s in enumerate_generators(p, generators, D, max_zeros)}
            assert admitted.keys() == {g.key for g in ring.generators}
            for sym in ring.generators:
                want = _reference_layers(ring, sym, admitted)
                got = lift_generator_layers(ring, p, sym)
                full = pres.pi.psi_data[sym.key]
                top = ring.var(sym) ** p
                assert list(got) == want and list(full) == want + [top], (generators, sym)
                flags = [layer.truncated for layer in want]
                assert [layer.truncated for layer in got] == flags, (generators, sym)
                assert [layer.truncated for layer in full] == flags + [top.truncated]
                for layer in want[1:]:
                    # a padded slot is a flagged zero, a child slot an unflagged variable
                    assert layer.truncated == (not layer), (generators, sym)
                    padded += layer.truncated
                    children += not layer.truncated
    assert children and padded
