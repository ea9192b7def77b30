import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import psibench.atiyah as atiyah
import psibench.rings as rings
import psibench.steenrod as steenrod
from psibench.atiyah import (AtiyahDecomposition, PrePsiAlgebra,
                             atiyah_decompose, atiyah_product, atiyah_sum,
                             explicit_lift_decomposition, graded_classes_agree,
                             random_element, verify_welldefined,
                             zero_decomposition)
from psibench.documents import algebra_from_document, algebra_to_document
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             free_polynomial_presentation, product_projective_spaces,
                             projective_space_ring)
from psibench.rings import UNIT
from psibench.steenrod import check_exactness, classify
from psibench.verdicts import FAIL
from splitting_calculus import (atiyah_shift, calculus_decompose, monomial_decomposition,
                                scalar_decomposition)


def test_dual_numbers_psi_and_layers():
    for p in (2, 3, 5):
        for k in (1, 2, p + 1):
            A = dual_numbers_ring(p, k)
            e = A.ring.gen("e")
            assert A.apply_psi(e) == e * (p * p * k)
            d = atiyah_decompose(A, e, 2)
            assert d.layers == (e * k, A.ring.zero(), A.ring.zero())
            assert d.problems() == []


def test_broken_adem_psi_formula():
    # p^(p-1) x + p^(p-3) x^3 + ... + p x^(p-1) + x^p, no x^2 term
    for p in (3, 5):
        A = adem_failure_ring(p, D=p * (p - 1))  # wide enough to see x^p
        x = A.ring.gen("x")
        expected = A.ring.zero()
        for i in range(1, p + 1):
            if i != 2:
                expected = expected + x**i * p ** (p - i)
        assert A.apply_psi(x) == expected
        d = atiyah_decompose(A, x, p - 1)
        assert d.layers[0] == x
        assert not d.layers[1]
        for i in range(2, p):
            assert d.layers[i] == x ** (i + 1)
        assert d.layers[p - 1] == x**p
        assert d.problems() == []


def test_scalar_decomposition_fermat():
    A = adem_failure_ring(3)
    d = scalar_decomposition(A, 2)
    assert d.layers[0] == A.ring.scalar(-2)
    assert d.layers[1] == A.ring.scalar(8)
    assert d.weighted_sum() == A.ring.scalar(2)
    assert d.problems() == []


def test_layer_reads_the_top_at_the_level():
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    d0 = atiyah_decompose(A, t, 0)  # (r', t^3): P^0 reads the top
    assert d0.layer(0) == t**3 and not d0.layer(1)
    d1 = atiyah_decompose(A, t, 1)
    assert [d1.layer(i) for i in range(3)] == [d1.layers[0], t**3, A.ring.zero()]
    z = zero_decomposition(A, 0)
    assert len(z.layers) == 2 and not z.layer(0) and not z.weighted_sum()


def test_decomposition_needs_one_layer_per_level_and_a_top():
    A = projective_space_ring(3, 4)
    t, z = A.ring.gen("t"), A.ring.zero()
    assert AtiyahDecomposition(A, t, 0, [z, t**3]).layers == (z, t**3)
    for level, layers in ((0, (z,)), (0, (z, z, z)), (2, (z, z)), (2, (z, z, z, z))):
        with pytest.raises(ValueError, match=f"level-{level} decomposition needs "
                                             f"{max(level, 1) + 1} layers, got {len(layers)}"):
            AtiyahDecomposition(A, t, level, layers)


# -- the splitting calculus (tests/splitting_calculus.py) --------------------------------
# The oracle that the band splitting of ``atiyah_decompose`` is compared with
# (tests/test_band_formula.py, tests/test_welldefined.py) builds splittings
# from sums, products and shifts; these pin its rules.


def test_square_of_generator_layers():
    # psi(x)^2 = (9x + x^3)^2 = 81 x^2 + 18 x^4 + x^6 peels to (x^2,0,2x^4,0,x^6)
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    dx = calculus_decompose(A, x, 2)
    d = atiyah_product(dx, dx)
    assert d.level == 4
    assert d.layers == (x**2, A.ring.zero(), x**4 * 2, A.ring.zero(), x**6)
    assert d.problems() == []


def test_product_unit_and_level_additivity():
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    dx = calculus_decompose(A, x, 2)
    done = scalar_decomposition(A, 1)
    prod = atiyah_product(done, dx)
    assert prod.level == dx.level
    assert prod.layers == dx.layers
    d2 = atiyah_product(dx, atiyah_product(dx, dx))
    assert d2.level == 6
    assert d2.problems() == []


def test_product_zero_level_branches():
    A = adem_failure_ring(3, D=12)
    d2 = scalar_decomposition(A, 2)
    d5 = scalar_decomposition(A, 5)
    both = atiyah_product(d2, d5)
    assert both.level == 0
    assert both.weighted_sum() == A.ring.scalar(10)
    assert both.problems() == []
    x = A.ring.gen("x")
    dx = calculus_decompose(A, x, 2)
    mixed = atiyah_product(d2, dx)
    assert mixed.level == 2
    assert mixed.weighted_sum() == A.apply_psi(x * 2)
    assert mixed.problems() == []
    swapped = atiyah_product(dx, d2)
    assert swapped.weighted_sum() == mixed.weighted_sum()
    # a level-0 summand takes the level-1 rule: dx's layers below its top
    # fold into layer 0 with their p-powers
    total = atiyah_sum(d2, dx)
    assert total.level == 0
    assert total.weighted_sum() == A.apply_psi(x + 2)
    assert total.layers[1] == (x + 2) ** 3
    assert total.problems() == []


def test_sum_with_zero_is_identity():
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    dx = calculus_decompose(A, x, 2)
    for level in (2, 4):
        combined = atiyah_sum(dx, zero_decomposition(A, level))
        assert combined.level == 2
        assert combined.layers == dx.layers
        assert combined.problems() == []


def test_sum_across_levels_exact():
    # x at level 2 plus x^2 at level 4: the combined splitting of x + x^2
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    dx = calculus_decompose(A, x, 2)
    dxx = atiyah_product(dx, dx)
    combined = atiyah_sum(dx, dxx)
    assert combined.level == 2
    assert combined.weighted_sum() == A.apply_psi(x + x**2)
    assert combined.problems() == []


def test_sum_is_independent_of_summand_order():
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    dx = calculus_decompose(A, x, 2)
    dxx = atiyah_product(dx, dx)
    assert atiyah_sum(dxx, dx) == atiyah_sum(dx, dxx)


def test_sum_correction_is_the_binomial_middle():
    # atiyah_sum subtracts the c with (r+s)^p = r^p + s^p + p*c from the
    # layer below the top
    A = projective_space_ring(2, 4)
    t = A.ring.gen("t")
    dt = calculus_decompose(A, t, 1)
    # (1/2) binom(2,1) = 1, so the correction for r = s is r*s = t^2
    assert atiyah_sum(dt, dt).layers == (dt.layers[0] * 2 - t**2, (t * 2) ** 2)
    for p in (3, 5):
        B = adem_failure_ring(p, D=2 * p * (p - 1))
        x = B.ring.gen("x")
        dx, dxx = calculus_decompose(B, x, p - 1), calculus_decompose(B, x**2, 2 * (p - 1))
        combined = atiyah_sum(dx, dxx)
        c = dx.layers[p - 2] + dxx.layers[2 * p - 3] - combined.layers[p - 2]
        assert (x + x**2) ** p - c * p == x**p + x ** (2 * p)
        assert c == sum((x ** (p + i) * (math.comb(p, i) // p) for i in range(1, p)),
                        B.ring.zero())
        assert combined.problems() == []


def test_shift_golden():
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    d = calculus_decompose(A, t, 1)
    shifted = atiyah_shift(d, 0)
    assert shifted.level == 0
    assert shifted.layers == (d.layers[0], t**3)
    assert shifted.weighted_sum() == A.apply_psi(t)

    B = adem_failure_ring(3, D=12)
    x = B.ring.gen("x")
    d2 = calculus_decompose(B, x, 2)
    down = atiyah_shift(d2, 0)
    assert down.level == 0
    assert down.weighted_sum() == B.apply_psi(x)
    assert down.layers[1] == x**3
    with pytest.raises(ValueError):
        atiyah_shift(down, 0)


def test_shift_coherence_in_graded():
    # decompose at q-1 and shift of decompose at q have equal layer classes
    for A, gen, q in ((adem_failure_ring(3, D=12), "x", 2),
                      (projective_space_ring(2, 5), "t", 3)):
        e = A.ring.gen(gen) ** (q * 2 // A.ring.symbol(gen).weight)
        direct = calculus_decompose(A, e, q - 1)
        shifted = atiyah_shift(calculus_decompose(A, e, q), q - 1)
        layers = range(1, q) if q - 1 > 0 else [1]
        for i in layers:
            w = 2 * (q - 1) + 2 * i * (A.p - 1)
            if w <= A.ring.max_weight:
                assert graded_classes_agree(A, direct.layers[i], shifted.layers[i], w) is True


# -- the pairwise rule as an oracle ----------------------------------------------------
# The calculus adds all term splittings in one atiyah_sum and shifts once.
# The reference below is the rule that replaced: terms in monomial order,
# splittings folded two at a time lowest level first, each pair corrected by
# its three tops, then shifted down one level at a time.


def _pairwise_sum(da, db):
    p = da.algebra.p
    t = da.source + db.source
    top = t**p
    a, b = len(da.layers) - 1, len(db.layers) - 1
    layers = [*da.layers[:a], top]
    layers[a - 1] = layers[a - 1] - (top - da.layers[-1] - db.layers[-1]).exact_div(p)
    shift = b - a
    for j in range(b):
        if j <= shift:
            layers[0] = layers[0] + db.layers[j] * p ** (shift - j)
        else:
            layers[j - shift] = layers[j - shift] + db.layers[j]
    return AtiyahDecomposition(da.algebra, t, da.level, layers)


def _single_shift(d):
    q, p = d.level, d.algebra.p
    if q == 1:
        return AtiyahDecomposition(d.algebra, d.source, 0, d.layers)
    layers = [l * p for l in d.layers[:q - 2]]
    layers += [d.layers[q - 2] * p + d.layers[q - 1], d.layers[q]]
    return AtiyahDecomposition(d.algebra, d.source, q - 1, layers)


def _pairwise_decompose(A, e, q):
    pieces = []
    for m, c in sorted(e.terms.items()):
        if m == UNIT:
            pieces.append(scalar_decomposition(A, c))
            continue
        d = monomial_decomposition(A, m)
        pieces.append(d if c == 1 else atiyah_product(scalar_decomposition(A, c), d))
    pieces.sort(key=lambda d: d.level)
    acc = pieces[0]
    for nxt in pieces[1:]:
        acc = _pairwise_sum(acc, nxt)
    while acc.level > q:
        acc = _single_shift(acc)
    return acc


def test_one_sum_and_one_shift_match_the_pairwise_rule():
    models = [projective_space_ring(2, 4), projective_space_ring(3, 5),
              projective_space_ring(7, 2), product_projective_spaces(2, 2, 3),
              product_projective_spaces(5, 2, 2), adem_failure_ring(3),
              adem_failure_ring(5), dual_numbers_ring(3, 2),
              build_lift(free_polynomial_presentation(2, 6)).pi]
    assert {A.p for A in models} == {2, 3, 5, 7}
    rng = random.Random(22)
    seen = {"cases": 0, "truncated": 0, "constant": 0, "negative": 0}
    while seen["cases"] < 2400:
        A = models[seen["cases"] % len(models)]
        e = random_element(A, rng, min_weight=2 * rng.randrange(A.ring.top_weight() // 2 + 1),
                           max_terms=5)
        if not e:
            continue
        for q in range(e.weight() // 2 + 1):
            ref, got = _pairwise_decompose(A, e, q), calculus_decompose(A, e, q)
            assert (got.level, got.layers) == (ref.level, ref.layers), (A, str(e), q)
            flags = [(d.truncated, d.source.truncated, [l.truncated for l in d.layers])
                     for d in (got, ref)]
            assert flags[0] == flags[1], (A, str(e), q)
            seen["cases"] += 1
            seen["truncated"] += ref.truncated
            seen["constant"] += UNIT in e.terms
            seen["negative"] += min(e.terms.values()) < 0
    assert all(seen.values()) and seen["truncated"] < seen["cases"]


def test_decompose_errors():
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    with pytest.raises(ValueError):
        atiyah_decompose(A, A.ring.zero(), 0)
    with pytest.raises(ValueError):
        atiyah_decompose(A, x, 3)  # 2q = 6 > weight 4
    with pytest.raises(ValueError):
        atiyah_decompose(A, x.reduce_mod(3), 2)


def test_decompose_mixed_terms_at_q0():
    A = adem_failure_ring(3, D=12)
    x = A.ring.gen("x")
    e = A.ring.scalar(7) + x * 2
    d = atiyah_decompose(A, e, 0)
    assert d.level == 0
    assert d.weighted_sum() == A.apply_psi(e)
    assert d.layers[1] == e**3


def test_randomized_exactness_all_golden_rings():
    rng = random.Random(11)
    rings = [dual_numbers_ring(3, 2), dual_numbers_ring(2, 3),
             adem_failure_ring(3), adem_failure_ring(5),
             projective_space_ring(2, 6), projective_space_ring(3, 6)]
    for A in rings:
        for _ in range(25):
            e = random_element(A, rng, min_weight=0)
            if not e:
                continue
            qmax = int(e.weight() // 2)
            q = rng.randrange(0, qmax + 1)
            d = atiyah_decompose(A, e, q)
            assert d.problems() == [], (A.name, str(e), q)


def test_apply_psi_is_a_ring_map_and_frobenius_congruence():
    rng = random.Random(5)
    for A in (adem_failure_ring(3), projective_space_ring(2, 5)):
        p = A.p
        for _ in range(20):
            a = random_element(A, rng, min_weight=0)
            b = random_element(A, rng, min_weight=0)
            assert A.apply_psi(a + b) == A.apply_psi(a) + A.apply_psi(b)
            assert A.apply_psi(a * b) == A.apply_psi(a) * A.apply_psi(b)
            diff = A.apply_psi(a) - a**p
            assert all(c % p == 0 for c in diff.terms.values())
        assert A.apply_psi(A.ring.one()) == A.ring.one()


def test_apply_psi_is_a_ring_map(free_ring):
    # psi(x) = 3(x + x^2) + x^3 and psi(y) = 18y + 3x^4 + y^3 on Z[x, y] with
    # D = 8, where products lose their terms above weight 16
    x, y = free_ring.gen("x"), free_ring.gen("y")
    A = PrePsiAlgebra(free_ring, 3, {("x", ()): (x + x**2) * 3, ("y", ()): y * 18 + x**4 * 3})
    a, b = x * 3 + y, x**2 - y
    assert A.apply_psi(a + b) == A.apply_psi(a) + A.apply_psi(b)
    assert A.apply_psi(a * b) == A.apply_psi(a) * A.apply_psi(b)
    assert A.apply_psi(free_ring.scalar(5)) == free_ring.scalar(5)


def _psi_samples(A, count=40):
    rng = random.Random(11)
    return [random_element(A, rng, min_weight=0, max_terms=6) for _ in range(count)]


def _psi_values(A, elements):
    return [(list(v.terms.items()), v.truncated) for v in map(A.apply_psi, elements)]


def test_psi_memo_values_are_recomputed_alike():
    A = projective_space_ring(3, 6)
    elements = _psi_samples(A)
    first = _psi_values(A, elements)
    assert A.psi.memo
    assert _psi_values(A, elements) == first      # read from the memo
    A.psi.memo.clear()
    assert _psi_values(A, elements) == first      # recomputed
    lift = build_lift(free_polynomial_presentation(2, 6))
    iterates = lift.ideal_generators
    lift.pi.psi.memo.clear()
    for k in range(1, lift.k_max + 1):
        assert [lift.pi.apply_psi(f) for f in iterates[k - 1]] == list(iterates[k])


def test_psi_memo_is_per_algebra():
    A, B = projective_space_ring(3, 6), projective_space_ring(3, 6)
    _psi_values(A, _psi_samples(A))
    assert A.psi.memo and not B.psi.memo
    assert A.psi.memo is not B.psi.memo


@pytest.mark.parametrize("make, size, held", [
    (lambda: projective_space_ring(3, 6), 3, 3),
    (lambda: projective_space_ring(3, 6), 0, 0),
    # two generators: the bound stretches to cover 4 monomials, 3 * ceil(4 / 3)
    (lambda: product_projective_spaces(3, 2, 2), 3, 6),
], ids=["3", "0", "two-generators"])
def test_psi_memo_stays_bounded_with_unchanged_values(monkeypatch, make, size, held):
    reference = make()
    want = _psi_values(reference, _psi_samples(reference))
    monkeypatch.setattr(rings, "SPLITTING_CACHE_SIZE", size)
    A = make()
    elements = _psi_samples(A)
    assert _psi_values(A, elements) == want
    assert len(A.psi.memo) == held
    assert _psi_values(A, elements) == want


def test_layer_weight_contracts():
    A = projective_space_ring(3, 6)
    t = A.ring.gen("t")
    for q in (1, 2, 3):
        d = atiyah_decompose(A, t**q, q)
        for i, layer in enumerate(d.layers if q else ()):
            assert layer.weight() >= 2 * q + 2 * i * (A.p - 1)


def test_problems_report_each_broken_contract():
    # psi(t) = 3*(t + t^2) + t^3 on CP^4 at p = 3; each hand-built splitting
    # breaks exactly one clause of the contract
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    low, top = atiyah_decompose(A, t, 1).layers
    wrong_sum = AtiyahDecomposition(A, t, 1, (low + t**2, top))
    assert wrong_sum.problems() == ["weighted layer sum differs from psi(source)"]
    wrong_top = AtiyahDecomposition(A, t, 1, (low + t**3, top * -2))
    assert wrong_top.problems() == ["top layer is not source^p"]
    # level 2 of t^2: 3*t^2 moved from layer 0 (weight >= 4) to layer 1 (>= 8)
    d = atiyah_decompose(A, t**2, 2)
    too_low = AtiyahDecomposition(A, t**2, 2, (d.layers[0] - t**2, d.layers[1] + t**2 * 3,
                                               d.layers[2]))
    assert too_low.problems() == ["layer 1 has weight 4 < 8"]


_CP = projective_space_ring(3, 5)
_CP_MONOS = [UNIT] + [m for w in range(2, _CP.ring.max_weight + 1, 2)
                    for m in _CP.ring.monomials_of_weight(w)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decompose_exactness_property(data):
    terms = data.draw(st.lists(
        st.tuples(st.sampled_from(_CP_MONOS), st.integers(-9, 9)),
        min_size=1, max_size=4))
    e = _CP.ring.element({m: c for m, c in terms})
    assume(bool(e))
    qmax = int(e.weight() // 2)
    q = data.draw(st.integers(0, qmax))
    d = atiyah_decompose(_CP, e, q)
    assert d.problems() == []


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sum_and_product_identities_property(data):
    monos = [m for m in _CP_MONOS if m != UNIT]
    a = _CP.ring.element({data.draw(st.sampled_from(monos)): data.draw(st.integers(-5, 5))})
    b = _CP.ring.element({data.draw(st.sampled_from(monos)): data.draw(st.integers(-5, 5))})
    assume(bool(a) and bool(b))
    da = calculus_decompose(_CP, a, int(a.weight() // 2))
    db = calculus_decompose(_CP, b, int(b.weight() // 2))
    prod = atiyah_product(da, db)
    assert prod.level == da.level + db.level
    assert prod.problems() == []
    lo, hi = (da, db) if da.level <= db.level else (db, da)
    total = atiyah_sum(lo, hi)
    assert total.problems() == []


def test_generator_data_validation():
    """The constructor refuses, naming the generator, every image below the
    top that no layer splitting writes; x has weight 4, so sigma = 2."""
    from psibench.atiyah import PrePsiAlgebra
    from psibench.rings import GeneratorSymbol, WeightedRing
    x = GeneratorSymbol("x", (), 4)
    ring = WeightedRing([x], 8)
    xe = ring.var(x)
    refusals = [
        # a term below weight 2*sigma: a band_cut would file it under band -1
        ({x.key: xe * 9 + 3}, r"^the psi image of x has a term below weight 4$"),
        # psi(x) - x^3 = 3x: band 0 must divide by p^2
        ({x.key: xe * 3},
         r"^the psi image of x does not cut into layers: coefficient 3 not divisible by 9$"),
        # a whole psi(x) passed in: x^3 lands in the last band, which p must divide
        ({x.key: xe * 9 + xe**3},
         r"^the psi image of x does not cut into layers: coefficient 1 not divisible by 3$"),
    ]
    needs = r"^generator x needs its psi image below the top as an integral element of the ring$"
    refusals += [({x.key: xe.reduce_mod(3)}, needs), ({}, needs)]
    for images, message in refusals:
        with pytest.raises(ValueError, match=message):
            PrePsiAlgebra(ring, 3, images)
    # the same image with its top left out loads, and psi adds the top back
    A = PrePsiAlgebra(ring, 3, {x.key: xe * 9})
    assert A.apply_psi(xe) == xe * 9 + xe**3


# -- the one cache: psi's monomial memo -----------------------------------------------


def _same_splitting(a, b):
    return (a.level == b.level and a.source == b.source and a.layers == b.layers
            and a.truncated == b.truncated)


def test_splitting_cache_warm_equals_cold():
    """Splittings read psi's monomial memo and keep no cache of their own:
    read again, read after the memo is cleared, and read off a copy of the
    element flagged truncated, they have the same layers."""
    rng = random.Random(23)
    for A in (projective_space_ring(3, 5), adem_failure_ring(3), dual_numbers_ring(2, 3)):
        cases = []
        for _ in range(12):
            e = random_element(A, rng, min_weight=0)
            if e:
                cases.extend((e, q) for q in range(int(e.weight() // 2) + 1))
        warm = [atiyah_decompose(A, e, q) for e, q in cases]
        assert A.psi.memo
        for (e, q), d in zip(cases, warm):
            assert _same_splitting(atiyah_decompose(A, e, q), d)
        A.psi.memo.clear()
        for (e, q), d in zip(cases, warm):
            assert _same_splitting(atiyah_decompose(A, e, q), d), (A.name, str(e), q)
            flagged = atiyah_decompose(A, A.ring.element(e.terms, truncated=True), q)
            assert flagged.layers == d.layers and flagged.truncated
        # input checks come first
        x = A.ring.var(A.ring.generators[0])
        atiyah_decompose(A, x, 0)
        with pytest.raises(ValueError):
            atiyah_decompose(A, x.reduce_mod(A.p), 0)
        with pytest.raises(ValueError):
            atiyah_decompose(A, x, -1)


def test_splitting_cache_is_per_algebra():
    doc = algebra_to_document(projective_space_ring(3, 4))
    A, B = algebra_from_document(doc), algebra_from_document(doc)
    d = atiyah_decompose(A, A.ring.gen("t") ** 2 * 2, 2)
    assert A.psi.memo and not B.psi.memo
    e = B.ring.gen("t") ** 2 * 2
    dB = atiyah_decompose(B, e, 2)
    assert dB.algebra is B and all(layer.ring is B.ring for layer in dB.layers)
    assert [str(layer) for layer in dB.layers] == [str(layer) for layer in d.layers]
    with pytest.raises(ValueError):
        atiyah_decompose(A, e, 2)


def test_splitting_cache_bound(monkeypatch):
    def cases(A):
        t = A.ring.gen("t")
        return [t**4, t + t**3, t * 2 + t**2, t**5, t**3 * 7]

    reference = projective_space_ring(3, 5)
    want = [[str(layer) for layer in atiyah_decompose(reference, e, 1).layers]
            for e in cases(reference)]
    monkeypatch.setattr(rings, "SPLITTING_CACHE_SIZE", 3)
    A = projective_space_ring(3, 5)
    for e, layers in zip(cases(A), want):
        d = atiyah_decompose(A, e, 1)
        assert d.problems() == [] and [str(layer) for layer in d.layers] == layers
        assert len(A.psi.memo) <= 3
    assert len(A.psi.memo) == 3


def test_memoized_operations_keep_the_adem_witness(monkeypatch):
    memoized = classify(adem_failure_ring(3))
    monkeypatch.setattr(rings, "SPLITTING_CACHE_SIZE", 0)  # no memo at all
    A = adem_failure_ring(3)
    plain = classify(A)
    assert not A.psi.memo
    assert memoized.label == plain.label == "pre-psi-p"
    adem = memoized.verdict("adem")
    assert adem.status == FAIL and adem.to_dict() == plain.verdict("adem").to_dict()
    assert (adem.witness["i"], adem.witness["j"]) == (1, 1)


def test_welldefined_runs_the_explicit_oracle_on_every_trial(monkeypatch):
    A = projective_space_ring(3, 4)
    real, calls = atiyah.explicit_lift_decomposition, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(atiyah, "explicit_lift_decomposition", counted)
    v = verify_welldefined(A, A.ring.gen("t"), 1, trials=7, seed=0)
    assert v.passed and len(calls) == 7
    # each trial compares the two layers engine-vs-engine and oracle-vs-engine
    assert v.checked + v.skipped == 7 * 2 * 2


def _poison(monkeypatch, hit):
    """Replace the engine, where atiyah and steenrod call it, by one whose
    splittings of the sources that ``hit`` accepts gain their source in
    layer 0."""
    engine = atiyah.atiyah_decompose

    def poisoned(algebra, e, q):
        d = engine(algebra, e, q)
        if not hit(e):
            return d
        return AtiyahDecomposition(algebra, e, q, (d.layers[0] + e,) + d.layers[1:])

    for module in (atiyah, steenrod):
        monkeypatch.setattr(module, "atiyah_decompose", poisoned)


def test_poisoned_splitting_engine_is_caught(monkeypatch):
    """A wrong splitting is caught: the exactness check and the explicit
    well-definedness oracle compare against data the engine's output does not
    supply (psi of the source, and splittings of h and f rather than of s)."""
    A = projective_space_ring(3, 4)
    t = A.ring.gen("t")
    _poison(monkeypatch, lambda e: True)
    v = check_exactness(A, 2, trials=2, seed=0)
    assert v.status == FAIL
    assert v.witness["class"] == "t" and v.witness["problems"]
    # every splitting gains its source, so the engine-vs-engine comparison
    # alone agrees; the explicit oracle does not
    v = verify_welldefined(A, t, 1, trials=3, seed=0)
    assert v.status == FAIL
    assert v.witness["oracle"] == "explicit construction is inexact"
    # the count stops at the witness: the two layers of trial 0 agreed first
    assert (v.witness["trial"], v.checked, v.skipped) == (0, 2, 0)

    # only the splitting of s is wrong: the explicit construction never
    # splits s, so it disagrees with that splitting
    monkeypatch.undo()
    good = atiyah_decompose(A, t, 1)
    h, f = t, t**2
    s = t + h * 3 + f
    true_ds = atiyah_decompose(A, s, 1)
    _poison(monkeypatch, lambda e: e == s)
    dx = explicit_lift_decomposition(A, t, good, h, f)
    assert dx.weighted_sum() == A.apply_psi(s)
    assert graded_classes_agree(A, dx.layers[0], true_ds.layers[0], 2) is True
    poisoned = atiyah.atiyah_decompose(A, s, 1)
    assert graded_classes_agree(A, dx.layers[0], poisoned.layers[0], 2) is False
