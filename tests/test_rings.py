import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psibench.groebner import groebner_build, normal_form
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, free_polynomial_presentation,
                             product_projective_spaces, projective_space_ring)
from psibench.rings import (UNIT, Element, GeneratorSymbol, WeightedRing, even_filtration,
                            mono_div, mono_divides, mono_mul, mono_weight)


def mono_key(pairs):
    """The graded order on (generator, exponent) pairs, written out: total
    weight first, then lexicographic with heavier-sorted generators more
    significant.  The reference that a monomial's own tuple order must equal."""
    return (sum(g.weight * e for g, e in pairs),
            tuple(sorted(((g.sort_key, e) for g, e in pairs), reverse=True)))


def test_generator_symbol_validation():
    with pytest.raises(ValueError):
        GeneratorSymbol("x", (), 3)
    with pytest.raises(ValueError):
        GeneratorSymbol("x", (), 0)
    with pytest.raises(ValueError):
        GeneratorSymbol("x", (), -2)
    x = GeneratorSymbol("x", [1, 0], 4)
    assert x.indices == (1, 0) and type(x.indices) is tuple
    assert x == GeneratorSymbol("x", (1, 0), 4)
    assert hash(x) == hash(("x", (1, 0), 4))
    assert GeneratorSymbol("x") == GeneratorSymbol("x", (), 2)


def test_ring_validation():
    x = GeneratorSymbol("x", (), 2)
    with pytest.raises(ValueError):
        WeightedRing([x, GeneratorSymbol("x", (), 4)], 4)
    with pytest.raises(ValueError):
        WeightedRing([x], 0)
    # a relation symbol must be the ring's generator, weight included
    with pytest.raises(ValueError):
        WeightedRing([x], 4, [((GeneratorSymbol("x", (), 4), 2),)])
    # a generator must fit in the window 2D
    WeightedRing([GeneratorSymbol("e", (), 4)], 2)
    with pytest.raises(ValueError, match="beyond 2D"):
        WeightedRing([GeneratorSymbol("e", (), 4)], 1)


def test_even_filtration_collapse():
    assert even_filtration(3) == 4
    assert even_filtration(4) == 4
    assert even_filtration(0) == 0


def test_weight_of_zero_and_units(free_ring):
    assert free_ring.zero().weight() == math.inf
    x = free_ring.gen("x")
    assert (free_ring.scalar(7) + x).weight() == 0
    assert x.weight() == 2
    y = free_ring.gen("y")
    assert y.weight() == 4


def test_ring_identity(free_ring):
    x = free_ring.gen("x")
    one = free_ring.one()
    assert (one + x) * (one - x) == one - x**2


def test_square_zero_relation():
    e = GeneratorSymbol("e", (), 4)
    ring = WeightedRing([e], 8, monomial_relations=[((e, 2),)])
    ee = ring.var(e)
    assert not ee * ee
    assert not (ee * ee).truncated  # killed by a relation, not by the window
    assert ring.max_monomial_weight() == 4


def test_a_term_the_relations_kill_is_zero_not_dropped():
    # t^3 = 0 and u is free; the window 2D = 4 ends below both cubes
    t, u = GeneratorSymbol("t", (), 2), GeneratorSymbol("u", (), 2)
    ring = WeightedRing([t, u], 2, monomial_relations=[((t, 3),)])
    te, ue = ring.var(t), ring.var(u)
    assert not (te**2 * te).truncated
    assert not ring.element({ring.monomial([(t, 3)]): 1}).truncated
    assert (ue**2 * ue).truncated
    assert ring.element({ring.monomial([(u, 3)]): 1}).truncated
    assert ((te + ue) * te**2).truncated  # t^3 is killed, u*t^2 is lost


def test_truncation_semantics():
    x = GeneratorSymbol("x", (), 4)
    ring = WeightedRing([x], 6)
    xe = ring.var(x)
    for k in range(4, 7):
        v = xe**k
        assert not v and v.truncated
    assert xe**3  # weight 12 = 2D survives


def test_truncation_flag_sticky_and_component_exact():
    x = GeneratorSymbol("x", (), 2)
    ring = WeightedRing([x], 3)
    xe = ring.var(x)
    big = (ring.one() + xe) ** 5  # powers above x^3 dropped
    assert big.truncated
    assert (big + ring.one()).truncated
    comp = big.homogeneous_component(2)
    assert not comp.truncated
    assert comp == xe * 5


def test_reduce_mod_p(free_ring):
    x = free_ring.gen("x")
    e = x * 3 + x**2 * 5
    r = e.reduce_mod(3)
    assert r == (x**2).reduce_mod(3) * 2
    assert not free_ring.zero().reduce_mod(3)
    # 9x + x^3 at p=3 leaves only the cube
    e2 = x * 9 + x**3
    assert e2.reduce_mod(3) == (x**3).reduce_mod(3)


def test_integer_lift_round_trip(free_ring):
    x = free_ring.gen("x")
    e = (x * 2 + free_ring.one()).reduce_mod(3)
    assert e.integer_lift().reduce_mod(3) == e


def test_exact_div(free_ring):
    x = free_ring.gen("x")
    assert (x * 6).exact_div(3) == x * 2
    with pytest.raises(ArithmeticError):
        (x * 5).exact_div(3)


def test_mismatched_contexts(free_ring):
    other = WeightedRing([GeneratorSymbol("x", (), 2)], 8)
    with pytest.raises(ValueError):
        free_ring.gen("x") + other.gen("x")
    with pytest.raises(ValueError):
        free_ring.gen("x") + free_ring.gen("x").reduce_mod(3)


def test_monomials_of_weight(free_ring):
    # weight 4: x^2 and y
    monos = free_ring.monomials_of_weight(4)
    assert len(monos) == 2
    assert free_ring.monomials_of_weight(0) == [UNIT]
    with pytest.raises(ValueError):
        free_ring.monomials_of_weight(18)


def test_monomial_order_is_graded(free_ring):
    x = free_ring.symbol("x")
    y = free_ring.symbol("y")
    mono = free_ring.monomial
    assert mono([(x, 1)]) < mono([(y, 1)])       # weight 2 < 4
    assert mono([(x, 2)]) < mono([(y, 1)])       # same weight, y is larger


# -- property tests -----------------------------------------------------------------

_RING = WeightedRing([GeneratorSymbol("x", (), 2), GeneratorSymbol("y", (), 4)], 8)


def elements(ring):
    monos = [UNIT]
    for w in range(2, ring.max_weight + 1, 2):
        monos.extend(ring.monomials_of_weight(w))
    term = st.tuples(st.sampled_from(monos), st.integers(-9, 9))
    return st.lists(term, max_size=4).map(
        lambda ts: ring.element({m: c for m, c in ts}))


@settings(max_examples=60)
@given(data=st.data())
def test_ring_axioms(data):
    s = elements(_RING)
    a, b, c = data.draw(s), data.draw(s), data.draw(s)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + _RING.zero() == a
    assert a * _RING.one() == a


@settings(max_examples=60)
@given(data=st.data())
def test_weight_multiplicativity(data):
    s = elements(_RING)
    a, b = data.draw(s), data.draw(s)
    prod = a * b
    assert prod.weight() >= a.weight() + b.weight()
    # single monomials never cancel: equality holds when nothing truncates
    if len(a.terms) == 1 and len(b.terms) == 1 and not prod.truncated:
        assert prod.weight() == a.weight() + b.weight()


@settings(max_examples=60)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_closed_under_dividing_by_p(data, p):
    e = data.draw(elements(_RING))
    assert (e * p).weight() == e.weight()


@settings(max_examples=60)
@given(data=st.data(), p=st.sampled_from([2, 3, 5]))
def test_reduce_mod_p_is_a_homomorphism(data, p):
    s = elements(_RING)
    a, b = data.draw(s), data.draw(s)
    assert (a + b).reduce_mod(p) == a.reduce_mod(p) + b.reduce_mod(p)
    assert (a * b).reduce_mod(p) == a.reduce_mod(p) * b.reduce_mod(p)


# -- monomial relations: exponent caps against a plain divisibility filter -------------

_X, _Y, _T = (GeneratorSymbol("x", (), 2), GeneratorSymbol("y", (), 4),
              GeneratorSymbol("t", (), 2))
RELATION_RINGS = {
    "x*y": ([_X, _Y], [((_X, 1), (_Y, 1))]),
    "x*y and x^4": ([_X, _Y], [((_X, 1), (_Y, 1)), ((_X, 4),)]),
    "t^3 and t^5": ([_T, _Y], [((_T, 5),), ((_T, 3),)]),
    "none": ([_X, _Y], []),
}


def _brute_force(ring, terms, mod):
    """Element.__init__'s filter with every relation a divisibility test: a
    killed term is zero, and only a surviving one above the window is dropped."""
    kept, dropped = {}, False
    for m, c in terms.items():
        c = c if mod is None else c % mod
        if c == 0 or any(mono_divides(rel, m) for rel in ring.monomial_relations):
            continue
        if mono_weight(m) > ring.max_weight:
            dropped = True
        else:
            kept[m] = c
    return kept, dropped


def _monomials(ring, exps):
    return ring.monomial((g, e) for g, e in zip(ring.generators, exps) if e)


@pytest.mark.parametrize("name", list(RELATION_RINGS))
def test_exponent_caps_match_the_divisibility_filter(name):
    gens, relations = RELATION_RINGS[name]
    ring = WeightedRing(gens, 10, relations)
    gens = ring.generators
    rng = random.Random(name)
    for mod in (None, 3):
        for _ in range(200):
            terms = {}
            for _ in range(rng.randrange(1, 8)):
                m = _monomials(ring, [rng.randrange(0, 7) for _ in gens])
                terms[m] = rng.randrange(-4, 5)
            e = Element(ring, terms, mod)
            kept, dropped = _brute_force(ring, terms, mod)
            assert e.terms == kept, (name, terms)
            assert e.truncated == dropped
            for m in terms:
                assert ring.kills(m) == any(mono_divides(r, m) for r in ring.monomial_relations)
    # the enumeration agrees with every exponent vector filtered the same way
    for w in range(0, ring.max_weight + 1, 2):
        expected = [m for exps in itertools.product(range(ring.max_weight // 2 + 1),
                                                    repeat=len(gens))
                    if mono_weight(m := _monomials(ring, exps)) == w
                    and not any(mono_divides(r, m) for r in ring.monomial_relations)]
        assert ring.monomials_of_weight(w) == sorted(
            expected, key=lambda m: mono_key(ring.symbol_pairs(m)))
    assert ring.max_monomial_weight() is None  # y has no pure-power relation


def test_max_monomial_weight_uses_the_smallest_cap():
    ring = WeightedRing([_T, _Y], 10, [((_T, 5),), ((_T, 3),), ((_Y, 2),)])
    assert ring.max_monomial_weight() == 2 * 2 + 1 * 4
    small = WeightedRing([_T, _Y], 3, [((_T, 3),), ((_Y, 2),)])
    assert small.max_monomial_weight() == 8  # not clipped to the window 2D = 6
    assert small.top_weight() == 6


def test_decidable_weights_lie_in_the_window_or_above_the_nilpotent_bound():
    small = WeightedRing([_T, _Y], 3, [((_T, 3),), ((_Y, 2),)])
    assert [w for w in range(0, 14, 2) if small.decidable(w)] == [0, 2, 4, 6, 10, 12]
    assert [w for w in range(0, 14, 2) if small.above_top(w)] == [10, 12]
    free = WeightedRing([_T, _Y], 3)
    assert [w for w in range(0, 14, 2) if free.decidable(w)] == [0, 2, 4, 6]
    assert not any(free.above_top(w) for w in range(0, 14, 2))


def _ladder(ring, start, step, count):
    """``targets`` written out index by index: stop above the top monomial,
    skip what truncation cannot decide, compare the rest."""
    compared = skipped = 0
    for i in range(count):
        target = start + i * step
        if ring.above_top(target):
            break
        if not ring.decidable(target):
            skipped += 1
        else:
            assert not skipped, "a compared target after a skipped one"
            compared += 1
    return compared, skipped


@pytest.mark.parametrize("ring", [
    adem_failure_ring(3).ring,               # free: no top monomial, 2D = 18
    projective_space_ring(3, 4).ring,        # top 8 below 2D
    WeightedRing([_T, _Y], 3, [((_T, 3),), ((_Y, 2),)]),  # top 8 above 2D = 6
], ids=["free", "top-below-window", "top-above-window"])
def test_targets_agree_with_the_per_index_ladder(ring):
    for start in range(0, 24):
        for step in range(1, 7):
            for count in range(0, 9):
                assert ring.targets(start, step, count) == _ladder(ring, start, step, count), \
                    (start, step, count)


# -- the monomial key against the written-out order ------------------------------------

KEY_RINGS = {
    "lift p=2 D=8": lambda: free_polynomial_presentation(2, 8).ring,
    "product-projective(3, 3, 3)": lambda: product_projective_spaces(3, 3, 3).ring,
}


def _symbol_monomials(ring, rng, count):
    """Random monomials as (generator, exponent) pairs: none to three
    distinct generators in random order, exponents 1 to 3."""
    return [[(g, rng.randint(1, 3))
             for g in rng.sample(ring.generators, rng.randint(0, min(3, len(ring.generators))))]
            for _ in range(count)]


@pytest.mark.parametrize("name", list(KEY_RINGS))
def test_monomial_tuple_order_is_the_graded_order(name):
    ring = KEY_RINGS[name]()
    pairs = _symbol_monomials(ring, random.Random(name), 300)
    monos = [ring.monomial(p) for p in pairs]
    keys = [mono_key(p) for p in pairs]
    for a, ka in zip(monos, keys):
        for b, kb in zip(monos, keys):
            assert (a < b, a == b) == (ka < kb, ka == kb)
    for p, m in zip(pairs, monos):
        assert mono_weight(m) == sum(g.weight * e for g, e in p)
        assert ring.symbol_pairs(m) == tuple(sorted(p, key=lambda ge: ge[0].sort_key))
    # equal weights and shared generators, where only the lexicographic part decides
    t, u = ring.generators[:2]
    if t.weight == u.weight:
        assert ring.monomial([(t, 1), (u, 2)]) > ring.monomial([(t, 2), (u, 1)])


@pytest.mark.parametrize("name", list(KEY_RINGS))
def test_monomial_arithmetic_agrees_with_exponent_dicts(name):
    ring = KEY_RINGS[name]()
    rng = random.Random(name)
    pairs = _symbol_monomials(ring, rng, 300)
    # divisors of earlier monomials, so that division succeeds often
    pairs += [[(g, rng.randint(1, e)) for g, e in p if rng.random() < 0.7] for p in pairs]

    def expect(exps):
        return (sum(g.weight * e for g, e in exps.items()),
                tuple(sorted(((g, e) for g, e in exps.items() if e), key=lambda ge: ge[0].sort_key)))

    def got(m):
        return mono_weight(m), ring.symbol_pairs(m)

    for pa, pb in zip(pairs, pairs[::-1] + pairs[:1]):
        a, b = ring.monomial(pa), ring.monomial(pb)
        da, db = dict(pa), dict(pb)
        assert got(mono_mul(a, b)) == expect({g: da.get(g, 0) + db.get(g, 0) for g in da | db})
        divides = all(db.get(g, 0) >= e for g, e in da.items())
        assert mono_divides(a, b) == divides
        if divides:
            assert got(mono_div(b, a)) == expect({g: e - da.get(g, 0) for g, e in db.items()})
        else:
            with pytest.raises(ArithmeticError):
                mono_div(b, a)
        assert mono_div(mono_mul(a, b), a) == b
        lcm = {g: max(da.get(g, 0), db.get(g, 0)) for g in da | db}
        assert got(ring.lcm(a, b)) == expect(lcm)
        assert ring.lcm(a, b) == ring.lcm(b, a) == ring.monomial(lcm.items())
    for i, g in enumerate(ring.generators):
        for e in (1, 2, 5):
            assert ring.power(i, e) == ring.monomial([(g, e)])


# -- results built without the filter pass it unchanged ------------------------------

_E = GeneratorSymbol("e", (), 4)
CLEAN_RINGS = {
    "free": lambda: WeightedRing([_X, _Y, _T], 4),
    "relations": lambda: WeightedRing([_X, _Y, _T], 4, [((_X, 1), (_Y, 1)), ((_T, 3),)]),
    "nilpotent": lambda: WeightedRing([_T, _E], 5, [((_T, 4),), ((_E, 2),)]),
}


def _random_element(ring, rng, mod, flagged=False):
    """Up to five terms with small coefficients, some at the window's edge
    or beyond it, built through the filter."""
    terms = {}
    for _ in range(rng.randrange(6)):
        m = ring.monomial((g, rng.randrange(4)) for g in ring.generators)
        terms[m] = terms.get(m, 0) + rng.randint(-3, 3)
    return Element(ring, terms, mod, flagged)


def _assert_clean(r):
    again = Element(r.ring, dict(r.terms), r.mod, r.truncated)
    assert list(again.terms.items()) == list(r.terms.items()), r
    assert again.truncated == r.truncated


def _squaring_power(e, n):
    result, base = e.ring.one(e.mod), e
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@pytest.mark.parametrize("name", list(CLEAN_RINGS))
@pytest.mark.parametrize("mod", [None, 2, 3])
def test_element_operations_return_filtered_terms(name, mod):
    ring = CLEAN_RINGS[name]()
    rng = random.Random(f"{name}/{mod}")
    for _ in range(150):
        a, b = (_random_element(ring, rng, mod, rng.random() < 0.2) for _ in range(2))
        k = rng.randint(-4, 4)
        results = [a + b, a - b, -a, a + (-a), a - a, b - a, a * b, a * a, a * k, k * a,
                   a + k, k - a, ring.zero(mod), ring.one(mod), ring.scalar(k, mod),
                   *(a ** n for n in range(4)),
                   *(a.homogeneous_component(w) for w in range(0, ring.max_weight + 1, 2)),
                   *(ring.var(g, mod) for g in ring.generators)]
        if mod is None:
            results += [a.reduce_mod(3), (a * 6).exact_div(3)]
        else:
            results.append(a.integer_lift())
        for r in results:
            _assert_clean(r)


@pytest.mark.parametrize("name", list(CLEAN_RINGS))
@pytest.mark.parametrize("mod", [None, 3])
def test_single_term_powers_match_repeated_squaring(name, mod):
    ring = CLEAN_RINGS[name]()
    rng = random.Random(f"{name}/{mod}")
    for _ in range(150):
        m = ring.monomial((g, rng.randrange(3)) for g in ring.generators)
        e = Element(ring, {m: rng.choice([-2, -1, 1, 2, 5])}, mod, rng.random() < 0.2)
        for n in range(7):
            power, want = e ** n, _squaring_power(e, n)
            assert list(power.terms.items()) == list(want.terms.items()), (e, n)
            assert power.truncated == want.truncated, (e, n)
            _assert_clean(power)


def test_algebra_builders_return_filtered_terms():
    rng = random.Random(0)
    lift = build_lift(free_polynomial_presentation(2, 5))
    for A in (projective_space_ring(3, 4), product_projective_spaces(3, 2, 2), lift.pi):
        for image in A.psi.images:
            _assert_clean(image)
        for _ in range(40):
            e = _random_element(A.ring, rng, None)
            _assert_clean(A.apply_psi(e))
    table = lift.graded
    for _ in range(40):
        e = _random_element(table.ring, rng, 2)
        for i in range(4):
            _assert_clean(table.apply_P(i, e))
            _assert_clean(normal_form(table.apply_P(i, e), table.graded_gb))
    gb = groebner_build([r for r in lift.presentation.relations if r], 2)
    for b in gb:
        _assert_clean(b)
