import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psibench.rings import (Element, GeneratorSymbol, WeightedRing, even_filtration,
                            mono_divides, mono_key, mono_weight)


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
    assert not ring.element({((t, 3),): 1}).truncated
    assert (ue**2 * ue).truncated
    assert ring.element({((u, 3),): 1}).truncated
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
    assert free_ring.monomials_of_weight(0) == [()]
    with pytest.raises(ValueError):
        free_ring.monomials_of_weight(18)


def test_monomial_order_is_graded(free_ring):
    x = free_ring.symbol("x")
    y = free_ring.symbol("y")
    assert mono_key(((x, 1),)) < mono_key(((y, 1),))       # weight 2 < 4
    assert mono_key(((x, 2),)) < mono_key(((y, 1),))       # same weight, y is larger


# -- property tests -----------------------------------------------------------------

_RING = WeightedRing([GeneratorSymbol("x", (), 2), GeneratorSymbol("y", (), 4)], 8)


def elements(ring):
    monos = [()]
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


def _monomials(gens, exps):
    return tuple((g, e) for g, e in zip(gens, exps) if e)


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
                m = _monomials(gens, [rng.randrange(0, 7) for _ in gens])
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
                    if mono_weight(m := _monomials(gens, exps)) == w
                    and not any(mono_divides(r, m) for r in ring.monomial_relations)]
        assert ring.monomials_of_weight(w) == sorted(expected, key=mono_key)
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
