"""The truncated Groebner basis against oracles that share none of its code.

The ideals are weight-homogeneous, so a basis built with everything above
weight 2D discarded still decides membership for homogeneous elements of
weight at most 2D.  Membership does not depend on the monomial order, so
sympy's basis in its own order is an independent oracle (skipped when sympy
is absent).  Neither does the number of standard monomials in one weight:
it is the number of monomials minus the rank over Z/p of the Macaulay matrix
of all monomial multiples of the relations in that weight.  The graded basis,
which walks only ``GroebnerBasis.standard_generators``, must equal the walk
over every generator.
"""

import random

import pytest

from psibench.groebner import GroebnerBasis, groebner_build
from psibench.models import free_polynomial_presentation
from psibench.rings import GeneratorSymbol, WeightedRing, mono_divides
from psibench.steenrod import graded_basis
from psibench.unstable import UnstableAlgebra

CASES = [  # (p, generator weights, D)
    (2, (2, 2), 5), (3, (2, 4), 6), (5, (2, 2, 4), 4),
    (2, (2, 4, 6), 6), (3, (2, 2, 2), 4), (7, (4, 2), 6),
]
SEEDS = range(len(CASES) * 2)


def _random_homogeneous(ring, weight, p, rng):
    monos = ring.monomials_of_weight(weight)
    picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    return ring.element({m: rng.randrange(1, p) for m in picked}, mod=p)


def _case(seed):
    """(ring, p, relations, relation weights, rng) of one seeded relation set;
    the rng continues where the relations left it."""
    p, weights, D = CASES[seed % len(CASES)]
    rng = random.Random(seed)
    gens = [GeneratorSymbol(f"x{i}", (), w) for i, w in enumerate(weights)]
    ring = WeightedRing(gens, D)
    top = ring.max_weight
    rel_weights = [w for w in range(2, top + 1, 2) if ring.monomials_of_weight(w)]
    relations = []
    count = rng.randint(1, 3)
    while len(relations) < count:
        # no relation of weight 2, so the ideal leaves non-members to test
        rel = _random_homogeneous(ring, rng.choice(rel_weights[1:len(rel_weights) // 2 + 1]),
                                  p, rng)
        if rel:
            relations.append(rel)
    return ring, p, relations, rel_weights, rng


def _to_sympy(sympy, e, names):
    return sum((c * sympy.Mul(*(names[g.name] ** k for g, k in e.ring.symbol_pairs(m)))
                for m, c in e.terms.items()), sympy.Integer(0))


@pytest.mark.parametrize("seed", SEEDS)
def test_membership_agrees_with_sympy(seed):
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    ring, p, relations, rel_weights, rng = _case(seed)
    names = {g.name: sympy.Symbol(g.name) for g in ring.generators}
    gb = groebner_build(relations, p)
    oracle = sympy.groebner([_to_sympy(sympy, r, names) for r in relations],
                            *names.values(), modulus=p, order="grevlex")

    members = nonmembers = 0
    for _ in range(30):
        w = rng.choice(rel_weights)
        if rng.random() < 0.5:
            # a combination of the relations, homogeneous of weight w
            f = ring.zero(p)
            for r in relations:
                if r.weight() <= w and ring.monomials_of_weight(w - r.weight()):
                    f = f + _random_homogeneous(ring, w - r.weight(), p, rng) * r
            if not f:
                continue
        else:
            f = _random_homogeneous(ring, w, p, rng)
        expected = oracle.contains(_to_sympy(sympy, f, names))
        assert gb.contains(f) == expected, (relations, str(f))
        members += expected
        nonmembers += not expected
    assert members and nonmembers


def _rank_mod_p(rows, p):
    """Rank over Z/p by plain Gaussian elimination on dict rows."""
    rank = 0
    pivots: dict = {}  # column -> reduced row with a 1 there
    for row in rows:
        row = {k: c % p for k, c in row.items() if c % p}
        for col, pivot_row in pivots.items():
            c = row.get(col)
            if c:
                for k, v in pivot_row.items():
                    row[k] = (row.get(k, 0) - c * v) % p
                row = {k: v for k, v in row.items() if v}
        if row:
            col = min(row)
            inv = pow(row[col], -1, p)
            pivots[col] = {k: v * inv % p for k, v in row.items()}
            rank += 1
    return rank


def _assert_counts_match_the_macaulay_rank(ring, p, relations):
    algebra = UnstableAlgebra(ring, p, groebner_build(relations, p))
    for w in range(0, ring.max_weight + 1, 2):
        monos = ring.monomials_of_weight(w)
        column = {m: i for i, m in enumerate(monos)}
        rows = []
        for r in relations:
            if r.weight() > w:
                continue
            for u in ring.monomials_of_weight(w - r.weight()):
                product = ring.element({u: 1}, mod=p) * r
                rows.append({column[m]: c for m, c in product.terms.items()})
        expected = len(monos) - _rank_mod_p(rows, p)
        assert len(graded_basis(algebra, w)) == expected, (relations, w)


@pytest.mark.parametrize("seed", SEEDS)
def test_standard_monomial_counts_match_the_macaulay_rank(seed):
    ring, p, relations, _, _ = _case(seed)
    _assert_counts_match_the_macaulay_rank(ring, p, relations)


@pytest.mark.parametrize("chunk", range(4))
def test_macaulay_rank_on_denser_relation_sets(chunk):
    """Up to five relations in up to four generators: enough overlapping
    leads that a pair criterion dropping a needed S-pair changes a count."""
    for seed in range(50 * chunk, 50 * chunk + 50):
        rng = random.Random(seed)
        p = rng.choice([2, 3, 5])
        gens = [GeneratorSymbol(f"x{i}", (), 2 * rng.randint(1, 2))
                for i in range(rng.randint(2, 4))]
        ring = WeightedRing(gens, rng.randint(3, 5))
        weights = [w for w in range(4, ring.max_weight + 1, 2) if ring.monomials_of_weight(w)]
        low = weights[:max(1, len(weights) // 2)]
        relations = [_random_homogeneous(ring, rng.choice(low), p, rng)
                     for _ in range(rng.randint(2, 5))]
        _assert_counts_match_the_macaulay_rank(ring, p, relations)


def _random_monomial(ring, rng):
    picked = rng.sample(ring.generators, rng.randint(0, min(4, len(ring.generators))))
    return ring.monomial((g, rng.randint(1, 3)) for g in sorted(picked, key=lambda g: g.sort_key))


@pytest.mark.parametrize("seed", range(4))
def test_indexed_divisor_lookup_matches_a_brute_force_scan(seed):
    rng = random.Random(seed)
    bases = []
    for s in SEEDS:
        ring, p, relations, _, _ = _case(s)
        bases.append(groebner_build(relations, p))
        bases.append(GroebnerBasis(ring, p, relations))  # not a Groebner basis
    pres = free_polynomial_presentation(2, 5)
    bases.append(pres.gb)
    for gb in bases:
        leads = [b.leading()[0] for b in gb.basis]
        monos = [_random_monomial(gb.ring, rng) for _ in range(60)] + leads
        for mono in monos:
            want = {k for k, lead in enumerate(leads) if mono_divides(lead, mono)}
            found = list(gb._divisors(dict(mono[1])))
            assert len(found) == len(set(found)) and set(found) == want, mono
            assert gb.is_standard(mono) == (not want)


def _assert_pruned_walk_is_the_full_walk(algebra):
    ring, gb = algebra.ring, algebra.graded_gb
    for w in range(0, ring.max_weight + 1, 2):
        want = ring.monomials_of_weight(w, predicate=gb.is_standard)
        assert [c.rep.leading()[0] for c in graded_basis(algebra, w)] == want, w


@pytest.mark.parametrize("seed", SEEDS)
def test_graded_basis_walk_agrees_with_the_unpruned_walk(seed):
    ring, p, relations, _, _ = _case(seed)
    _assert_pruned_walk_is_the_full_walk(UnstableAlgebra(ring, p, groebner_build(relations, p)))


def test_pruned_walk_keeps_factors_of_killed_products_and_roots_of_leads():
    gens = [GeneratorSymbol(n, (), w) for n, w in (("a", 2), ("b", 2), ("c", 2), ("d", 4))]
    ring = WeightedRing(gens, 5)
    a, b, c, d = (ring.var(g, 3) for g in gens)
    cases = [
        ([a * b], (0, 1, 2, 3)),                # a*b dies, a and b do not
        ([a**2, c, d - b**2], (0, 1)),           # a^2 is a lead, a is not
        ([c - a, b**3 + a * b**2], (0, 1, 3)),   # c is a whole lead
    ]
    for relations, survivors in cases:
        gb = groebner_build(relations, 3)
        assert gb.standard_generators == survivors, relations
        _assert_pruned_walk_is_the_full_walk(UnstableAlgebra(ring, 3, gb))
    # the presentations' graded bases keep only the powers of x
    pres = free_polynomial_presentation(2, 8)
    assert pres.gb.standard_generators == (pres.ring._pos[("x", ())],)
    _assert_pruned_walk_is_the_full_walk(pres.algebra)


def test_standard_generators_are_recomputed_when_the_basis_grows():
    gens = [GeneratorSymbol(n, (), 2) for n in "xy"]
    ring = WeightedRing(gens, 4)
    gb = GroebnerBasis(ring, 2, [ring.var(gens[0], 2) ** 2])
    assert gb.standard_generators == (0, 1)
    gb._append(ring.var(gens[1], 2))
    assert gb.standard_generators == (0,)


def test_membership_under_monomial_relations_agrees_with_sympy():
    """Z/3[t, u] with t^4 = u^4 = 0 and the graded relation tu + t^2: a
    reduction step may build a term the monomial relations kill, which
    ``normal_form`` must drop, as the quotient by (tu + t^2, t^4, u^4) does."""
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    t, u = GeneratorSymbol("t", (), 2), GeneratorSymbol("u", (), 2)
    ring = WeightedRing([t, u], 8, monomial_relations=[((t, 4),), ((u, 4),)])
    gb = groebner_build([ring.var(t, 3) * ring.var(u, 3) + ring.var(t, 3) ** 2], 3)
    names = {"t": sympy.Symbol("t"), "u": sympy.Symbol("u")}
    T, U = names.values()
    oracle = sympy.groebner([T * U + T**2, T**4, U**4], T, U, modulus=3, order="grevlex")
    checked = 0
    for w in range(0, 17, 2):
        for m in ring.monomials_of_weight(w):
            e = ring.element({m: 1}, mod=3)
            assert gb.contains(e) == oracle.contains(_to_sympy(sympy, e, names)), str(e)
            checked += 1
    assert checked == 16
