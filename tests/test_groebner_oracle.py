"""Ideal membership of the truncated Groebner basis against sympy's.

The ideals are weight-homogeneous, so a basis built with everything above
weight 2D discarded still decides membership for homogeneous elements of
weight at most 2D.  Membership does not depend on the monomial order, so
sympy's basis in its own order is an independent oracle.
"""

import random

import pytest

from psibench.groebner import groebner_build
from psibench.rings import GeneratorSymbol, WeightedRing

sympy = pytest.importorskip("sympy")

CASES = [  # (p, generator weights, D)
    (2, (2, 2), 5), (3, (2, 4), 6), (5, (2, 2, 4), 4),
    (2, (2, 4, 6), 6), (3, (2, 2, 2), 4), (7, (4, 2), 6),
]


def _random_homogeneous(ring, weight, p, rng):
    monos = ring.monomials_of_weight(weight)
    picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    return ring.element({m: rng.randrange(1, p) for m in picked}, mod=p)


def _to_sympy(e, names):
    return sum((c * sympy.Mul(*(names[g.name] ** k for g, k in m))
                for m, c in e.terms.items()), sympy.Integer(0))


@pytest.mark.parametrize("seed", range(len(CASES) * 2))
def test_membership_agrees_with_sympy(seed):
    p, weights, D = CASES[seed % len(CASES)]
    rng = random.Random(seed)
    gens = [GeneratorSymbol(f"x{i}", (), w) for i, w in enumerate(weights)]
    ring = WeightedRing(gens, D)
    names = {g.name: sympy.Symbol(g.name) for g in gens}
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
    gb = groebner_build(relations, p)
    oracle = sympy.groebner([_to_sympy(r, names) for r in relations],
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
        expected = oracle.contains(_to_sympy(f, names))
        assert gb.contains(f) == expected, (relations, str(f))
        members += expected
        nonmembers += not expected
    assert members and nonmembers
