"""``rings.RingMap`` against a memo-free naive substitution, and
``RingMap.band`` against the homogeneous components of whole images.

Every model of ``models.py`` that carries a ring map is covered: psi of the
pre-psi-p algebras (also with windows small enough that images lose terms)
and of the D6 and D8 lifts, and the total operation of the polynomial
algebra and of the D6 and D8 presentations.  ``power_tower_module`` is a
module, not a ring, and has no ring map.  The naive map replaces each
term's generators by their images and multiplies them out one factor at a
time; the values and the ``truncated`` flags must agree at every memo size,
and each memo must stay within its ``remember`` bound.
"""

import functools
import random

import pytest

import psibench.rings as rings
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, base_polynomial_algebra, dual_numbers_ring,
                             free_polynomial_presentation, product_projective_spaces,
                             projective_space_ring)
from psibench.rings import GeneratorSymbol, RingMap, WeightedRing

DEFAULT_SIZE = rings.SPLITTING_CACHE_SIZE


@functools.lru_cache(maxsize=None)
def _presentation(D):
    return free_polynomial_presentation(2, D)


# (name, factory of the map's owner, attribute of the map, whether some
# sampled image loses terms above the window)
MAPS = [
    ("dual-numbers-k1", lambda: dual_numbers_ring(3, 1), "psi", False),
    # e^2 = 0 kills every product before it can leave the window
    ("dual-numbers-k2-D3", lambda: dual_numbers_ring(3, 2, D=3), "psi", False),
    ("broken-adem-p3", lambda: adem_failure_ring(3), "psi", True),
    ("broken-adem-p5-D8", lambda: adem_failure_ring(5, D=8), "psi", True),
    ("projective-p3-n4", lambda: projective_space_ring(3, 4), "psi", False),
    ("projective-p3-n4-D3", lambda: projective_space_ring(3, 4, D=3), "psi", True),
    ("product-projective-p3-2-2", lambda: product_projective_spaces(3, 2, 2), "psi", False),
    ("product-projective-p2-3-2-D4",
     lambda: product_projective_spaces(2, 3, 2, D=4), "psi", True),
    ("polynomial-p3-d2", lambda: base_polynomial_algebra(3, d=2, D=12), "total", True),
    ("polynomial-p2", lambda: base_polynomial_algebra(2), "total", True),
    ("presentation-D6", lambda: _presentation(6).algebra, "total", True),
    ("presentation-D8", lambda: _presentation(8).algebra, "total", True),
    ("lift-D6", lambda: build_lift(_presentation(6)).pi, "psi", True),
    ("lift-D8", lambda: build_lift(_presentation(8)).pi, "psi", True),
]


def _samples(ring_map, seed, count=30, p=None):
    """Random elements of one to four terms, each a monomial of up to three
    generator powers with a coefficient prime to p (the algebra's prime;
    by default the map's modulus, else 3).  Each power is drawn
    among those that fit the weight the monomial has left, and one that a
    relation would kill ends the monomial: the inputs carry no ``truncated``
    flag, and even on rings of many heavy generators nearly all are nonzero.
    Every other element draws its monomials inside 2D/p, half the window at
    p = 2: psi and the total operation raise a weight at most p-fold, so
    their images keep every term (a ring whose generators all weigh more
    gets constants there).  The others draw inside the whole window, where
    images of the lossy maps lose terms."""
    ring, p = ring_map.ring, p or ring_map.mod or 3
    rng = random.Random(seed)  # a str seed: the same draws in every process
    units = [c for c in range(-p * p, p * p + 1) if c % p]
    out = []
    while len(out) < count:
        terms = {}
        window = ring.max_weight // p if len(out) % 2 else ring.max_weight
        for _ in range(rng.randint(1, 4)):
            pairs, budget = [], window
            for _ in range(rng.randrange(4)):
                fits = [g for g in ring.generators if g.weight <= budget]
                if not fits:
                    break
                g = rng.choice(fits)
                e = rng.randint(1, min(3, budget // g.weight))
                if ring.kills(ring.monomial(pairs + [(g, e)])):
                    break
                pairs.append((g, e))
                budget -= e * g.weight
            m = ring.monomial(pairs)
            terms[m] = terms.get(m, 0) + rng.choice(units)
        e = ring.element(terms, mod=ring_map.mod)
        assert not e.truncated
        out.append(e)
    return out


def _naive(ring_map, e):
    """The substitution with no memo and no powers: each generator factor
    multiplied in, one at a time, onto a zero that keeps e's flag."""
    ring, mod = ring_map.ring, ring_map.mod
    total = ring.element({}, mod, truncated=e.truncated)
    for m, c in e.terms.items():
        term = ring.scalar(c, mod)
        for g, k in m[1]:
            for _ in range(k):
                term = term * ring_map.images[g]
        total = total + term
    return total


def _bound(size, generators):
    """``remember``'s bound at this size for a demand of twice the
    generator count: the least multiple of the size that covers it."""
    return size * -(-2 * generators // size) if size else 0


@pytest.mark.parametrize("size", [0, 3, DEFAULT_SIZE], ids=["0", "3", "default"])
@pytest.mark.parametrize("name, make, attr, lossy", MAPS, ids=[m[0] for m in MAPS])
def test_ring_map_agrees_with_naive_substitution(monkeypatch, name, make, attr, lossy, size):
    algebra = make()
    ring_map = getattr(algebra, attr)
    assert ring_map.ring is algebra.ring
    assert ring_map.mod == (None if attr == "psi" else algebra.p)
    if attr == "psi":
        # the images are the weighted layer sums of the generator data
        p = algebra.p
        for g, image in zip(algebra.ring.generators, ring_map.images):
            layers = algebra.psi_data[g.key]
            want = sum((layer * p ** (len(layers) - 1 - i) for i, layer in enumerate(layers)),
                       algebra.ring.zero())
            assert image == want and image.truncated == want.truncated, g
    monkeypatch.setattr(rings, "SPLITTING_CACHE_SIZE", size)
    ring_map.memo.clear()
    bound = _bound(size, len(algebra.ring.generators))
    flagged, samples = 0, _samples(ring_map, seed=name, p=algebra.p)
    assert sum(map(bool, samples)) >= 20, name  # most samples are nonzero
    for e in samples:
        want = _naive(ring_map, e)
        for _ in range(2):  # cold, then read from the memo
            got = ring_map(e)
            assert got == want, (name, str(e))
            assert got.truncated == want.truncated, (name, str(e))
            assert len(ring_map.memo) <= bound
        if attr == "psi":
            assert algebra.apply_psi(e) == want
        flagged += want.truncated
    # every map checks unflagged images, and each lossy map flagged ones
    assert len(samples) - flagged >= 10, (name, flagged)
    assert bool(flagged) == lossy
    # an input that lost terms passes its flag on
    lost = algebra.ring.element(e.terms, ring_map.mod, truncated=True)
    got, want = ring_map(lost), _naive(ring_map, lost)
    assert got == want and got.truncated and want.truncated


def _component_band(ring_map, e, shift):
    """The band as the sum of c * image(m)_(weight(m) + shift) over the terms
    c*m of e, each target above 2D skipped."""
    ring = ring_map.ring
    total = ring.zero(ring_map.mod)
    for m, c in e.terms.items():
        if m[0] + shift <= ring.max_weight:
            total = total + ring_map.image(m).homogeneous_component(m[0] + shift) * c
    return total


def _random_map(seed):
    """A map on x, y (weight 4) and z with random images of mixed weights,
    so an image's lowest weight is often not its monomial's: integral or
    mod 5, on a ring with or without the relations x^3 = y*z = 0."""
    rng = random.Random(seed)
    x, y, z = (GeneratorSymbol(n, (), w) for n, w in (("x", 2), ("y", 4), ("z", 2)))
    relations = [((x, 3),), ((y, 1), (z, 1))] if seed % 2 else []
    ring = WeightedRing([x, y, z], 6, monomial_relations=relations)
    mod = 5 if seed % 4 >= 2 else None
    monos = [m for w in range(0, 13, 2) for m in ring.monomials_of_weight(w)]
    images = [ring.element({m: rng.randint(-9, 9) for m in rng.sample(monos, rng.randint(1, 4))},
                           mod) for _ in range(3)]
    return RingMap(ring, images, mod)


BAND_MAPS = [(name, lambda make=make, attr=attr: getattr(make(), attr))
             for name, make, attr, _ in MAPS]
BAND_MAPS += [(f"random-{seed}", lambda seed=seed: _random_map(seed)) for seed in range(8)]


@pytest.mark.parametrize("name, make", BAND_MAPS, ids=[m[0] for m in BAND_MAPS])
def test_band_agrees_with_the_homogeneous_components(name, make):
    ring_map = make()
    ring = ring_map.ring
    samples = _samples(ring_map, seed=f"band-{name}", count=12)
    # the lightest generators, one by one and summed
    light = [ring.var(g, ring_map.mod) for g in ring.generators[:6]]
    samples += light + [sum(light, ring.zero(ring_map.mod))]
    samples += [e.homogeneous_component(w) for e in samples for w in e.weights()]
    above = 0
    for e in samples:
        for shift in range(0, ring.max_weight + 1, 2):
            got = ring_map.band(e, shift)
            assert got == _component_band(ring_map, e, shift), (name, str(e), shift)
            assert not got.truncated
            above += any(m[0] + shift > ring.max_weight for m in e.terms)
    assert above  # some targets leave the window
