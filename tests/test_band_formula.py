"""The weight-band formula that ``steenrod_P`` and ``atiyah_decompose``
compute, against the recursive splitting calculus (``splitting_calculus``)
as their oracle.

Statement.  Let e be an integral lift of a class of degree 2q, let
0 <= i <= q and w = 2q + 2i(p-1) <= top_weight().  Then p^(q-i) divides
psi(e)_w, the weight-w homogeneous part of psi(e), and the class of
psi(e)_w / p^(q-i) in degree w is P^i[e], the class of layer i of any
level-q splitting of e.  ``PrePsiAlgebra.apply_P`` computes exactly this
quotient, so its division never fails and its class is the operation.

Proof.  Take a level-q splitting psi(e) = sum_{j=0..q} p^(q-j) r_j, with
r_j of weight >= 2q + 2j(p-1) and r_q = e^p.
For j > i, r_j has no term of weight w, so
psi(e)_w = sum_{j<=i} p^(q-j) (r_j)_w = p^(q-i) sum_{j<=i} p^(i-j) (r_j)_w.
Hence p^(q-i) divides psi(e)_w, and the quotient is (r_i)_w plus multiples
of p, so its class mod p is the class of (r_i)_w, which is P^i[e].  At
q = 0 the level-0 pair (r', e^p) gives psi(e) = e = p r' + e^p, and both
sides read e^p = e mod p.

The same argument, for any e of weight >= 2q, shows that the band splitting
of ``atiyah_decompose`` (layer i the part of psi(e) in weights
[w_i, w_(i+1)) over p^(k-i), the last the rest of psi(e) - e^p over p) has
the calculus's layer classes in the weights w_i.  The engines read psi(e)
through ``apply_psi``, the ring map on the generators' layer sums; the
oracle builds its splitting from sums, products and shifts of the stored
generator layers, and never meets ``apply_P`` or a band.  A wrong band
moves the engines and not the oracle; a wrong correction in ``atiyah_sum``
moves the oracle's weighted sums, which the band identity test sees.
"""

import itertools
import json
import pathlib
import random

import pytest

from psibench.atiyah import atiyah_decompose, random_element
from psibench.documents import algebra_from_document, load_document
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring, free_polynomial_presentation,
                             product_projective_spaces, projective_space_ring)
from psibench.steenrod import (gr_class, graded_basis, interesting_degrees, sample_classes,
                               steenrod_P)
from splitting_calculus import calculus_decompose
from test_psi_preserves_relations import MODELS, loadable_algebras

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted(path for path in [*(ROOT / "sample_documents").glob("*.json"),
                                   *(ROOT / "perfbench" / "data").glob("*.json")]
                 if json.loads(path.read_text())["kind"] == "pre-psi-algebra")

ALGEBRAS = {
    "dual-numbers-p3-k1": lambda: dual_numbers_ring(3, 1),
    "dual-numbers-p3-k2": lambda: dual_numbers_ring(3, 2),
    "dual-numbers-p5-k2-D3": lambda: dual_numbers_ring(5, 2, D=3),
    "broken-adem-p3": lambda: adem_failure_ring(3),
    "broken-adem-p5-D8": lambda: adem_failure_ring(5, D=8),
    "projective-p2-n4": lambda: projective_space_ring(2, 4),
    "projective-p3-n4": lambda: projective_space_ring(3, 4),
    "projective-p5-n3-D9": lambda: projective_space_ring(5, 3, D=9),
    "product-projective-p2-3-2": lambda: product_projective_spaces(2, 3, 2),
    "product-projective-p3-2-2": lambda: product_projective_spaces(3, 2, 2),
    "lift-p2-D6": lambda: build_lift(free_polynomial_presentation(2, 6)).pi,
    "lift-p2-D8": lambda: build_lift(free_polynomial_presentation(2, 8)).pi,
    "lift-p3-D12": lambda: build_lift(free_polynomial_presentation(3, 12)).pi,
    **{f"{path.parent.name}/{path.name}":
       (lambda path=path: algebra_from_document(load_document(str(path)))) for path in SHIPPED},
}


def layer_P(algebra, i, cls):
    """P^i of a class of degree 2q, as the class of layer i of the calculus's
    level-q splitting of its lift."""
    w = cls.degree + 2 * i * (algebra.p - 1)
    return gr_class(algebra, calculus_decompose(algebra, cls.lift(), cls.degree // 2).layer(i), w)


def _classes(algebra, degree, rng):
    """Every basis class of the degree, the sum of every two of them, and
    up to three random combinations (``sample_classes``)."""
    basis = graded_basis(algebra, degree)
    return [*basis, *(a + b for a, b in itertools.combinations(basis, 2)),
            *sample_classes(algebra, degree, rng, 3)[len(basis):]]


def _pairs(algebra):
    """(i, class) over ``_classes`` of every degree with a nonzero graded
    piece, for each i whose target lies at or below the top weight."""
    rng = random.Random(0)
    top = algebra.ring.top_weight()
    for degree in interesting_degrees(algebra, 0):
        for cls in _classes(algebra, degree, rng):
            for i in range(degree // 2 + 1):
                if degree + 2 * i * (algebra.p - 1) <= top:
                    yield i, cls


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_steenrod_P_agrees_with_the_splitting_calculus(name):
    algebra = ALGEBRAS[name]()
    pairs = list(_pairs(algebra))
    assert pairs
    for i, cls in pairs:
        assert steenrod_P(algebra, i, cls) == layer_P(algebra, i, cls), (i, str(cls))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_each_band_of_psi_is_the_band_of_the_splitting(name):
    """The proof's identity psi(e)_w = sum_j p^(k-j) (r_j)_w (k the last
    index), in every band w up to the top weight, and its weight bound: r_j
    has no term below 2q + 2j(p-1).  The class statement alone cannot see
    the correction of ``atiyah_sum``: on a sum at level q it has weight
    2pq, above every band that P^i, i < q, reads, while P^q reads the top.
    These bands see it wherever 2pq <= top weight."""
    algebra = ALGEBRAS[name]()
    p, top = algebra.p, algebra.ring.top_weight()
    for cls in {cls for _, cls in _pairs(algebra)}:
        e, q = cls.lift(), cls.degree // 2
        split = calculus_decompose(algebra, e, q)
        k = len(split.layers) - 1
        for j, layer in enumerate(split.layers[:q]):
            assert layer.weight() >= cls.degree + 2 * j * (p - 1), (j, str(cls))
        psi = algebra.apply_psi(e)
        for w in range(cls.degree, top + 1, 2):
            band = algebra.ring.zero()
            for j, layer in enumerate(split.layers):
                band = band + layer.homogeneous_component(w) * p ** (k - j)
            assert band == psi.homogeneous_component(w), (w, str(cls))


# -- the band splitting against the calculus ---------------------------------------------


def _agrees_with_the_calculus(algebra, e, q):
    """Check the band splitting of e at level q: its contract holds, its top
    is the calculus's, and each layer i has the calculus's mod-p class in
    its weight w_i wherever that weight has a monomial in the window (above
    the top monomial both classes are zero).  Returns the layers compared."""
    band, calculus = atiyah_decompose(algebra, e, q), calculus_decompose(algebra, e, q)
    assert band.problems() == [], (str(e), q, band.problems())
    assert band.layers[-1] == calculus.layers[-1], (str(e), q)
    p, compared = algebra.p, 0
    for i in range(q + 1):
        w = 2 * q + 2 * i * (p - 1)
        if w <= algebra.ring.top_weight():
            difference = (band.layer(i) - calculus.layer(i)).homogeneous_component(w)
            assert not difference.reduce_mod(p), (str(e), q, i)
            compared += 1
    return compared


def _random_pairs(algebra, rng, count):
    """(element, level) for ``count`` random elements of random lowest
    weight, at every level their weight allows."""
    for _ in range(count):
        low = 2 * rng.randrange(algebra.ring.top_weight() // 2 + 1)
        e = random_element(algebra, rng, min_weight=low, max_terms=5)
        if e:
            yield from ((e, q) for q in range(e.weight() // 2 + 1))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_band_layers_have_the_calculus_classes(name):
    algebra = ALGEBRAS[name]()
    rng = random.Random(name)
    pairs = list(_random_pairs(algebra, rng, 12))
    pairs += [(cls.lift(), cls.degree // 2) for cls in {cls for _, cls in _pairs(algebra)}]
    assert sum(_agrees_with_the_calculus(algebra, e, q) for e, q in pairs) > len(pairs) // 2


def test_band_splittings_keep_their_contract_on_every_model():
    """problems() is empty on random elements of every model instance, and
    on every monomial at its natural level."""
    rng = random.Random("models")
    for factory in MODELS:
        algebra = factory()
        ring = algebra.ring
        for e, q in _random_pairs(algebra, rng, 6):
            assert atiyah_decompose(algebra, e, q).problems() == [], (algebra, str(e), q)
        for w in range(2, ring.top_weight() + 1, 2):
            for m in ring.monomials_of_weight(w):
                d = atiyah_decompose(algebra, ring.element({m: 1}), w // 2)
                assert d.problems() == [], (algebra, m)


def test_band_layers_have_the_calculus_classes_on_random_algebras():
    """The generator of tests/test_psi_preserves_relations.py: random small
    algebras whose generator layers carry terms above their own band, which
    the band splitting moves and the calculus keeps."""
    rng = random.Random("band-splitting")
    built = compared = 0
    for algebra in loadable_algebras(rng):
        built += 1
        for e, q in _random_pairs(algebra, rng, 3):
            compared += _agrees_with_the_calculus(algebra, e, q)
    assert built >= 200 and compared >= 1500, (built, compared)
