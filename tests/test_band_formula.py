"""The weight-band formula: an oracle for ``steenrod_P`` from one psi image.

Statement.  Let e be an integral lift of a class of degree 2q, let
0 <= i <= q and w = 2q + 2i(p-1) <= top_weight().  Then p^(q-i) divides
psi(e)_w, the weight-w homogeneous part of psi(e), and the class of
psi(e)_w / p^(q-i) in degree w is P^i[e].

Proof.  Take the level-q splitting psi(e) = sum_{j=0..q} p^(q-j) r_j that
``steenrod_P`` reads, with r_j of weight >= 2q + 2j(p-1) and r_q = e^p.
For j > i, r_j has no term of weight w, so
psi(e)_w = sum_{j<=i} p^(q-j) (r_j)_w = p^(q-i) sum_{j<=i} p^(i-j) (r_j)_w.
Hence p^(q-i) divides psi(e)_w, and the quotient is (r_i)_w plus multiples
of p, so its class mod p is the class of (r_i)_w, which is P^i[e].  At
q = 0 the level-0 pair (r', e^p) gives psi(e) = e = p r' + e^p, and both
sides read e^p = e mod p.

psi(e) here is ``apply_psi``, the ring map on the generators' layer sums,
and never meets the splitting calculus; a wrong correction in
``atiyah_sum`` moves ``steenrod_P`` and not the oracle.
"""

import itertools
import json
import pathlib
import random

import pytest

from psibench.atiyah import atiyah_decompose
from psibench.documents import algebra_from_document, load_document
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring, free_polynomial_presentation,
                             product_projective_spaces, projective_space_ring)
from psibench.steenrod import (gr_class, graded_basis, interesting_degrees, sample_classes,
                               steenrod_P)

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


def band_P(algebra, i, cls):
    """P^i of a class of degree 2q, as psi(e)_w / p^(q-i) mod p; the
    division raises if it is not exact."""
    q, p = cls.degree // 2, algebra.p
    w = cls.degree + 2 * i * (p - 1)
    band = algebra.apply_psi(cls.lift()).homogeneous_component(w)
    return gr_class(algebra, band.exact_div(p ** (q - i)), w)


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
def test_the_band_formula_agrees_with_steenrod_P(name):
    algebra = ALGEBRAS[name]()
    pairs = list(_pairs(algebra))
    assert pairs
    for i, cls in pairs:
        assert band_P(algebra, i, cls) == steenrod_P(algebra, i, cls), (i, str(cls))


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
        split = atiyah_decompose(algebra, e, q)
        k = len(split.layers) - 1
        for j, layer in enumerate(split.layers[:q]):
            assert layer.weight() >= cls.degree + 2 * j * (p - 1), (j, str(cls))
        psi = algebra.apply_psi(e)
        for w in range(cls.degree, top + 1, 2):
            band = algebra.ring.zero()
            for j, layer in enumerate(split.layers):
                band = band + layer.homogeneous_component(w) * p ** (k - j)
            assert band == psi.homogeneous_component(w), (w, str(cls))
