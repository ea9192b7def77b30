"""Graded Z/p algebras with the Steenrod-type operations of a total operation.

P = sum_i P^i is the ring map given by one image per generator, and P^i of a
class is the weight-shifted part of its image.  P^0 g = g and the p-th power
at the top hold only as the caller's images hold them: the default g + g^p
and every presentation's layer sum do, and the ``p0`` and ``adem`` verdicts
judge the rest.  Quotients are realized by a Groebner basis over Z/p.
"""

from __future__ import annotations

from . import steenrod
from .arith import validate_prime
from .rings import Element, RingMap, WeightedRing
from .verdicts import Verdict


class UnstableAlgebra:
    """A graded quotient of a weighted polynomial ring over Z/p, with the
    operations P^i read off the total operation ``total``: the ``RingMap``
    sending each generator, in ``ring.generators`` order, to its image in
    ``totals`` (g + g^p by default).  ``graded_bases`` memoizes
    ``steenrod.graded_basis`` by degree, and ``operations`` memoizes
    ``steenrod.steenrod_P`` by (i, class)."""

    def __init__(self, ring: WeightedRing, p: int, graded_gb=None, totals=None,
                 name: str = ""):
        self.ring = ring
        self.p = validate_prime(p)
        self.graded_gb = graded_gb
        self.name = name
        if totals is None:
            totals = [var + var ** p for var in (ring.var(g, p) for g in ring.generators)]
        # RingMap pairs images with generators by position: refuse a short list
        if len(totals) != len(ring.generators) or any(
                img.ring is not ring or img.mod != p for img in totals):
            raise ValueError(f"the total operation takes one mod-{p} image per generator")
        self.total = RingMap(ring, totals, mod=p)
        self.graded_bases: dict = {}
        self.operations: dict = {}

    def apply_P(self, i: int, e: Element) -> Element:
        """P^i on a raw mod-p element: ``total.band`` at shift 2i(p-1), with
        no normal form.  Targets beyond the window are dropped; callers decide
        target degrees before trusting the answer up there."""
        if e.ring is not self.ring or e.mod != self.p:
            raise ValueError("element does not belong to this algebra")
        return self.total.band(e, 2 * i * (self.p - 1))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"UnstableAlgebra(p={self.p}{tag}, {self.ring!r})"


def check_p0_identity_table(algebra: UnstableAlgebra, degrees) -> Verdict:
    """P^0 = Id for the table-extended operations."""
    return steenrod.check_p0_identity(algebra, degrees)._replace(name="p0-identity(table)")


def check_adem_table(algebra: UnstableAlgebra, degree: int) -> Verdict:
    """Adem identities for the table-extended operations, by composition."""
    return steenrod.check_adem(algebra, degree)._replace(name="adem(table)")
