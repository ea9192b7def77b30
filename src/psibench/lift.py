"""Canonical lifts of presented even connected unstable algebras.

Given generators x_theta in degrees 2*d_theta and a Steenrod-closed relation
set over the admissible iterated-operation variables X_(theta, i_1..i_n),
the builder equips the presentation's polynomial ring Pi on those variables
with the distinguished endomorphism

    psi X = p^sigma X + sum_{i=1..sigma-1} p^(sigma-i) X_(...,i) + X^p

over the children X_(...,i) in the weight window, and builds the ideal
generated by all psi-iterates of the integral relation lifts.  The graded
quotient over Z/p is the presented algebra itself, on the same ring and
representatives.  Generator enumeration is windowed:
positive indices are bounded by the weight cap and the number of zero
indices (which encode P^0) is capped explicitly, which keeps the variable
set finite and closed under the layers of psi within the window.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import add_into, validate_prime
from .atiyah import PrePsiAlgebra
from .groebner import groebner_build
from .rings import Element, GeneratorSymbol, WeightedRing, id_from_json, poly_from_json
from .steenrod import closure_outcomes, graded_basis, run_axioms
from .unstable import UnstableAlgebra
from .verdicts import Verdict

# Largest admissible-variable set a window may need, sized from measured
# presentations plus lifts in process on a shared 2-CPU host: p=2, D=12 (5,702
# variables) takes 0.5-0.6 s and 49 MB peak RSS; the largest windows under the
# cap, p=5, D=48 (8,021) and p=7, D=72 (8,161), take 0.9-1.0 s and 63-70 MB.
MAX_LIFT_VARIABLES = 8192

# Largest number of psi-iterates a lift may record.  default_k_max, the least
# k with p^k > p*D, stays far below it (5 at p = 2, D = 10); the iterates'
# integer coefficients grow with k, and so does the report that prints them.
MAX_KMAX = 32


def enumerate_generators(p: int, generators, D: int, max_zeros: int = 1) -> list:
    """All windowed admissible variables: weight <= 2D and at most
    ``max_zeros`` zero indices per tuple.

    Positive indices are already finite under the weight cap; zero indices
    never raise the weight, so they carry their own cap.  The retained set is
    closed under appending a positive index within the window, which is what
    the psi-formula's layers consume.  Enumeration stops with a ValueError
    as soon as the set passes ``MAX_LIFT_VARIABLES``.
    """
    validate_prime(p)
    out = []
    for theta, degree in generators:
        if degree <= 0 or degree % 2:
            raise ValueError(f"generator degrees must be positive even integers, got {degree}")
        # an explicit stack of (indices, level, zeros): a long run of zero
        # indices would pass Python's recursion limit
        stack = [((), degree // 2, 0)]
        while stack:
            indices, sigma, zeros = stack.pop()
            if sigma > D:
                continue
            out.append(GeneratorSymbol(theta, indices, 2 * sigma))
            if len(out) > MAX_LIFT_VARIABLES:
                raise ValueError(
                    f"truncation D={D} needs more than MAX_LIFT_VARIABLES="
                    f"{MAX_LIFT_VARIABLES} admissible variables; lower the truncation")
            if zeros < max_zeros:
                stack.append((indices + (0,), sigma, zeros + 1))
            stack.extend((indices + (i,), sigma + (p - 1) * i, zeros)
                         for i in range(1, min(sigma, (D - sigma) // (p - 1)) + 1))
    out.sort(key=lambda g: (g.weight, g.name, len(g.indices), g.indices))
    return out


def _psi_below_top(ring: WeightedRing, p: int, sym: GeneratorSymbol) -> Element:
    """psi(X) - X^p = p^sigma X + sum_(i <= k) p^(sigma-i) X_(...,i) for X of weight
    2*sigma: ``enumerate_generators`` admits child i exactly for i <= (D - sigma)//(p - 1),
    so k = min(sigma - 1, that bound), and a missing child flags the image truncated."""
    sigma = sym.weight // 2
    k = min(sigma - 1, (ring.truncation - sigma) // (p - 1))
    children = (ring.gen(sym.name, sym.indices + (i,)) for i in range(1, k + 1))
    terms: dict = {}
    for i, var in enumerate((ring.var(sym), *children)):
        add_into(terms, var.terms.items(), p ** (sigma - i))
    return Element._clean(ring, terms, None, k < sigma - 1)


class UnstablePresentation:
    """Generators with degrees, plus weight-homogeneous relations over the
    admissible variables; the presented quotient carries the table action.

    Relations are polynomials in the document encoding (``rings.poly_from_json``).
    ``pi`` is the lift's pre-psi-p algebra, built once here on the psi image
    of every variable (``_psi_below_top``), with the relations' Groebner
    basis as its graded quotient: the total operation sends X to X, its
    children and X^p mod p, and ``build_lift`` takes ``pi`` as it is.

    Load-validation checks that the relation ideal contains the identifying
    relations for zero indices (P^0) and top indices (p-th powers), is closed
    under the table operations, and that the presented quotient satisfies the
    Adem identities (P^0 = Id holds: each image is X plus heavier terms).  It
    runs once, at construction, and its verdicts stay in ``validation``: a
    FAIL is recorded, not raised, and ``build_lift`` refuses the presentation.
    """

    def __init__(self, p: int, generators, relations=(), truncation: int = 6,
                 max_zeros: int = 1, name: str = ""):
        self.p = validate_prime(p)
        self.generators = tuple((str(t), int(deg)) for t, deg in generators)
        if len({t for t, _ in self.generators}) != len(self.generators):
            raise ValueError("duplicate generator names")
        self.truncation = truncation
        self.max_zeros = max_zeros
        self.name = name
        self.symbols = enumerate_generators(p, self.generators, truncation, max_zeros)
        self.ring = WeightedRing(self.symbols, truncation)
        for term in (term for r in relations for term in r):
            for gid, _ in term["monomial"]:
                theta, indices = id_from_json(gid)
                if (theta, indices) not in self.ring._by_key:
                    raise ValueError(
                        f"relation references {theta}{list(indices)}, which is not an "
                        f"enumerated variable within the window")
        self.relations = tuple(poly_from_json(self.ring, r, mod=p) for r in relations)
        live = [r for r in self.relations if r]
        self.gb = groebner_build(live, p) if live else None
        below = {g.key: _psi_below_top(self.ring, p, g) for g in self.ring.generators}
        self.pi = PrePsiAlgebra(self.ring, p, below, graded_gb=self.gb,
                                name=(name or "lift") + ":Pi")
        # X, its children and X^p summed mod p: psi(X) with unit coefficients
        totals = [Element._clean(self.ring, dict.fromkeys(image.terms, 1), p, image.truncated)
                  for image in self.pi.psi.images]
        self.algebra = UnstableAlgebra(self.ring, p, self.gb, totals=totals,
                                       name=name or "presentation")
        self.validation = self.validate()

    def validate(self) -> list:
        nf = self.gb.reduce if self.gb else (lambda e: e)
        verdicts = [
            Verdict.tally("p0-index-identification", self._zero_index_outcomes(nf)),
            Verdict.tally("top-index-identification", self._top_index_outcomes(nf)),
            Verdict.tally("steenrod-closure", closure_outcomes(self.algebra, self.relations, nf))]
        # each total image is X plus heavier terms, so P^0 is the identity on
        # every monomial: of the presented quotient's axioms only Adem can fail
        (adem,) = run_axioms(self.algebra, ("adem",))
        verdicts.append(adem._replace(name="adem(table)"))
        return verdicts

    def _zero_index_outcomes(self, nf):
        """X_(theta,I,0) = X_(theta,I) in the quotient, variable by variable."""
        p = self.p
        for sym in self.symbols:
            if sym.indices and sym.indices[-1] == 0:
                parent = self.ring.gen(sym.name, sym.indices[:-1], mod=p)
                if nf(self.ring.var(sym, mod=p) - parent):
                    yield {"variable": str(sym),
                           "missing": f"{sym} = {sym.name}{list(sym.indices[:-1])}"}
                else:
                    yield True

    def _top_index_outcomes(self, nf):
        """X_(theta,I,sigma) = X_(theta,I)^p in the quotient, where sigma is
        the parent's level."""
        p = self.p
        for sym in self.symbols:
            if not sym.indices:
                continue
            parent = self.ring._by_key.get((sym.name, sym.indices[:-1]))
            if parent is not None and sym.indices[-1] == parent.weight // 2:
                top = self.ring.var(parent, mod=p) ** p
                if nf(self.ring.var(sym, mod=p) - top):
                    yield {"variable": str(sym), "missing": f"{sym} = {parent}^{p}"}
                else:
                    yield True

    def __repr__(self):
        gens = ", ".join(f"{t}@{d}" for t, d in self.generators)
        return (f"UnstablePresentation(p={self.p}, [{gens}], "
                f"{len(self.relations)} relations, D={self.truncation})")


class Lift(namedtuple("Lift", "presentation pi graded ideal_generators k_max census")):
    """The constructed lift: integral pre-psi-p algebra, graded quotient
    and the ideal bookkeeping.  The presentation is written in the variables
    X_(theta,I), so the lift shares its ring and ``graded`` is the presented
    algebra itself."""

    __slots__ = ()

    def basis(self, degree: int) -> list:
        return graded_basis(self.graded, degree)


def default_k_max(p: int, D: int) -> int:
    """Smallest k >= 1 with p^k > p*D: beyond it the non-p-divisible part of
    every psi-iterate of a relation has left the weight window."""
    k = 1
    while p**k <= p * D:
        k += 1
    return k


def build_lift(pres: UnstablePresentation, k_max: int | None = None) -> Lift:
    """Construct the canonical lift of a presentation that passed its
    load-validation; a failed one is refused with its FAIL verdicts."""
    if bad := [v for v in pres.validation if not v.passed]:
        raise ValueError("presentation failed load-validation: "
                         + "; ".join(v.describe() for v in bad))
    p, D = pres.p, pres.truncation
    if k_max is None:
        k_max = default_k_max(p, D)
    if not 0 <= k_max <= MAX_KMAX:
        raise ValueError(f"k_max must be between 0 and MAX_KMAX={MAX_KMAX}, got {k_max}")

    # Pi is the presentation's own algebra (``pres.pi``), with its graded
    # quotient.  Every psi layer sits at or above its variable's weight, so
    # psi^k of a relation f of weight 2*sigma is p^(k*sigma)*f plus higher
    # weight: the iterates die in the graded quotient by construction
    ideal: dict = {}
    current = [rel.integer_lift() for rel in pres.relations if rel]
    ideal[0] = tuple(current)
    for k in range(1, k_max + 1):
        current = [pres.pi.apply_psi(f) for f in current]
        ideal[k] = tuple(current)

    census = {degree: len(graded_basis(pres.algebra, degree))
              for degree in range(0, 2 * D + 1, 2)}
    return Lift(pres, pres.pi, pres.algebra, ideal, k_max, census)
