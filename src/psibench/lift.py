"""Canonical lifts of presented even connected unstable algebras.

Given generators x_theta in degrees 2*d_theta and a Steenrod-closed relation
set over the admissible iterated-operation variables X_(theta, i_1..i_n),
the builder equips the presentation's polynomial ring Pi on those variables
with the distinguished endomorphism

    psi X = p^sigma X + sum_{i=1..sigma-1} p^(sigma-i) X_(...,i) + X^p,

and builds the ideal generated by all psi-iterates of the integral relation
lifts.  The graded quotient over Z/p is the presented algebra itself, on
the same ring and representatives.  Generator enumeration is windowed:
positive indices are bounded by the weight cap and the number of zero
indices (which encode P^0) is capped explicitly, which keeps the variable
set finite and closed under the layers of psi within the window.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import validate_prime
from .atiyah import PrePsiAlgebra
from .groebner import groebner_build
from .rings import Element, GeneratorSymbol, WeightedRing, add_into, id_from_json, poly_from_json
from .steenrod import graded_basis, run_axioms
from .unstable import UnstableAlgebra
from .verdicts import Verdict

# Largest admissible-variable set a window may need, sized from measured
# presentations plus lifts on a shared 2-CPU host: p=2, D=12 (5,702
# variables) takes about 0.8 s and 56 MB peak RSS; the largest windows under
# the cap, p=5, D=48 (8,021) and p=7, D=72 (8,161), take about 3.4 s and
# 4.6 s and up to 77 MB.
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
                         for i in range(1, sigma + 1))
    out.sort(key=lambda g: (g.weight, g.name, len(g.indices), g.indices))
    return out


def lift_generator_layers(ring: WeightedRing, p: int, sym: GeneratorSymbol) -> tuple:
    """Layers of psi on a lift variable: (X, X_(...,1), ..., X_(...,sigma-1), X^p).

    Children pushed beyond the weight window become flagged zeros."""
    sigma = sym.weight // 2
    var, lost = ring.var(sym), Element(ring, {}, truncated=True)
    layers = [var]
    for i in range(1, sigma):
        child = ring._by_key.get((sym.name, sym.indices + (i,)))
        layers.append(lost if child is None else ring.var(child))
    layers.append(var ** p)
    return tuple(layers)


class UnstablePresentation:
    """Generators with degrees, plus weight-homogeneous relations over the
    admissible variables; the presented quotient carries the table action.

    Relations are polynomials in the document encoding (``rings.poly_from_json``).
    ``layers`` holds the psi layers of every variable (``lift_generator_layers``):
    the total operation sends X to their sum mod p, and the lift takes them
    as its psi data.

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
        self.layers, totals = {}, []
        for g in self.ring.generators:
            terms, layers = {}, lift_generator_layers(self.ring, p, g)
            for layer in layers:
                add_into(terms, layer.terms.items(), 1, p)
            totals.append(Element._clean(self.ring, terms, p, any(l.truncated for l in layers)))
            self.layers[g.key] = layers
        self.algebra = UnstableAlgebra(self.ring, p, self.gb, totals=totals,
                                       name=name or "presentation")
        self.validation = self.validate()

    def validate(self) -> list:
        nf = self.gb.reduce if self.gb else (lambda e: e)
        verdicts = [
            Verdict.tally("p0-index-identification", self._zero_index_outcomes(nf)),
            Verdict.tally("top-index-identification", self._top_index_outcomes(nf)),
            Verdict.tally("steenrod-closure", self._closure_outcomes(nf))]
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
        the parent's level; X^p is the parent's stored top layer."""
        p = self.p
        for sym in self.symbols:
            if not sym.indices:
                continue
            parent = self.ring._by_key.get((sym.name, sym.indices[:-1]))
            if parent is not None and sym.indices[-1] == parent.weight // 2:
                top = self.layers[parent.key][-1].reduce_mod(p)
                if nf(self.ring.var(sym, mod=p) - top):
                    yield {"variable": str(sym), "missing": f"{sym} = {parent}^{p}"}
                else:
                    yield True

    def _closure_outcomes(self, nf):
        """The table operations P^i send every relation into the ideal.  Per
        relation, ``WeightedRing.targets`` sizes the run of compared targets
        (i = 1, 2, ...) and the count of skipped ones that follows it."""
        step = 2 * (self.p - 1)
        for rel in self.relations:
            if not rel:
                continue
            w = rel.weight()
            compared, skipped = self.ring.targets(w + step, step, w // 2)
            for i in range(1, compared + 1):
                if nf(image := self.algebra.apply_P(i, rel)):
                    yield {"relation": str(rel), "i": i, "image": str(image)}
                else:
                    yield True
            yield skipped

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

    @property
    def p(self) -> int:
        return self.presentation.p

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

    # Pi lives on the presentation's ring with its psi layers, so its graded
    # quotient is the presentation's algebra and reuses its Groebner basis
    pi = PrePsiAlgebra(pres.ring, p, pres.layers, graded_gb=pres.gb,
                       name=(pres.name or "lift") + ":Pi")

    # every psi layer sits at or above its variable's weight, so psi^k of a
    # relation f of weight 2*sigma is p^(k*sigma)*f plus higher weight: the
    # iterates die in the graded quotient by construction
    ideal: dict = {}
    current = [rel.integer_lift() for rel in pres.relations if rel]
    ideal[0] = tuple(current)
    for k in range(1, k_max + 1):
        current = [pi.apply_psi(f) for f in current]
        ideal[k] = tuple(current)

    census = {degree: len(graded_basis(pres.algebra, degree))
              for degree in range(0, 2 * D + 1, 2)}
    return Lift(pres, pi, pres.algebra, ideal, k_max, census)
