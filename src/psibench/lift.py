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

from dataclasses import dataclass, replace

from .arith import validate_prime
from .atiyah import PrePsiAlgebra
from .groebner import groebner_build
from .rings import Element, GeneratorSymbol, WeightedRing, id_from_json, poly_from_json
from .steenrod import graded_basis, run_axioms
from .unstable import UnstableAlgebra
from .verdicts import Verdict

# Largest admissible-variable set a window may need, sized from measured
# presentations plus lifts on a 2-CPU host: p=2, D=12 (5,702 variables) takes
# about 3 s and 85 MB; the largest windows under the cap, p=5, D=48 (8,021)
# and p=7, D=72 (8,161), take about 13 s and 18 s and up to 260 MB.
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

    def grow(theta: str, d: int, indices: tuple, zeros: int):
        sigma = d + (p - 1) * sum(indices)
        if sigma > D:
            return
        out.append(GeneratorSymbol(theta, indices, 2 * sigma))
        if len(out) > MAX_LIFT_VARIABLES:
            raise ValueError(
                f"truncation D={D} needs more than MAX_LIFT_VARIABLES="
                f"{MAX_LIFT_VARIABLES} admissible variables; lower the truncation")
        for i in range(sigma + 1):
            if i == 0 and zeros >= max_zeros:
                continue
            grow(theta, d, indices + (i,), zeros + (1 if i == 0 else 0))

    for theta, degree in generators:
        if degree <= 0 or degree % 2:
            raise ValueError(f"generator degrees must be positive even integers, got {degree}")
        grow(theta, degree // 2, (), 0)
    out.sort(key=lambda g: (g.weight, g.name, len(g.indices), g.indices))
    return out


def lift_generator_layers(ring: WeightedRing, p: int, sym: GeneratorSymbol) -> tuple:
    """Layers of psi on a lift variable: (X, X_(...,1), ..., X_(...,sigma-1), X^p).

    Children pushed beyond the weight window become flagged zeros."""
    sigma = sym.weight // 2
    layers = [ring.var(sym)]
    for i in range(1, sigma):
        key = (sym.name, sym.indices + (i,))
        if key in ring._by_key:
            layers.append(ring.gen(sym.name, sym.indices + (i,)))
        else:
            layers.append(Element(ring, {}, truncated=True))
    layers.append(ring.var(sym) ** p)
    return tuple(layers)


class UnstablePresentation:
    """Generators with degrees, plus weight-homogeneous relations over the
    admissible variables; the presented quotient carries the table action.

    Relations are polynomials in the document encoding (``rings.poly_from_json``).
    ``layers`` holds the psi layers of every variable (``lift_generator_layers``):
    the table reads P^i X as layer i mod p for 0 < i < sigma, and the lift
    takes them as its psi data.

    Load-validation checks that the relation ideal contains the identifying
    relations for zero indices (P^0) and top indices (p-th powers), is closed
    under the table operations, and that the presented quotient satisfies the
    Adem identities (P^0 = Id holds by construction of the table).  Lifting
    an invalid presentation is refused.
    """

    def __init__(self, p: int, generators, relations=(), truncation: int = 6,
                 max_zeros: int = 1, name: str = "", validate: bool = True):
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
        for r in self.relations:
            if r and not r.is_homogeneous():
                raise ValueError(f"inhomogeneous relation supplied: {r}")
            if r and r.weight() == 0:
                raise ValueError(f"constant relation supplied: {r}; a connected "
                                 f"presentation has no relation of weight 0")
        live = [r for r in self.relations if r]
        self.gb = groebner_build(live, p) if live else None
        self.layers = {sym.key: lift_generator_layers(self.ring, p, sym)
                       for sym in self.symbols}
        middles = {key: {i: layers[i].reduce_mod(p) for i in range(1, len(layers) - 1)}
                   for key, layers in self.layers.items()}
        self.algebra = UnstableAlgebra(self.ring, p, self.gb, middles=middles,
                                       name=name or "presentation")
        self.validation: list = []
        if validate:
            self.validation = self.validate()
            bad = [v for v in self.validation if not v.passed]
            if bad:
                raise ValueError(
                    "presentation failed load-validation: "
                    + "; ".join(v.describe() for v in bad))

    def validate(self, trials: int = 4, seed: int = 0) -> list:
        nf = self.gb.reduce if self.gb else (lambda e: e)
        verdicts = [
            Verdict.tally("p0-index-identification", self._zero_index_outcomes(nf)),
            Verdict.tally("top-index-identification", self._top_index_outcomes(nf)),
            Verdict.tally("steenrod-closure", self._closure_outcomes(nf))]
        # the table's P^0 is the identity on every monomial by construction,
        # so of the presented quotient's axioms only Adem can fail
        (adem,) = run_axioms(self.algebra, ("adem",), trials, seed)
        verdicts.append(replace(adem, name="adem(table)"))
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
                if nf(self.ring.var(sym, mod=p) - self.ring.var(parent, mod=p) ** p):
                    yield {"variable": str(sym), "missing": f"{sym} = {parent}^{p}"}
                else:
                    yield True

    def _closure_outcomes(self, nf):
        """The table operations P^i send every relation into the ideal; a
        target above the window is skipped."""
        for rel in self.relations:
            if not rel:
                continue
            w = rel.weight()
            for i in range(1, w // 2 + 1):
                if w + 2 * i * (self.p - 1) > self.ring.max_weight:
                    yield None
                    continue
                image = self.algebra.apply_P(i, rel)
                if nf(image):
                    yield {"relation": str(rel), "i": i, "image": str(image)}
                else:
                    yield True

    def __repr__(self):
        gens = ", ".join(f"{t}@{d}" for t, d in self.generators)
        return (f"UnstablePresentation(p={self.p}, [{gens}], "
                f"{len(self.relations)} relations, D={self.truncation})")


@dataclass
class Lift:
    """The constructed lift: integral pre-psi-p algebra, graded quotient
    and the ideal bookkeeping.  The presentation is written in the variables
    X_(theta,I), so the lift shares its ring and ``graded`` is the presented
    algebra itself."""

    presentation: UnstablePresentation
    pi: PrePsiAlgebra
    graded: UnstableAlgebra
    ideal_generators: dict
    k_max: int
    census: dict
    verdicts: list

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


def _graded_vanishing(ideal: dict, k_max: int, p: int) -> Verdict:
    """Graded vanishing of the higher psi-iterates: each one is p*(something)
    plus terms of strictly larger weight, so its bottom class dies mod p.  A
    FAIL names the first iterate whose bottom class survives."""
    def outcomes():
        for k in range(1, k_max + 1):
            for f0, fk in zip(ideal[0], ideal[k]):
                if fk and (bottom := fk.homogeneous_component(f0.weight()).reduce_mod(p)):
                    yield {"k": k, "relation": str(f0), "class": str(bottom)}
                else:
                    yield True
    return Verdict.tally("ideal-iterate-graded-vanishing", outcomes())


def build_lift(pres: UnstablePresentation, k_max: int | None = None) -> Lift:
    """Construct the canonical lift of a validated presentation.  The lift's
    verdicts say whether it is one: a FAIL carries its witness."""
    p, D = pres.p, pres.truncation
    if k_max is None:
        k_max = default_k_max(p, D)
    if not 0 <= k_max <= MAX_KMAX:
        raise ValueError(f"k_max must be between 0 and MAX_KMAX={MAX_KMAX}, got {k_max}")

    # Pi lives on the presentation's ring with its psi layers, so its graded
    # quotient is the presentation's algebra and reuses its Groebner basis
    pi = PrePsiAlgebra(pres.ring, p, pres.layers, graded_gb=pres.gb,
                       name=(pres.name or "lift") + ":Pi")

    ideal: dict = {}
    current = [rel.integer_lift() for rel in pres.relations if rel]
    ideal[0] = tuple(current)
    for k in range(1, k_max + 1):
        current = [pi.apply_psi(f) for f in current]
        ideal[k] = tuple(current)

    vanishing = _graded_vanishing(ideal, k_max, p)
    census = {degree: len(graded_basis(pres.algebra, degree))
              for degree in range(0, 2 * D + 1, 2)}
    return Lift(pres, pi, pres.algebra, ideal, k_max, census, [vanishing])
