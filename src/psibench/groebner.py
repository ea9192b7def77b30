"""Groebner bases over the field of p elements in the graded monomial order.

Only weight-homogeneous ideals are supported: that keeps normal forms
weight-homogeneous, which is what quotient graded algebras need.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cached_property

from .arith import validate_prime
from .rings import Element, WeightedRing, mono_div, mono_divides, mono_mul


class GroebnerBasis:
    """A Groebner basis of a weight-homogeneous ideal over Z/p.

    Each element's lead monomial and inverse lead coefficient are computed
    once, when the element joins the basis.  Leads are filed under every
    generator they contain (the unit lead under None).  The pair update
    reads the files of a new lead's generators to find the leads it shares
    a generator with; a divisor search reads the files of a monomial's
    generators in ascending order and takes each lead from the file of its
    lightest generator, as a divisor's generators all occur in the monomial.
    A graded-basis walk tries only the ``standard_generators``."""

    def __init__(self, ring: WeightedRing, p: int, basis: list):
        self.ring = ring
        self.p = p
        self.basis: list = []
        self._leads: list = []
        self._lead_inv: list = []
        self._filed: dict = {}
        for e in basis:
            self._append(e)

    def _append(self, e: Element) -> None:
        lead, coeff = e.leading()
        k = len(self.basis)
        for g in [g for g, _ in lead[1]] or [None]:
            self._filed.setdefault(g, []).append(k)
        self.basis.append(e)
        self._leads.append(lead)
        self._lead_inv.append(pow(coeff, -1, self.p))
        self.__dict__.pop("standard_generators", None)  # the basis grew

    def _divisors(self, exps: dict):
        """Indices of the basis elements whose lead divides the monomial with
        exponent map ``exps`` (generator position to exponent)."""
        yield from self._filed.get(None, ())
        for g, have in exps.items():
            for k in self._filed.get(g, ()):
                lead = self._leads[k][1]
                if lead[-1][0] == g and (have >= lead[0][1] if len(lead) == 1 else
                                         all(exps.get(h, 0) >= e for h, e in lead)):
                    yield k

    def _sharing(self, t: int) -> list:
        """Indices below t whose lead shares a generator with lead t,
        ascending; read from the files of lead t's generators."""
        found = set()
        for g, _ in self._leads[t][1]:
            file = self._filed[g]
            found.update(file[:bisect_left(file, t)])
        return sorted(found)

    def _divisor(self, mono):
        return next(self._divisors(dict(reversed(mono[1]))), None)

    def __len__(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def reduce(self, e: Element) -> Element:
        return normal_form(e, self)

    def contains(self, e: Element) -> bool:
        return not normal_form(e, self)

    def is_standard(self, mono) -> bool:
        """Whether a monomial is a normal-form (standard) monomial."""
        return self._divisor(mono) is None

    @cached_property
    def standard_generators(self) -> tuple:
        """The ascending positions of the generators g whose g^1 no lead
        equals, the only ones a standard monomial contains; kept until the
        basis grows."""
        leads, power = set(self._leads), self.ring.power
        return tuple(g for g in range(len(self.ring.generators)) if power(g, 1) not in leads)


def _validate_relations(relations, p) -> WeightedRing:
    validate_prime(p)
    ring = None
    for r in relations:
        if ring is None:
            ring = r.ring
        elif r.ring is not ring:
            raise ValueError("relations live in different ambient rings")
        if r.mod != p:
            raise ValueError(f"relations must have mod-{p} coefficients")
        if not r.is_homogeneous():
            raise ValueError(f"inhomogeneous relation supplied: {r}")
        if r.weight() == 0:
            raise ValueError(f"constant relation supplied: {r}; a connected "
                             f"graded algebra has no relation of weight 0")
    if ring is None:
        raise ValueError("cannot infer the ambient ring from an empty relation list")
    return ring


def _spoly(gb: GroebnerBasis, i: int, j: int, lcm) -> Element:
    ring, p = gb.ring, gb.p
    uf = ring.element({mono_div(lcm, gb._leads[i]): gb._lead_inv[i]}, mod=p)
    ug = ring.element({mono_div(lcm, gb._leads[j]): gb._lead_inv[j]}, mod=p)
    return uf * gb.basis[i] - ug * gb.basis[j]


def normal_form(e: Element, gb: GroebnerBasis) -> Element:
    """Fully reduce e against the basis; deterministic and, for a Groebner
    basis, independent of reduction order."""
    if e.ring is not gb.ring:
        raise ValueError("element and basis live in different rings")
    if e.mod != gb.p:
        raise ValueError(f"normal form needs mod-{gb.p} coefficients")
    p, ring = gb.p, e.ring
    relations = ring.monomial_relations
    work = dict(e.terms)
    remainder = {}
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        k = gb._divisor(mono)
        if k is None:
            remainder[mono] = coeff
            continue
        # subtract c * (mono / lead) * b; b is homogeneous, so every new term
        # has the weight of mono and none falls to truncation
        lead = gb._leads[k]
        factor = mono_div(mono, lead)
        c = coeff * gb._lead_inv[k] % p
        for m, bc in gb.basis[k].terms.items():
            if m == lead:
                continue
            m = mono_mul(factor, m)
            if relations and ring.kills(m):
                continue
            v = (work.get(m, 0) - c * bc) % p
            if v:
                work[m] = v
            else:
                work.pop(m, None)
    # reductions of a flagged input stay flagged; reduction itself drops nothing
    return Element._clean(ring, remainder, p, e.truncated)


def _update(gb: GroebnerBasis, h: Element, pairs: deque) -> None:
    """Append h to the basis and update the pending pairs by the criteria of
    Gebauer and Moeller (Installation of Buchberger's algorithm, 1988).

    A new pair (h, g) is dropped when the lcm of another new pair divides its
    lcm, or when the two leads are coprime; a pending pair (a, b) is dropped
    when lead(h) divides its lcm and differs from lcm(a, h) and lcm(b, h)
    (the chain criterion).  Pairs whose lcm lies above the truncation bound
    are dropped too: their S-polynomial has no term left."""
    t = len(gb)
    gb._append(h)
    lead = gb._leads[t]
    bound, lcm_of = gb.ring.max_weight, gb.ring.lcm
    # coprime pairs are never dropped here, so only the others need an lcm
    shared = [(lcm_of(lead, gb._leads[g]), g) for g in gb._sharing(t)]
    dropped = set()
    kept = []
    for lcm, g in shared:
        if any(k != g and k < t and k not in dropped
               for k in gb._divisors(dict(lcm[1]))):
            dropped.add(g)
        else:
            kept.append((lcm, g))
    survivors = [(lcm, a, b) for lcm, a, b in pairs
                 if not mono_divides(lead, lcm) or lcm_of(gb._leads[a], lead) == lcm
                 or lcm_of(gb._leads[b], lead) == lcm]
    pairs.clear()
    pairs.extend(survivors)
    pairs.extend((lcm, t, g) for lcm, g in kept if lcm[0] <= bound)


def groebner_build(relations, p: int) -> GroebnerBasis:
    """Buchberger's algorithm followed by inter-reduction to the reduced basis."""
    relations = [r for r in relations if r]
    if not relations:
        raise ValueError("no nonzero relations supplied")
    ring = _validate_relations(relations, p)

    # dedupe by term set, keeping first occurrences (one ring, one modulus)
    start: dict = {}
    for r in relations:
        r = _monic(r, p)
        start.setdefault(frozenset(r.terms.items()), r)
    start = sorted(start.values(), key=lambda e: e.leading()[0])

    gb = GroebnerBasis(ring, p, [])
    pairs: deque = deque()
    for r in start:
        _update(gb, r, pairs)
    while pairs:
        lcm, i, j = pairs.popleft()
        s = normal_form(_spoly(gb, i, j, lcm), gb)
        if s:
            _update(gb, _monic(s, p), pairs)

    # minimalize: drop elements whose lead is divisible by another lead
    order = sorted(range(len(gb)), key=gb._leads.__getitem__)
    reduced = GroebnerBasis(ring, p, [])
    for k in order:
        if reduced._divisor(gb._leads[k]) is None:
            reduced._append(gb.basis[k])
    # reduce tails in place: leads stay, so the lead index stays valid, and a
    # lead cannot divide another monomial of its own weight
    for k, b in enumerate(reduced.basis):
        lead = reduced._leads[k]
        tail = Element._clean(ring, {m: c for m, c in b.terms.items() if m != lead}, p)
        if tail:
            reduced.basis[k] = Element._clean(
                ring, {lead: 1, **normal_form(tail, reduced).terms}, p)
    return reduced


def _monic(e: Element, p: int) -> Element:
    c = e.leading()[1]
    if c == 1:
        return e
    return e * pow(c, -1, p)
