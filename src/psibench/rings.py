"""Exact sparse polynomial arithmetic over weighted generators.

Elements carry integer (or mod-p) coefficients on monomials in generators of
strictly positive even weight.  Every ring has a hard truncation bound 2D:
terms of weight above 2D are identified with zero, and any value that lost
terms this way carries a sticky ``truncated`` flag.  Because generator weights
are positive, truncation never leaks back into low weights, so homogeneous
components of weight <= 2D are always exact even on flagged values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

Monomial = tuple  # tuple[tuple[GeneratorSymbol, int], ...], sorted by sort_key

UNIT: Monomial = ()


def even_filtration(w: int) -> int:
    """Collapse a filtration degree to the next even one (odd 2n-1 -> 2n)."""
    if w < 0:
        raise ValueError(f"filtration degree must be non-negative, got {w}")
    return w if w % 2 == 0 else w + 1


@dataclass(frozen=True)
class GeneratorSymbol:
    """A ring generator: an identifier plus a positive even weight.

    ``indices`` is empty for plain generators; lift generators use it for the
    multi-index part of their identifier.
    """

    name: str
    indices: tuple = ()
    weight: int = 2

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if self.weight <= 0 or self.weight % 2:
            raise ValueError(
                f"generator weight must be a positive even integer, got {self.weight}"
            )
        # symbols key every monomial dict, so hash the fields once
        object.__setattr__(self, "_hash", hash((self.name, self.indices, self.weight)))

    def __hash__(self):
        return self._hash

    @property
    def key(self):
        return (self.name, self.indices)

    @property
    def sort_key(self):
        # identifiers compare by name, then multi-index length-first, then entries
        return (self.name, len(self.indices), self.indices)

    def __str__(self):
        if not self.indices:
            return self.name
        return f"{self.name}[{','.join(map(str, self.indices))}]"


def mono_weight(m: Monomial) -> int:
    return sum(g.weight * e for g, e in m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict = {}
    order: dict = {}
    for g, e in a + b:
        exps[g] = exps.get(g, 0) + e
        order[g] = g.sort_key
    return tuple(sorted(exps.items(), key=lambda ge: order[ge[0]]))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Whether monomial a divides monomial b."""
    need = dict(a)
    for g, e in b:
        if g in need:
            need[g] -= min(need[g], e)
    return all(v == 0 for v in need.values())


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    rem = dict(b)
    for g, e in a:
        rem[g] = rem.get(g, 0) - e
        if rem[g] < 0:
            raise ArithmeticError(f"{a} does not divide {b}")
    return tuple((g, rem[g]) for g, _ in b if rem[g] > 0)


def mono_key(m: Monomial):
    """Graded key: total weight first, then lexicographic with heavier-sorted
    generators more significant.  This is a monomial order (weights are
    positive), so it is safe for Groebner reduction."""
    return (mono_weight(m), tuple(sorted(((g.sort_key, e) for g, e in m), reverse=True)))


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    parts = []
    for g, e in m:
        parts.append(str(g) if e == 1 else f"{g}^{e}")
    return "*".join(parts)


class WeightedRing:
    """Ambient context: generator table, truncation bound and monomial relations.

    ``monomial_relations`` lists monomials identified with zero (e.g. a square
    of a dual number); they are applied after every product, which keeps
    nilpotent base rings free of any integral Groebner machinery.  A relation
    on one generator, g^e, acts as an exponent cap (the smallest such e per
    generator); only relations on several generators take a divisibility test.
    """

    def __init__(self, generators: Iterable[GeneratorSymbol], truncation: int,
                 monomial_relations: Iterable[Monomial] = ()):
        gens = tuple(generators)
        keys = [g.key for g in gens]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate generator identifiers")
        if not isinstance(truncation, int) or truncation <= 0:
            raise ValueError(f"truncation bound D must be a positive integer, got {truncation}")
        self.generators = tuple(sorted(gens, key=lambda g: g.sort_key))
        self.truncation = truncation
        for g in gens:
            if g.weight > self.max_weight:
                raise ValueError(f"generator {g} has weight {g.weight} beyond 2D")
        self._by_key = {g.key: g for g in self.generators}
        rels = []
        for m in monomial_relations:
            m = tuple(m)
            if not m:
                raise ValueError("the unit monomial cannot be a relation")
            for g, e in m:
                if self._by_key.get(g.key) != g:
                    raise ValueError(f"relation monomial uses unknown generator {g}")
                if e <= 0:
                    raise ValueError("relation exponents must be positive")
            rels.append(tuple(sorted(m, key=lambda ge: ge[0].sort_key)))
        self.monomial_relations = tuple(sorted(rels, key=mono_key))
        self._caps: dict = {}
        for m in self.monomial_relations:
            if len(m) == 1:
                g, e = m[0]
                self._caps[g] = min(self._caps.get(g, e), e)
        self._general_relations = tuple(m for m in self.monomial_relations if len(m) > 1)
        self._max_monomial_weight = None
        if len(self._caps) == len(self.generators):
            self._max_monomial_weight = sum((e - 1) * g.weight for g, e in self._caps.items())

    @property
    def max_weight(self) -> int:
        return 2 * self.truncation

    def symbol(self, name: str, indices: tuple = ()) -> GeneratorSymbol:
        try:
            return self._by_key[(name, tuple(indices))]
        except KeyError:
            raise KeyError(f"unknown generator {name!r} with indices {tuple(indices)}")

    def kills(self, m: Monomial) -> bool:
        """Whether a monomial relation divides m: an exponent reaches its
        generator's cap, or a relation on several generators divides m."""
        caps = self._caps
        return (any(e >= caps.get(g, e + 1) for g, e in m)
                or any(mono_divides(rel, m) for rel in self._general_relations))

    def max_monomial_weight(self):
        """A proven upper bound on monomial weights, or None if unbounded.

        Finite exactly when every generator is nilpotent through a pure-power
        monomial relation; then weight-2q graded pieces beyond the bound are
        structurally zero, not merely truncated away.  Computed once, from the
        exponent caps, and not clipped to the window: degrees between 2D and
        the bound are undecidable under truncation.
        """
        return self._max_monomial_weight

    def decidable(self, weight: int) -> bool:
        """Whether graded statements in this weight are exact: the weight
        lies inside the window 2D, or above the nilpotent bound, where the
        graded piece is structurally zero."""
        bound = self._max_monomial_weight
        return weight <= self.max_weight or (bound is not None and weight > bound)

    def top_weight(self) -> int:
        """The largest weight with a monomial in the window: the nilpotent
        bound clipped to 2D, else 2D.  Loops over weights stop here."""
        top = self.max_monomial_weight()
        return self.max_weight if top is None else min(top, self.max_weight)

    # -- element constructors ------------------------------------------------
    def element(self, terms: Mapping[Monomial, int], mod: int | None = None,
                truncated: bool = False) -> "Element":
        return Element(self, dict(terms), mod, truncated)

    def zero(self, mod: int | None = None) -> "Element":
        return Element(self, {}, mod)

    def one(self, mod: int | None = None) -> "Element":
        return Element(self, {UNIT: 1}, mod)

    def scalar(self, c: int, mod: int | None = None) -> "Element":
        return Element(self, {UNIT: c}, mod)

    def gen(self, name: str, indices: tuple = (), mod: int | None = None) -> "Element":
        return Element(self, {((self.symbol(name, indices), 1),): 1}, mod)

    def var(self, symbol: GeneratorSymbol, mod: int | None = None) -> "Element":
        if symbol.key not in self._by_key:
            raise KeyError(f"unknown generator {symbol}")
        return Element(self, {((self._by_key[symbol.key], 1),): 1}, mod)

    def monomials_of_weight(self, weight: int, predicate=None) -> list:
        """All monomials of the given weight (<= 2D), respecting monomial
        relations; ``predicate`` may prune partial monomials early."""
        if weight > self.max_weight:
            raise ValueError(f"weight {weight} exceeds the truncation bound {self.max_weight}")
        out: list = []

        def extend(idx: int, remaining: int, acc: list):
            if remaining == 0:
                out.append(tuple(acc))
                return
            for i in range(idx, len(self.generators)):
                g = self.generators[i]
                if g.weight > remaining:
                    continue
                e = 1
                while e * g.weight <= remaining:
                    cand = acc + [(g, e)]
                    mono = tuple(cand)
                    if self.monomial_relations and self.kills(mono):
                        break
                    if predicate is not None and not predicate(mono):
                        e += 1
                        continue
                    extend(i + 1, remaining - e * g.weight, cand)
                    e += 1

        extend(0, weight, [])
        return sorted(out, key=mono_key)

    def __repr__(self):
        return (f"WeightedRing({len(self.generators)} generators, D={self.truncation}, "
                f"{len(self.monomial_relations)} monomial relations)")


class Element:
    """A sparse polynomial in a WeightedRing.

    Values are immutable by convention.  ``mod`` is None for integer
    coefficients or a prime p for coefficients in [0, p-1].  ``truncated``
    records that terms above the ambient weight bound were dropped somewhere
    in this value's history; it does not participate in equality.
    """

    __slots__ = ("ring", "terms", "mod", "truncated")

    def __init__(self, ring: WeightedRing, terms: dict, mod: int | None = None,
                 truncated: bool = False):
        self.ring = ring
        self.mod = mod
        clean: dict = {}
        dropped = False
        bound, relations = ring.max_weight, ring.monomial_relations
        for m, c in terms.items():
            if mod is not None:
                c %= mod
            if c == 0:
                continue
            if mono_weight(m) > bound:
                dropped = True
                continue
            if relations and ring.kills(m):
                continue
            clean[m] = c
        self.terms = clean
        self.truncated = truncated or dropped

    # -- basic protocol -------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.ring is other.ring and self.mod == other.mod
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ring), self.mod, tuple(sorted(self.terms.items(), key=lambda t: mono_key(t[0])))))

    def _check_compatible(self, other: "Element"):
        if self.ring is not other.ring:
            raise ValueError("elements live in different ambient rings")
        if self.mod != other.mod:
            raise ValueError(f"coefficient rings differ: mod={self.mod} vs mod={other.mod}")

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other, self.mod)
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Element(self.ring, terms, self.mod, self.truncated or other.truncated)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.ring, {m: -c for m, c in self.terms.items()},
                       self.mod, self.truncated)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.scalar(other, self.mod)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Element(self.ring, {m: c * other for m, c in self.terms.items()},
                           self.mod, self.truncated)
        self._check_compatible(other)
        bound = self.ring.max_weight
        terms: dict = {}
        dropped = False
        bw = {m: mono_weight(m) for m in other.terms}
        for ma, ca in self.terms.items():
            wa = mono_weight(ma)
            for mb, cb in other.terms.items():
                if wa + bw[mb] > bound:
                    dropped = True
                    continue
                m = mono_mul(ma, mb)
                terms[m] = terms.get(m, 0) + ca * cb
        return Element(self.ring, terms, self.mod,
                       self.truncated or other.truncated or dropped)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be non-negative integers")
        result = self.ring.one(self.mod)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- queries ----------------------------------------------------------------
    def weight(self):
        """Minimum term weight; +inf for the zero element."""
        if not self.terms:
            return math.inf
        return min(mono_weight(m) for m in self.terms)

    def homogeneous_component(self, weight: int) -> "Element":
        """The weight-``weight`` part.  Exact for weight <= 2D even if this
        value is flagged as truncated (dropped terms cannot re-enter below the
        bound), so the flag is cleared on the result."""
        if weight > self.ring.max_weight:
            raise ValueError(
                f"component weight {weight} exceeds the truncation bound {self.ring.max_weight}")
        terms = {m: c for m, c in self.terms.items() if mono_weight(m) == weight}
        return Element(self.ring, terms, self.mod, truncated=False)

    def weights(self) -> list:
        return sorted({mono_weight(m) for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def leading(self):
        """(monomial, coefficient) maximal in the graded order; None if zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: mono_key(t[0]), reverse=True)

    # -- coefficient-ring moves ---------------------------------------------------
    def reduce_mod(self, p: int) -> "Element":
        """Reduce integer coefficients mod p (a ring homomorphism)."""
        if self.mod is not None:
            raise ValueError("element already has mod-p coefficients")
        return Element(self.ring, dict(self.terms), p, self.truncated)

    def integer_lift(self) -> "Element":
        """Mod-p -> integer coefficients via representatives in [1, p-1]."""
        if self.mod is None:
            raise ValueError("element already has integer coefficients")
        return Element(self.ring, dict(self.terms), None, self.truncated)

    def exact_div(self, k: int) -> "Element":
        """Divide every coefficient by the integer k, which must be exact."""
        if self.mod is not None:
            raise ValueError("exact division is an integral-layer operation")
        terms = {}
        for m, c in self.terms.items():
            q, r = divmod(c, k)
            if r:
                raise ArithmeticError(f"coefficient {c} not divisible by {k}")
            terms[m] = q
        return Element(self.ring, terms, None, self.truncated)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m == UNIT:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono_str(m))
            elif c == -1:
                parts.append(f"-{mono_str(m)}")
            else:
                parts.append(f"{c}*{mono_str(m)}")
        s = " + ".join(parts).replace("+ -", "- ")
        return s

    def __repr__(self):
        tag = f" mod {self.mod}" if self.mod is not None else ""
        flag = ", truncated" if self.truncated else ""
        return f"<{self}{tag}{flag}>"


# -- the document encoding --------------------------------------------------------------
# A polynomial is an array of {coefficient, monomial}, a monomial an array of
# [generator-id, exponent] pairs, and a generator id a plain string or
# {"theta": ..., "indices": [...]} for an iterated-operation variable.


def id_to_json(sym: GeneratorSymbol):
    if not sym.indices:
        return sym.name
    return {"theta": sym.name, "indices": list(sym.indices)}


def id_from_json(obj):
    if isinstance(obj, str):
        return obj, ()
    return obj["theta"], tuple(obj["indices"])


def poly_to_json(e: Element) -> list:
    out = []
    for mono, coeff in e.sorted_terms():
        out.append({"coefficient": coeff,
                    "monomial": [[id_to_json(g), exp] for g, exp in mono]})
    return out


def poly_from_json(ring: WeightedRing, data, mod: int | None = None) -> Element:
    """The element of ``ring`` a document polynomial encodes; a generator id
    the ring does not have raises KeyError."""
    terms: dict = {}
    for entry in data:
        mono = mono_from_json(ring, entry["monomial"])
        terms[mono] = terms.get(mono, 0) + entry["coefficient"]
    return ring.element(terms, mod=mod)


def mono_from_json(ring: WeightedRing, data) -> tuple:
    """The monomial a document monomial encodes; a generator id named more
    than once contributes the sum of its exponents."""
    exps: dict = {}
    for gid, exp in data:
        sym = ring.symbol(*id_from_json(gid))
        exps[sym] = exps.get(sym, 0) + exp
    return tuple(sorted(exps.items(), key=lambda ge: ge[0].sort_key))
