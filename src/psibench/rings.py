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
from collections import namedtuple
from collections.abc import Iterable, Mapping

from .arith import add_into, exact_quotient

Monomial = tuple  # (weight, ((position, exponent), ...)), positions descending

UNIT: Monomial = (0, ())

_new = object.__new__


def even_filtration(w: int) -> int:
    """Collapse a filtration degree to the next even one (odd 2n-1 -> 2n)."""
    if w < 0:
        raise ValueError(f"filtration degree must be non-negative, got {w}")
    return w if w % 2 == 0 else w + 1


class GeneratorSymbol(namedtuple("GeneratorSymbol", "name indices weight")):
    """A ring generator: an identifier plus a positive even weight.

    ``indices`` is empty for plain generators; lift generators use it for the
    multi-index part of their identifier.
    """

    __slots__ = ()

    def __new__(cls, name, indices=(), weight=2):
        if weight <= 0 or weight % 2:
            raise ValueError(
                f"generator weight must be a positive even integer, got {weight}"
            )
        return super().__new__(cls, name, tuple(indices), weight)

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


# A monomial is its own key in the graded order: total weight first, then
# lexicographic with heavier-sorted generators more significant, since
# positions index the ring's generators in ``sort_key`` order and are stored
# descending.  Weights are positive, so this is a monomial order, safe for
# Groebner reduction.  Monomials belong to their ring: ``WeightedRing.monomial``
# and ``WeightedRing.symbol_pairs`` convert from and to generator symbols.
# Only this module builds monomials (``WeightedRing.power`` and
# ``WeightedRing.lcm`` for the other modules), so only it keeps the weight and
# the descending order; a monomial's last pair holds its lightest generator.


def mono_weight(m: Monomial) -> int:
    return m[0]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a[1]:
        return b
    if not b[1]:
        return a
    exps = dict(a[1])
    for g, e in b[1]:
        exps[g] = exps.get(g, 0) + e
    return (a[0] + b[0], tuple(sorted(exps.items(), reverse=True)))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """Whether monomial a divides monomial b."""
    if a[0] > b[0]:
        return False
    have = dict(b[1])
    return all(have.get(g, 0) >= e for g, e in a[1])


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    rem = dict(b[1])
    for g, e in a[1]:
        rem[g] = rem.get(g, 0) - e
        if rem[g] < 0:
            raise ArithmeticError(f"{a} does not divide {b}")
    return (b[0] - a[0], tuple((g, rem[g]) for g, _ in b[1] if rem[g] > 0))


# Entries one bounded memo holds; once full it stops inserting.
SPLITTING_CACHE_SIZE = 4096


def remember(memo: dict, key, value, demand: int = 0):
    """Insert into one of the bounded memos and return the value: a memo
    keeps inserting while it holds fewer than ``SPLITTING_CACHE_SIZE``
    entries, read at each call, times the least multiple (at least 1) that
    covers ``demand`` entries."""
    size = SPLITTING_CACHE_SIZE
    if len(memo) < size * max(1, -(-demand // max(size, 1))):
        memo[key] = value
    return value


def mono_str(ring: "WeightedRing", m: Monomial) -> str:
    """The monomial as the reports print it."""
    names = ring._names
    return "*".join([names[g] if e == 1 else f"{names[g]}^{e}" for g, e in reversed(m[1])]) or "1"


class WeightedRing:
    """Ambient context: generator table, truncation bound and monomial relations.

    ``monomial_relations`` lists monomials identified with zero (e.g. a square
    of a dual number), given as (generator, exponent) pairs; they are applied
    after every product, which keeps nilpotent base rings free of any integral
    Groebner machinery.  A relation on one generator, g^e, acts as an exponent
    cap (the smallest such e per generator); only relations on several
    generators take a divisibility test.
    """

    def __init__(self, generators: Iterable[GeneratorSymbol], truncation: int,
                 monomial_relations: Iterable = ()):
        gens = tuple(generators)
        keys = [g.key for g in gens]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate generator identifiers")
        if not isinstance(truncation, int) or truncation <= 0:
            raise ValueError(f"truncation bound D must be a positive integer, got {truncation}")
        self.generators = tuple(sorted(gens, key=lambda g: g.sort_key))
        self.truncation = truncation
        self.max_weight = 2 * truncation
        for g in gens:
            if g.weight > self.max_weight:
                raise ValueError(f"generator {g} has weight {g.weight} beyond 2D")
        self._by_key = {g.key: g for g in self.generators}
        self._pos = {g.key: i for i, g in enumerate(self.generators)}
        self._weights = tuple(g.weight for g in self.generators)
        self._names = tuple(str(g) for g in self.generators)
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
            rels.append(self.monomial(m))
        self.monomial_relations = tuple(sorted(rels))
        self._caps: dict = {}
        for m in self.monomial_relations:
            if len(m[1]) == 1:
                g, e = m[1][0]
                self._caps[g] = min(self._caps.get(g, e), e)
        self._general_relations = tuple(m for m in self.monomial_relations if len(m[1]) > 1)
        self._max_monomial_weight = None
        if len(self._caps) == len(self.generators):
            self._max_monomial_weight = sum(
                (e - 1) * self._weights[g] for g, e in self._caps.items())

    def monomial(self, pairs) -> Monomial:
        """The monomial of (GeneratorSymbol, exponent) pairs; a generator
        named more than once contributes the sum of its exponents."""
        exps: dict = {}
        for g, e in pairs:
            i = self._pos[g.key]
            exps[i] = exps.get(i, 0) + e
        weights = self._weights
        return (sum(weights[i] * e for i, e in exps.items()),
                tuple(sorted(exps.items(), reverse=True)))

    def symbol_pairs(self, m: Monomial) -> tuple:
        """The (GeneratorSymbol, exponent) pairs of a monomial, in ascending
        generator order."""
        return tuple((self.generators[g], e) for g, e in reversed(m[1]))

    def power(self, g: int, e: int) -> Monomial:
        """The monomial g^e of the generator at position g."""
        return (self._weights[g] * e, ((g, e),))

    def lcm(self, a: Monomial, b: Monomial) -> Monomial:
        """The least common multiple of monomials a and b."""
        exps, w = dict(a[1]), a[0]
        weights = self._weights
        for g, e in b[1]:
            have = exps.get(g, 0)
            if e > have:
                exps[g] = e
                w += weights[g] * (e - have)
        return (w, tuple(sorted(exps.items(), reverse=True)))

    def symbol(self, name: str, indices: tuple = ()) -> GeneratorSymbol:
        try:
            return self._by_key[(name, tuple(indices))]
        except KeyError:
            raise KeyError(f"unknown generator {name!r} with indices {tuple(indices)}")

    def kills(self, m: Monomial) -> bool:
        """Whether a monomial relation divides m: an exponent reaches its
        generator's cap, or a relation on several generators divides m."""
        caps = self._caps
        return (any(e >= caps.get(g, e + 1) for g, e in m[1])
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

    def above_top(self, weight: int) -> bool:
        """Whether the weight lies above the nilpotent bound, where every
        graded piece is zero."""
        bound = self._max_monomial_weight
        return bound is not None and weight > bound

    def decidable(self, weight: int) -> bool:
        """Whether graded statements in this weight are exact: the weight
        lies inside the window 2D, or above the nilpotent bound."""
        return weight <= self.max_weight or self.above_top(weight)

    def top_weight(self) -> int:
        """The largest weight with a monomial in the window: the nilpotent
        bound clipped to 2D, else 2D.  Loops over weights stop here."""
        top = self.max_monomial_weight()
        return self.max_weight if top is None else min(top, self.max_weight)

    def targets(self, start: int, step: int, count: int) -> tuple:
        """The one rule for a run of identities with rising target weights
        ``start + i*step`` (step > 0, i < count), as (compared, skipped): the
        first ``compared`` lie at or below ``top_weight``; the next
        ``skipped`` lie above 2D and not above the nilpotent bound (all the
        rest on a free ring), so truncation cannot decide them; any others
        compare 0 with 0 above the top monomial and are not counted."""
        def upto(limit):
            return max(0, min(count, (limit - start) // step + 1))
        bound, compared = self._max_monomial_weight, upto(self.top_weight())
        return compared, (count if bound is None else upto(bound)) - compared

    # -- element constructors ------------------------------------------------
    def element(self, terms: Mapping[Monomial, int], mod: int | None = None,
                truncated: bool = False) -> "Element":
        return Element(self, dict(terms), mod, truncated)

    def zero(self, mod: int | None = None) -> "Element":
        return Element._clean(self, {}, mod)

    def one(self, mod: int | None = None) -> "Element":
        return Element._clean(self, {UNIT: 1}, mod)

    def scalar(self, c: int, mod: int | None = None) -> "Element":
        return Element(self, {UNIT: c}, mod)

    def gen(self, name: str, indices: tuple = (), mod: int | None = None) -> "Element":
        return self.var(self.symbol(name, indices), mod)

    def var(self, symbol: GeneratorSymbol, mod: int | None = None) -> "Element":
        i = self._pos.get(symbol.key)
        if i is None:
            raise KeyError(f"unknown generator {symbol}")
        m = self.power(i, 1)
        return Element._clean(self, {} if self.monomial_relations and self.kills(m) else {m: 1},
                              mod)

    def monomials_of_weight(self, weight: int, predicate=None, positions=None) -> list:
        """All monomials of the given weight (<= 2D), respecting monomial
        relations; ``predicate`` may prune partial monomials early, and it
        must reject every multiple of a monomial it rejects, as the
        relations do.  The walk tries only the generator ``positions``
        (ascending; all by default), so leaving out a generator whose
        degree-1 monomial the predicate rejects changes nothing."""
        if weight > self.max_weight:
            raise ValueError(f"weight {weight} exceeds the truncation bound {self.max_weight}")
        out: list = []
        weights, relations = self._weights, self.monomial_relations
        order = range(len(weights)) if positions is None else positions

        def extend(idx: int, remaining: int, acc: tuple):
            if remaining == 0:
                out.append((weight, acc))
                return
            for k, i in enumerate(order[idx:], idx):
                w = weights[i]
                e = 1
                while e * w <= remaining:
                    mono = (weight - remaining + e * w, ((i, e),) + acc)
                    if (relations and self.kills(mono)
                            or predicate is not None and not predicate(mono)):
                        break
                    extend(k + 1, remaining - e * w, mono[1])
                    e += 1

        extend(0, weight, ())
        return sorted(out)

    def __repr__(self):
        return (f"WeightedRing({len(self.generators)} generators, D={self.truncation}, "
                f"{len(self.monomial_relations)} monomial relations)")


class Element:
    """A sparse polynomial in a WeightedRing.

    Values are immutable by convention.  ``mod`` is None for integer
    coefficients or a prime p for coefficients in [0, p-1].  ``truncated``
    records that terms above the ambient weight bound were dropped somewhere
    in this value's history; a term the monomial relations kill is zero, not
    dropped.  The flag does not participate in equality.
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
            if c == 0 or relations and ring.kills(m):
                continue
            if m[0] > bound:
                dropped = True
                continue
            clean[m] = c
        self.terms = clean
        self.truncated = truncated or dropped

    @staticmethod
    def _clean(ring: WeightedRing, terms: dict, mod: int | None = None,
               truncated: bool = False) -> "Element":
        """An element on terms that are already nonzero, reduced mod ``mod``,
        inside the window and not killed: ``__init__``'s filter would keep
        every one of them, so it does not run."""
        self = _new(Element)
        self.ring = ring
        self.terms = terms
        self.mod = mod
        self.truncated = truncated
        return self

    # -- basic protocol -------------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.ring is other.ring and self.mod == other.mod
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.ring), self.mod, tuple(sorted(self.terms.items()))))

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
        add_into(terms, other.terms.items(), 1, self.mod)
        return Element._clean(self.ring, terms, self.mod, self.truncated or other.truncated)

    __radd__ = __add__

    def __neg__(self):
        mod = self.mod
        terms = {m: -c if mod is None else mod - c for m, c in self.terms.items()}
        return Element._clean(self.ring, terms, mod, self.truncated)

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
        ring, mod = self.ring, self.mod
        bound, relations = ring.max_weight, ring.monomial_relations
        terms: dict = {}
        dropped = False
        for ma, ca in self.terms.items():
            wa = ma[0]
            for mb, cb in other.terms.items():
                if wa + mb[0] > bound:
                    # a product the relations kill is zero, not lost
                    dropped = dropped or not relations or not ring.kills(mono_mul(ma, mb))
                    continue
                m = mono_mul(ma, mb)
                terms[m] = terms.get(m, 0) + ca * cb
        truncated = self.truncated or other.truncated or dropped
        if relations:
            return Element(ring, terms, mod, truncated)
        if mod is None:
            terms = {m: c for m, c in terms.items() if c}
        else:
            terms = {m: r for m, c in terms.items() if (r := c % mod)}
        return Element._clean(ring, terms, mod, truncated)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponents must be non-negative integers")
        ring, mod = self.ring, self.mod
        if len(self.terms) == 1 and n:
            ((w, pairs), c), = self.terms.items()
            if w * n <= ring.max_weight:
                # one term whose power stays in the window: one monomial power
                m = (w * n, tuple((g, e * n) for g, e in pairs))
                c = c**n if mod is None else pow(c, n, mod)
                kept = c and not (ring.monomial_relations and ring.kills(m))
                return Element._clean(ring, {m: c} if kept else {}, mod, self.truncated)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return ring.one(mod) if result is None else result

    # -- queries ----------------------------------------------------------------
    def weight(self):
        """Minimum term weight; +inf for the zero element."""
        if not self.terms:
            return math.inf
        return min(self.terms)[0]  # monomials order by weight first

    def homogeneous_component(self, weight: int) -> "Element":
        """The weight-``weight`` part.  Exact for weight <= 2D even if this
        value is flagged as truncated (dropped terms cannot re-enter below the
        bound), so the flag is cleared on the result."""
        if weight > self.ring.max_weight:
            raise ValueError(
                f"component weight {weight} exceeds the truncation bound {self.ring.max_weight}")
        terms = {m: c for m, c in self.terms.items() if m[0] == weight}
        return Element._clean(self.ring, terms, self.mod)

    def weights(self) -> list:
        return sorted({m[0] for m in self.terms})

    def is_homogeneous(self) -> bool:
        return len({m[0] for m in self.terms}) <= 1

    def leading(self):
        """(monomial, coefficient) maximal in the graded order; None if zero."""
        if not self.terms:
            return None
        m = max(self.terms)
        return m, self.terms[m]

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), reverse=True)

    # -- coefficient-ring moves ---------------------------------------------------
    def reduce_mod(self, p: int) -> "Element":
        """Reduce integer coefficients mod p (a ring homomorphism)."""
        if self.mod is not None:
            raise ValueError("element already has mod-p coefficients")
        terms = {m: r for m, c in self.terms.items() if (r := c % p)}
        return Element._clean(self.ring, terms, p, self.truncated)

    def integer_lift(self) -> "Element":
        """Mod-p -> integer coefficients via representatives in [1, p-1]."""
        if self.mod is None:
            raise ValueError("element already has integer coefficients")
        return Element._clean(self.ring, dict(self.terms), None, self.truncated)

    def exact_div(self, k: int) -> "Element":
        """Divide every coefficient by the integer k, which must be exact."""
        if self.mod is not None:
            raise ValueError("exact division is an integral-layer operation")
        return Element._clean(self.ring, exact_quotient(self.terms, k), None, self.truncated)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if not m[1]:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono_str(self.ring, m))
            elif c == -1:
                parts.append(f"-{mono_str(self.ring, m)}")
            else:
                parts.append(f"{c}*{mono_str(self.ring, m)}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        tag = f" mod {self.mod}" if self.mod is not None else ""
        flag = ", truncated" if self.truncated else ""
        return f"<{self}{tag}{flag}>"


class RingMap:
    """The ring endomorphism sending the generator at position g to
    ``images[g]`` and fixing integers, on coefficients mod ``mod``.  ``memo``
    holds each monomial's image, bounded by ``remember`` stretched to twice
    the generator count: a map reads most generators and their products."""

    def __init__(self, ring: WeightedRing, images, mod: int | None = None):
        self.ring, self.images, self.mod = ring, tuple(images), mod
        self.memo: dict = {}

    def image(self, m: Monomial) -> "Element":
        """``images[g] ** e`` for a generator power g^e, else the product of
        the images of m's generator powers in ascending generator order."""
        out = self.memo.get(m)
        if out is None:
            if len(m[1]) == 1:
                (g, e), = m[1]
                out = self.images[g] ** e
            else:
                out = self.ring.one(self.mod)
                for g, e in reversed(m[1]):
                    out = out * self.image(self.ring.power(g, e))
            remember(self.memo, m, out, 2 * len(self.images))
        return out

    def __call__(self, e: "Element") -> "Element":
        """The sum of c * image(m) over the terms c*m of e, added in term
        order, flagged truncated when e or some image is."""
        terms: dict = {}
        truncated = e.truncated
        for m, c in e.terms.items():
            image = self.image(m)
            truncated = truncated or image.truncated
            add_into(terms, image.terms.items(), c, self.mod)
        return Element._clean(self.ring, terms, self.mod, truncated)

    def band(self, e: "Element", shift: int) -> "Element":
        """The sum over the terms c*m of e of c times the weight-(weight(m)
        + shift) part of image(m), in term order; targets above 2D add none."""
        terms: dict = {}
        for m, c in e.terms.items():
            target = m[0] + shift
            if target <= self.ring.max_weight:
                image = self.image(m).terms.items()
                add_into(terms, [(tm, tc) for tm, tc in image if tm[0] == target], c, self.mod)
        return Element._clean(self.ring, terms, self.mod)


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
                    "monomial": [[id_to_json(g), exp] for g, exp in e.ring.symbol_pairs(mono)]})
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
    return ring.monomial((ring.symbol(*id_from_json(gid)), exp) for gid, exp in data)
