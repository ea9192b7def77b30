"""Distinguished-endomorphism structures and their band splittings.

A pre-psi-p algebra is a weighted ring with a prime p and, for every
generator g of weight 2*sigma, its psi image, which a document writes as

    psi(g) = p^sigma g_0 + p^(sigma-1) g_1 + ... + p g_(sigma-1) + g^p

with layers g_i of weight >= 2*sigma + 2*i*(p-1).  The psi image of any
element determines a splitting of it at every level: cut psi(e) into weight
bands and divide each by its power of p (``atiyah_decompose``).  A level-0
pair (r', r^p) weighs like a level-1 splitting, so one rule serves every
level.  Everything is exact integer arithmetic; the only approximation in
the system is the weight truncation of the ambient ring, which the sticky
``truncated`` flags record.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .arith import add_into, band_cut, require_power_bits, validate_prime
from .rings import Element, RingMap, WeightedRing, mono_str, mono_weight
from .verdicts import Verdict


class PrePsiAlgebra:
    """A weighted ring with a prime p and one psi image per generator.

    ``images`` maps each generator key, g of weight 2*sigma, to psi(g) - g^p;
    the algebra adds g^p, keeping its truncated flag, and ``psi`` is the
    ``RingMap`` on the sums (it fixes integers).  An image must be integral,
    with no term below weight 2*sigma and a ``band_cut`` at level sigma that
    divides, as any layers' weighted sum does.  psi must preserve each
    monomial relation prod g^e: the product of the psi(g)^e may keep no term
    in the window, though it may lose terms above it (``truncated``).  Graded
    relations are not checked.  An optional Groebner basis over Z/p realizes
    the graded quotient of an algebra that presents one (e.g. a lift).

    ``psi`` memoizes each monomial's image, the one cache that splittings
    (``atiyah_decompose``) and P^i (``apply_P``) read, holding at most
    ``rings.SPLITTING_CACHE_SIZE`` entries.  ``graded_bases`` memoizes
    ``steenrod.graded_basis`` by degree.
    """

    def __init__(self, ring: WeightedRing, p: int, images: dict,
                 graded_gb=None, name: str = ""):
        self.ring = ring
        self.p = validate_prime(p)
        self.name = name
        self.graded_gb = graded_gb
        full = []
        for g in ring.generators:
            below, sigma = images.get(g.key), g.weight // 2
            if below is None or below.ring is not ring or below.mod is not None:
                raise ValueError(f"generator {g} needs its psi image below the top as an "
                                 f"integral element of the ring")
            if below and below.weight() < g.weight:
                raise ValueError(f"the psi image of {g} has a term below weight {g.weight}")
            try:
                band_cut(below.terms.items(), mono_weight, sigma, p, sigma, sigma)
            except ArithmeticError as exc:
                raise ValueError(f"the psi image of {g} does not cut into layers: {exc}") from None
            full.append(below + ring.var(g) ** p)
        self.psi = RingMap(ring, full)
        for m in ring.monomial_relations:
            image = math.prod((self.psi.images[g] ** e for g, e in reversed(m[1])),
                              start=ring.one())
            if image:
                term = ring.element(dict([image.leading()]))
                raise ValueError(f"psi does not preserve the relation {mono_str(ring, m)} = 0: "
                                 f"the product of the psi images of its factors keeps {term}")
        self.graded_bases: dict = {}

    def apply_psi(self, e: Element) -> Element:
        """psi of an integral element of this algebra's ring."""
        if e.ring is not self.ring:
            raise ValueError("element lives in a different ambient ring")
        if e.mod is not None:
            raise ValueError("psi acts on the integral layer")
        return self.psi(e)

    def apply_P(self, i: int, e: Element) -> Element:
        """P^i on a nonzero mod-p element of one weight 2q, 0 <= i <= q: the
        weight-(2q + 2i(p-1)) band of psi of its integral lift (``psi.band``)
        divided by p^(q-i), exactly (``tests/test_band_formula.py``), mod p,
        with no normal form.  Callers keep the target in the window."""
        if e.ring is not self.ring or e.mod != self.p or not e or not e.is_homogeneous():
            raise ValueError("P^i reads one nonzero weight of this algebra's mod-p elements")
        p, q = self.p, e.weight() // 2
        if not 0 <= i <= q:
            raise ValueError(f"P^{i} is read off psi only for 0 <= i <= {q}")
        band = self.psi.band(e.integer_lift(), 2 * i * (p - 1))
        return band.exact_div(p ** (q - i)).reduce_mod(p)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"PrePsiAlgebra(p={self.p}{tag}, {self.ring!r})"


class AtiyahDecomposition(namedtuple("AtiyahDecomposition", "algebra source level layers")):
    """A splitting psi(source) = sum_i p^(k-i) * layers[i], where k is the
    last index and layers[k] = source^p.

    At level q >= 1 there are q+1 layers, so k = q.  At level 0 the layers
    are the pair (r', r^p) with psi(source) = p*r' + r^p, so k = 1: a
    level-0 pair weighs like a level-1 splitting, and sums and products
    treat it as one.
    """

    __slots__ = ()

    def __new__(cls, algebra, source, level, layers):
        layers = tuple(layers)
        expected = max(level, 1) + 1
        if len(layers) != expected:
            raise ValueError(
                f"level-{level} decomposition needs {expected} layers, got {len(layers)}")
        return super().__new__(cls, algebra, source, level, layers)

    @property
    def truncated(self) -> bool:
        return self.source.truncated or any(l.truncated for l in self.layers)

    def layer(self, i: int) -> Element:
        """Layer i as the checks of the calculus read it: layers[i] below the
        level, the top source^p at the level (level 0 included), zero above."""
        if i > self.level:
            return self.algebra.ring.zero()
        return self.layers[-1] if i == self.level else self.layers[i]

    def weighted_sum(self) -> Element:
        """sum_i p^(k-i) * layers[i], in one pass over the layers' terms."""
        p, top = self.algebra.p, len(self.layers) - 1
        terms: dict = {}
        for i, layer in enumerate(self.layers):
            if layer:
                add_into(terms, layer.terms.items(), p ** (top - i))
        return Element._clean(self.algebra.ring, terms, None,
                              any(layer.truncated for layer in self.layers))

    def problems(self) -> list:
        """Violations of the defining contract, as human-readable strings."""
        out = []
        p, q = self.algebra.p, self.level
        if self.weighted_sum() != self.algebra.apply_psi(self.source):
            out.append("weighted layer sum differs from psi(source)")
        if self.layers[-1] != self.source**p:
            out.append("top layer is not source^p")
        # a level-0 pair has no weight bound: its top r^p may sit in weight 0
        for i, layer in enumerate(self.layers if q else ()):
            if layer.weight() < 2 * q + 2 * i * (p - 1):
                out.append(
                    f"layer {i} has weight {layer.weight()} < {2 * q + 2 * i * (p - 1)}")
        return out


def zero_decomposition(algebra: PrePsiAlgebra, q: int) -> AtiyahDecomposition:
    z = algebra.ring.zero()
    return AtiyahDecomposition(algebra, z, q, (z,) * (max(q, 1) + 1))


def atiyah_sum(*ds: AtiyahDecomposition) -> AtiyahDecomposition:
    """Combine splittings of s_1, ..., s_n into one for t = s_1 + ... + s_n
    at the lowest of their levels, q.

    A summand at level q is the base.  The layers of every other summand
    weighted by at least the base's bottom power of p fold into layer 0,
    times their surplus powers of p; the others add to the base layer with
    the same power of p, and the new top is t^p.  The single correction
    c = (t^p - s_1^p - ... - s_n^p)/p, read off the tops, is subtracted from
    the layer below the top.  A level-0 pair counts as a level-1 splitting,
    so one rule serves every level; for two summands at one level it is the
    textbook two-summand construction.  t^p is refused before it is built
    when its size bound exceeds ``MAX_POWER_BITS``.

    Nothing in the package calls it: ``atiyah_decompose`` cuts psi(e) into
    bands.  It stays, with ``atiyah_product``, for the splitting calculus
    the tests check that engine against and for the benchmark tracer's
    probes, and goes with those probes.
    """
    base = min(range(len(ds)), key=lambda k: ds[k].level)
    A, a = ds[base].algebra, len(ds[base].layers) - 1
    if any(d.algebra is not A for d in ds):
        raise ValueError("decompositions live in different algebras")
    p, layers = A.p, list(ds[base].layers[:a])
    t, tops = ds[base].source, ds[base].layers[-1]
    for d in ds[:base] + ds[base + 1:]:  # by position: a summand may repeat
        t, tops = t + d.source, tops + d.layers[-1]
        shift = len(d.layers) - 1 - a
        for j, layer in enumerate(d.layers[:-1]):
            if j <= shift:
                layers[0] = layers[0] + layer * p ** (shift - j)
            else:
                layers[j - shift] = layers[j - shift] + layer
    require_power_bits(_power_bits(t, p),
                       f"a sum of {len(t.terms)} terms raised to the power p={p}")
    top = t**p
    layers[a - 1] = layers[a - 1] - (top - tops).exact_div(p)
    return AtiyahDecomposition(A, t, ds[base].level, (*layers, top))


def _power_bits(t: Element, p: int) -> int:
    """An upper bound on the bits of each power t^e, e <= p, that ``t**p``
    builds by squaring and multiplying.  With M the sum of |c| over the T
    terms, a coefficient of t^e is at most M^e.  t^e keeps at most
    C(T+e-1, e) monomials, and only those of weight e*weight(t) up to the
    ring's top weight: in the n generators of t, those have total degree
    ceil(e*weight(t)/w_max) up to top/w_min.  The exponents are taken in
    brackets [e, 2e), each bounded at its ends."""
    magnitude = sum(abs(c) for c in t.terms.values())
    if magnitude <= 1:
        return 0  # zero or a unit monomial: the power is trivial
    weights = t.ring._weights
    gens = {g for m in t.terms for g, _ in m[1]}
    w_min = min((weights[g] for g in gens), default=1)
    w_max = max((weights[g] for g in gens), default=1)
    top, low, n = t.ring.top_weight(), t.weight(), len(gens)
    up_to_top = math.comb(n + top // w_min, n)
    worst, e = 0, 1
    while e <= p and e * low <= top:
        last = min(2 * e - 1, p)
        a = -(-e * low // w_max)
        window = up_to_top - (math.comb(n + a - 1, n) if a else 0)
        kept = min(math.comb(len(t.terms) + last - 1, last), window)
        worst = max(worst, kept * last * magnitude.bit_length())
        e *= 2
    return worst


def atiyah_product(da: AtiyahDecomposition, db: AtiyahDecomposition) -> AtiyahDecomposition:
    """Splitting of the product at the sum of the levels: layers convolve, so
    the top is r^p s^p.  A level-0 pair weighs like a level-1 splitting, so
    a factor of level 0 leaves one layer more than the level needs, and the
    bottom two fold into one: layers[:2] = [p*c_0 + c_1].  Like
    ``atiyah_sum``, it serves only the tests' calculus and the tracer's
    probes."""
    if da.algebra is not db.algebra:
        raise ValueError("decompositions live in different algebras")
    A = da.algebra
    layers = [A.ring.zero()] * (len(da.layers) + len(db.layers) - 1)
    for l, a in enumerate(da.layers):
        for k, b in enumerate(db.layers):
            layers[l + k] = layers[l + k] + a * b
    if 0 in (da.level, db.level):
        layers[:2] = [layers[0] * A.p + layers[1]]
    return AtiyahDecomposition(A, da.source * db.source, da.level + db.level, tuple(layers))


def atiyah_decompose(algebra: PrePsiAlgebra, e: Element, q: int) -> AtiyahDecomposition:
    """The splitting of an arbitrary element at level q <= weight(e)/2, cut
    from psi(e) in weight bands.

    With k = max(q, 1) and w_i = 2q + 2i(p-1), layer i < k-1 is the part of
    psi(e) in weights [w_i, w_(i+1)) divided by p^(k-i), layer k-1 is the
    rest of psi(e) - e^p divided by p, and the top is e^p.  Every term of a
    monomial's psi image that lands in band i carries at least p^(k-i), and
    psi(e) = e^p mod p, so every division is exact (``arith.band_cut``,
    which ``PsiModule.decompose`` calls too, checks it).  e^p is refused
    before it is built when its size bound (``_power_bits``) exceeds
    ``MAX_POWER_BITS``.  psi's monomial memo is the only cache.
    """
    if e.ring is not algebra.ring:
        raise ValueError("element lives in a different ambient ring")
    if e.mod is not None:
        raise ValueError("decompositions are taken in the integral layer")
    if not e:
        raise ValueError("cannot decompose the zero element")
    if 2 * q > e.weight():
        raise ValueError(f"element has weight {e.weight()}, below the requested 2q={2 * q}")
    if q < 0:
        raise ValueError("level must be non-negative")
    p, k = algebra.p, max(q, 1)
    require_power_bits(_power_bits(e, p),
                       f"the p-th power of a {len(e.terms)}-term element at p={p}")
    top = e**p
    psi = algebra.apply_psi(e)
    bands = band_cut(psi.terms.items(), mono_weight, q, p, k, k, top.terms.items())
    layers = [Element._clean(algebra.ring, band, None, psi.truncated) for band in bands]
    return AtiyahDecomposition(algebra, e, q, (*layers, top))


def explicit_lift_decomposition(algebra: PrePsiAlgebra, r: Element,
                                dr: AtiyahDecomposition, h: Element,
                                f: Element) -> AtiyahDecomposition:
    """The explicit splitting of s = r + p*h + f built from splittings of h
    and f and the element gamma with r^p + p*h^p + f^p = s^p + p*gamma.

    This is the well-definedness construction; it serves as an independent
    oracle against ``atiyah_decompose`` applied to s, and never splits s:
    r^p, h^p and f^p are the tops of the three splittings it reads, and s^p
    is built once.  Requires level >= 1, weight(h) >= 2q and
    weight(f) >= 2q+2.
    """
    p, q = algebra.p, dr.level
    if q < 1:
        raise ValueError("the explicit construction needs level >= 1")
    if h.weight() < 2 * q:
        raise ValueError("h must lie in filtration 2q")
    if f.weight() < 2 * q + 2:
        raise ValueError("f must lie in filtration 2q+2")
    s = r + h * p + f
    dh = atiyah_decompose(algebra, h, q) if h else zero_decomposition(algebra, q)
    n = (f.weight() - 2 * q) // 2 if f else 1
    df = atiyah_decompose(algebra, f, q + n) if f else zero_decomposition(algebra, q + n)
    top = s**p
    gamma = (dr.layers[-1] + dh.layers[-1] * p + df.layers[-1] - top).exact_div(p)

    layers = []
    for i in range(q - 1):
        layers.append(dr.layers[i] + dh.layers[i] * p + df.layers[i] * p**n)
    near_top = dr.layers[q - 1] + dh.layers[q - 1] * p + gamma
    for j in range(q - 1, q + n):
        near_top = near_top + df.layers[j] * p ** (q + n - 1 - j)
    layers.append(near_top)
    layers.append(top)
    return AtiyahDecomposition(algebra, s, q, tuple(layers))


# -- well-definedness verification ------------------------------------------------


def graded_classes_agree(algebra: PrePsiAlgebra, a: Element, b: Element,
                         weight: int):
    """Whether a and b have the same mod-p class in a weight inside the window."""
    diff = (a - b).homogeneous_component(weight).reduce_mod(algebra.p)
    if algebra.graded_gb is not None:
        diff = algebra.graded_gb.reduce(diff)
    return not diff


def random_element(algebra: PrePsiAlgebra, rng: random.Random, min_weight: int,
                   max_terms: int = 4) -> Element:
    """A random integral element supported in weights >= min_weight, with
    coefficients in [-p^2, p^2]."""
    ring, p = algebra.ring, algebra.p
    pool = []
    for w in range(min_weight + min_weight % 2, ring.top_weight() + 1, 2):
        pool.extend(ring.monomials_of_weight(w))
    if not pool:
        return ring.zero()
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        m = pool[rng.randrange(len(pool))]
        c = rng.randint(-p * p, p * p)
        terms[m] = terms.get(m, 0) + c
    return ring.element(terms)


def verify_welldefined(algebra: PrePsiAlgebra, e: Element, q: int,
                       trials: int = 20, seed: int = 0) -> Verdict:
    """Compare layer classes of e against randomized alternative lifts
    s = e + p*h + f, and on every trial against the explicit construction,
    the one route that builds s's splitting from those of e, h and f rather
    than from the bands of psi(s).

    PASS means every compared class agreed in every graded weight below the
    top monomial that the truncation window can decide; the first
    disagreement is a FAIL that ends the check.  Level 0 is refused: there
    P^0 reads only the top layer, (e + p*h + f)^p = e^p mod p in weight 0,
    and the explicit oracle needs q >= 1, so no comparison could fail.
    """
    if q == 0:
        raise ValueError("well-definedness needs level q >= 1: at level 0 the only layer "
                         "is the top one, (e + p*h + f)^p = e^p mod p, so no comparison "
                         "could fail")
    if e.weight() != 2 * q:
        raise ValueError(f"element must have weight exactly {2 * q}, got {e.weight()}")
    rng, p = random.Random(seed), algebra.p
    base = atiyah_decompose(algebra, e, q)
    compared, skipped = algebra.ring.targets(2 * q, 2 * (p - 1), q + 1)

    def agreement(da, db, witness):
        for i in range(compared):
            w = 2 * q + 2 * i * (p - 1)
            if graded_classes_agree(algebra, da.layer(i), db.layer(i), w):
                yield True
            else:
                yield {**witness, "layer": i, "weight": w}
        yield skipped

    def outcomes():
        for t in range(trials):
            h = random_element(algebra, rng, min_weight=2 * q)
            f = random_element(algebra, rng, min_weight=2 * q + 2)
            s = e + h * p + f
            if not s:
                continue
            ds = atiyah_decompose(algebra, s, q)
            trial = {"trial": t, "h": str(h), "f": str(f)}
            yield from agreement(base, ds, trial)
            dx = explicit_lift_decomposition(algebra, e, base, h, f)
            if dx.weighted_sum() != algebra.apply_psi(s):
                yield {**trial, "oracle": "explicit construction is inexact"}
            yield from agreement(dx, ds, {**trial, "oracle": "explicit-vs-engine"})
    return Verdict.tally("well-definedness", outcomes())._replace(notes=(f"seed={seed}",))
