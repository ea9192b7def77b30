"""Operations on the mod-p associated graded of a pre-psi-p algebra.

A class in graded weight 2q is lifted to an integral element of weight
exactly 2q, the element is split into layers at level q, and P^i returns the
mod-p class of layer i in weight 2q + 2i(p-1); above the level the
operations vanish, and at the top they are the p-th power, both by
construction.  The registered checkers (``AXIOMS``) verify the other
unstable-algebra axioms for these derived operations, degree by degree,
exactly within the truncation window.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from . import atiyah
from .arith import adem_coefficient, lucas_binom  # noqa: F401 (re-exported API)
from .atiyah import AtiyahDecomposition, PrePsiAlgebra, atiyah_decompose, verify_welldefined
from .rings import Element, even_filtration
from .verdicts import Verdict


def _above_window(algebra, degree: int, what: str = "degree") -> bool:
    """Whether ``degree`` lies above the window 2D, where its graded piece is
    structurally zero (``WeightedRing.decidable``); a degree above the window
    that the ring cannot decide raises, naming it as ``what``."""
    if degree <= algebra.ring.max_weight:
        return False
    if not algebra.ring.decidable(degree):
        raise ValueError(f"{what} {degree} is outside the truncation window")
    return True


@dataclass(frozen=True, eq=False)
class GradedClass:
    """An element of the mod-p associated graded in one even degree.

    The representative is weight-homogeneous, has coefficients in [0, p-1]
    and is in normal form whenever the algebra carries a graded Groebner
    basis.  Equality is by (ring, degree, representative): operation tables
    and splitting data belong to the algebra, not to its graded classes."""

    algebra: PrePsiAlgebra
    degree: int
    rep: Element

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.degree == other.degree and self.rep == other.rep

    def __hash__(self):
        return hash((self.degree, self.rep))

    def __post_init__(self):
        if self.degree % 2 or self.degree < 0:
            raise ValueError(f"graded degrees are non-negative even integers, got {self.degree}")
        if self.rep.mod != self.algebra.p:
            raise ValueError("representative must have mod-p coefficients")
        if self.rep and self.rep.weight() != self.degree:
            raise ValueError(
                f"representative has weight {self.rep.weight()}, expected {self.degree}")
        if self.rep and not self.rep.is_homogeneous():
            raise ValueError("representative must be weight-homogeneous")

    def __bool__(self):
        return bool(self.rep)

    def _require_same(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")
        if self.degree != other.degree:
            raise ValueError(f"degrees differ: {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._require_same(other)
        return gr_class_of_rep(self.algebra, self.rep + other.rep, self.degree)

    def __sub__(self, other):
        self._require_same(other)
        return gr_class_of_rep(self.algebra, self.rep - other.rep, self.degree)

    def __mul__(self, other):
        if isinstance(other, int):
            return gr_class_of_rep(self.algebra, self.rep * other, self.degree)
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")
        degree = self.degree + other.degree
        if _above_window(self.algebra, degree, "product degree"):
            return zero_class(self.algebra, degree)
        return gr_class_of_rep(self.algebra, self.rep * other.rep, degree)

    __rmul__ = __mul__

    def pth_power(self) -> "GradedClass":
        degree = self.degree * self.algebra.p
        if _above_window(self.algebra, degree, "p-th power degree"):
            return zero_class(self.algebra, degree)
        return gr_class_of_rep(self.algebra, self.rep ** self.algebra.p, degree)

    def lift(self) -> Element:
        """The canonical integral lift of exact weight ``degree``."""
        return self.rep.integer_lift()

    def __str__(self):
        return f"[{self.rep}]@{self.degree}"


def zero_class(algebra: PrePsiAlgebra, degree: int) -> GradedClass:
    return GradedClass(algebra, degree, algebra.ring.zero(algebra.p))


def gr_class_of_rep(algebra: PrePsiAlgebra, rep: Element, degree: int) -> GradedClass:
    if algebra.graded_gb is not None and rep:
        rep = algebra.graded_gb.reduce(rep)
    return GradedClass(algebra, degree, rep)


def gr_class(algebra: PrePsiAlgebra, e: Element, degree: int) -> GradedClass:
    """The class of an element in the given graded degree (its weight-degree
    homogeneous component reduced mod p, then normal-formed)."""
    degree = even_filtration(degree)
    if e.weight() < degree:
        raise ValueError(
            f"element has weight {e.weight()}, so it has no class in degree {degree}")
    if _above_window(algebra, degree):
        return zero_class(algebra, degree)
    comp = e.homogeneous_component(degree)
    if comp.mod is None:
        comp = comp.reduce_mod(algebra.p)
    return gr_class_of_rep(algebra, comp, degree)


# -- the operations ----------------------------------------------------------------


def operation(algebra, i: int, cls: GradedClass, compute) -> GradedClass:
    """P^i on a graded class of either kind of algebra, with the conventions
    both share: zero above the level, on the zero class and beyond a
    structurally zero window.  Otherwise ``compute(algebra, i, cls)``,
    memoized in the algebra's ``operations`` dict under ``(i, degree, rep
    terms)``, the same data ``GradedClass`` equality compares.  Like the
    splitting cache it holds at most ``SPLITTING_CACHE_SIZE`` entries and
    stops inserting once full."""
    if i < 0:
        raise ValueError("operation index must be non-negative")
    target = cls.degree + 2 * i * (algebra.p - 1)
    if i > cls.degree // 2 or not cls:
        return zero_class(algebra, target)
    if _above_window(algebra, target, "operation target degree"):
        return zero_class(algebra, target)
    key = (i, cls.degree, frozenset(cls.rep.terms.items()))
    out = algebra.operations.get(key)
    if out is None:
        out = compute(algebra, i, cls)
        if len(algebra.operations) < atiyah.SPLITTING_CACHE_SIZE:
            algebra.operations[key] = out
    return out


def _derived_P(algebra: PrePsiAlgebra, i: int, cls: GradedClass) -> GradedClass:
    """The class of layer i of a level-(degree/2) splitting of the class's
    lift, in a target degree inside the window."""
    dr = atiyah_decompose(algebra, cls.lift(), cls.degree // 2)
    return gr_class(algebra, dr.layer(i), cls.degree + 2 * i * (algebra.p - 1))


def steenrod_P(algebra: PrePsiAlgebra, i: int, cls: GradedClass) -> GradedClass:
    """P^i on a graded class, derived from an Atiyah splitting of any lift of
    exact weight equal to the class degree; computed once per algebra and
    (i, class), see ``operation``."""
    return operation(algebra, i, cls, _derived_P)


# -- sampling ------------------------------------------------------------------------


def graded_basis(algebra: PrePsiAlgebra, degree: int) -> list:
    """Monomial basis classes of one graded degree (standard monomials when a
    Groebner basis is attached).  Degrees in the window are memoized per
    algebra in its ``graded_bases`` dict; every call returns a fresh list."""
    if _above_window(algebra, degree):
        return []
    basis = algebra.graded_bases.get(degree)
    if basis is None:
        gb = algebra.graded_gb
        predicate = gb.is_standard if gb is not None else None
        monos = algebra.ring.monomials_of_weight(degree, predicate=predicate)
        p = algebra.p
        basis = algebra.graded_bases[degree] = [
            GradedClass(algebra, degree, algebra.ring.element({m: 1}, mod=p)) for m in monos]
    return list(basis)


def sample_classes(algebra: PrePsiAlgebra, degree: int, rng: random.Random,
                   count: int) -> list:
    """Monomial basis classes plus ``count`` random Z/p-combinations."""
    basis = graded_basis(algebra, degree)
    out = list(basis)
    p = algebra.p
    for _ in range(count):
        if not basis:
            break
        rep = algebra.ring.zero(p)
        for _ in range(rng.randrange(1, min(len(basis), 3) + 1)):
            cls = basis[rng.randrange(len(basis))]
            rep = rep + cls.rep * rng.randrange(1, p)
        cand = gr_class_of_rep(algebra, rep, degree)
        if cand:
            out.append(cand)
    return out


def interesting_degrees(algebra: PrePsiAlgebra, minimum: int = 0) -> list:
    """Even degrees up to the window with a nonzero graded piece; a nilpotent
    ring stops at its top monomial weight."""
    out = []
    for degree in range(minimum, algebra.ring.top_weight() + 1, 2):
        if degree == 0 or graded_basis(algebra, degree):
            out.append(degree)
    return out


# -- axiom checkers -------------------------------------------------------------------


def _decidable(algebra, *degrees) -> bool:
    """Whether every degree an identity reaches is decidable under truncation."""
    return all(algebra.ring.decidable(d) for d in degrees)


def _double_layer_class(base: AtiyahDecomposition, i: int, j: int) -> GradedClass:
    """The class of r_(i,j): layer j of the splitting of layer i of ``base``,
    taken at level q + i(p-1)."""
    algebra = base.algebra
    level = base.level + i * (algebra.p - 1)
    target = 2 * level + 2 * j * (algebra.p - 1)
    layer = base.layer(i)
    if not layer:
        return zero_class(algebra, target)
    return gr_class(algebra, atiyah_decompose(algebra, layer, level).layer(j), target)


def check_additivity(algebra, degree: int, trials: int = 20, seed: int = 0) -> Verdict:
    """P^i(a + b) = P^i(a) + P^i(b) on sampled pairs in one degree."""
    rng = random.Random(seed)
    q = degree // 2
    classes = sample_classes(algebra, degree, rng, trials)
    pairs = [(a, b) for a in classes for b in classes][: max(trials, len(classes)) * 4]

    def outcomes():
        for a, b in pairs:
            for i in range(q + 1):
                if not algebra.ring.decidable(degree + 2 * i * (algebra.p - 1)):
                    yield None
                elif algebra.P(i, a + b) == algebra.P(i, a) + algebra.P(i, b):
                    yield True
                else:
                    yield {"degree": degree, "i": i, "a": str(a.rep), "b": str(b.rep)}
    return Verdict.tally("additivity", outcomes())


def check_pth_power(algebra, degree: int, trials: int = 10, seed: int = 0) -> Verdict:
    """P^q is the p-th power map on degree 2q.  Not in ``AXIOMS``: P^q reads
    the top layer, which every splitting builds as ``source^p`` and
    ``check_exactness`` already checks, so it cannot fail.  Kept only as the
    name ``perfbench/tracer.py`` probes."""
    rng = random.Random(seed)
    q = degree // 2

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
            if not algebra.ring.decidable(degree * algebra.p):
                yield None
            elif algebra.P(q, cls) == cls.pth_power():
                yield True
            else:
                yield {"degree": degree, "class": str(cls.rep)}
    return Verdict.tally("pth-power", outcomes())


def check_instability(algebra, degree: int, trials: int = 10, seed: int = 0) -> Verdict:
    """P^i vanishes above the level: P^i(c) = 0 for 2i > degree.  Not in
    ``AXIOMS``: ``operation`` returns zero for i > q before it reads any
    splitting, so it cannot fail.  Kept only as the name
    ``perfbench/tracer.py`` probes."""
    rng = random.Random(seed)
    q = degree // 2

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
            for i in range(q + 1, q + 4):
                if algebra.P(i, cls):
                    yield {"degree": degree, "i": i, "class": str(cls.rep)}
                else:
                    yield True
    return Verdict.tally("instability", outcomes())


def check_cartan(algebra, deg1: int, deg2: int, trials: int = 10, seed: int = 0) -> Verdict:
    """P^i(a*b) = sum over l+k=i of P^l(a) P^k(b) on sampled pairs."""
    name = f"cartan@{deg1}x{deg2}"
    product_degree = deg1 + deg2
    if not algebra.ring.decidable(product_degree):
        return Verdict.tally(name, [None])
    rng = random.Random(seed)
    q1, q2 = deg1 // 2, deg2 // 2
    left = sample_classes(algebra, deg1, rng, trials)
    right = sample_classes(algebra, deg2, rng, trials)
    pairs = [(a, b) for a in left for b in right][: max(trials, 1) * 6]
    step = 2 * (algebra.p - 1)

    def outcomes():
        for a, b in pairs:
            ab = a * b
            for i in range(q1 + q2 + 1):
                target = product_degree + i * step
                splits = [(l, i - l) for l in range(i + 1) if l <= q1 and i - l <= q2]
                if not _decidable(algebra, target, *(deg1 + l * step for l, _ in splits),
                                  *(deg2 + k * step for _, k in splits)):
                    yield None
                    continue
                lhs = algebra.P(i, ab)
                rhs = zero_class(algebra, target)
                for l, k in splits:
                    rhs = rhs + algebra.P(l, a) * algebra.P(k, b)
                if lhs == rhs:
                    yield True
                else:
                    yield {"deg1": deg1, "deg2": deg2, "i": i,
                           "a": str(a.rep), "b": str(b.rep)}
    return Verdict.tally(name, outcomes())


def check_p0_identity(algebra, degrees, trials: int = 10, seed: int = 0) -> Verdict:
    """P^0 = Id on every sampled class of the listed degrees."""
    rng = random.Random(seed)

    def outcomes():
        for degree in degrees:
            for cls in sample_classes(algebra, degree, rng, trials):
                image = algebra.P(0, cls)
                if image == cls:
                    yield True
                else:
                    yield {"degree": degree, "class": str(cls.rep), "P0": str(image.rep)}
    return Verdict.tally("p0-identity", outcomes())


def check_adem(algebra, degree: int, trials: int = 6, seed: int = 0) -> Verdict:
    """The relations rewriting P^i P^j for i < pj, checked by composing the
    operations on sampled classes.  On an algebra that carries splittings the
    double layers r_(j,i) of the sampled lifts give a second route, and both
    routes must agree."""
    rng = random.Random(seed)
    p = algebra.p
    q = degree // 2
    if q == 0:
        return Verdict.decide("adem", 0, 0, None, ("degree 0 is trivial",))
    layered = isinstance(algebra, PrePsiAlgebra)
    step = 2 * (p - 1)
    # the (t, c) of each relation with a decidable target, once per call
    coefficients = {(i, j): [(t, c) for t in range(i // p + 1)
                             if (c := adem_coefficient(p, i, j, t))]
                    for j in range(1, q + 3) for i in range(1, p * j)
                    if algebra.ring.decidable(degree + (i + j) * step)}

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
            if not cls:
                continue
            base = atiyah_decompose(algebra, cls.lift(), q) if layered else None
            for j in range(1, q + 3):
                for i in range(1, p * j):
                    target = degree + (i + j) * step
                    coeffs = coefficients.get((i, j))  # None: the target is undecidable
                    if coeffs is None or not _decidable(
                            algebra, degree + j * step, *(degree + t * step for t, _ in coeffs)):
                        yield None
                        continue
                    lhs = algebra.P(i, algebra.P(j, cls))
                    rhs = zero_class(algebra, target)
                    for t, c in coeffs:
                        rhs = rhs + algebra.P(i + j - t, algebra.P(t, cls)) * c
                    if base is not None:
                        layer_rhs = zero_class(algebra, target)
                        for t, c in coeffs:
                            layer_rhs = layer_rhs + _double_layer_class(base, t, i + j - t) * c
                        if _double_layer_class(base, j, i) != lhs or layer_rhs != rhs:
                            yield {"degree": degree, "i": i, "j": j, "class": str(cls.rep),
                                   "note": "layer route and composition route disagree"}
                            continue
                    if lhs == rhs:
                        yield True
                    else:
                        yield {"degree": degree, "i": i, "j": j, "class": str(cls.rep),
                               "lhs": str(lhs.rep), "rhs": str(rhs.rep)}
    return Verdict.tally("adem", outcomes())


def check_exactness(algebra: PrePsiAlgebra, degree: int, trials: int = 10,
                    seed: int = 0) -> Verdict:
    """Structural contract of produced splittings: exact layer sums, layer
    weight bounds, top layers equal to p-th powers."""
    rng = random.Random(seed)
    q = degree // 2

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
            if not cls:
                continue
            for level in sorted({q, max(q - 1, 0)}):
                issues = atiyah_decompose(algebra, cls.lift(), level).problems()
                if issues:
                    yield {"degree": degree, "level": level, "class": str(cls.rep),
                           "problems": issues}
                else:
                    yield True
    return Verdict.tally("atiyah-exactness", outcomes())


# -- the axiom registry ---------------------------------------------------------------


def _welldefined(algebra, degrees, trials, seed):
    rng = random.Random(seed)
    return [verify_welldefined(algebra, cls.lift(), d // 2, trials=max(2, trials // 2),
                               seed=rng.randrange(2**30))
            for d in degrees for cls in graded_basis(algebra, d)[:2]]


def _cartan(algebra, degrees, trials, seed):
    head = degrees[:4]
    return [check_cartan(algebra, d1, d2, max(2, trials // 2), seed)
            for d1 in head for d2 in head if d1 <= d2]


@dataclass(frozen=True)
class Axiom:
    """One registry entry: the name ``verify --axioms`` takes, the name of
    the merged verdict, and a runner giving the partial verdicts of
    (algebra, degrees, trials, seed).  Runners look their checkers up by
    name on each call, so a checker replaced on the module is the one run."""

    cli: str
    verdict: str
    runner: Callable


AXIOMS = (
    Axiom("exactness", "atiyah-exactness",
          lambda A, ds, t, s: [check_exactness(A, d, t, s) for d in ds]),
    Axiom("welldefined", "well-definedness", _welldefined),
    Axiom("p0", "p0-identity", lambda A, ds, t, s: [check_p0_identity(A, ds, t, s)]),
    Axiom("adem", "adem", lambda A, ds, t, s: [check_adem(A, d, t, s) for d in ds]),
    Axiom("additivity", "additivity",
          lambda A, ds, t, s: [check_additivity(A, d, t, s) for d in ds]),
    Axiom("cartan", "cartan", _cartan),
)


def run_axioms(algebra, names=None, trials: int = 8, seed: int = 0) -> list:
    """One merged verdict per named axiom (every registry axiom by default),
    in the order named, over the degrees with a nonzero graded piece."""
    by_cli = {a.cli: a for a in AXIOMS}
    for name in names or ():
        if name not in by_cli:
            raise ValueError(f"unknown axiom {name!r}; choose from "
                             f"{', '.join(by_cli)}")
    chosen = AXIOMS if names is None else [by_cli[n] for n in dict.fromkeys(names)]
    degrees = interesting_degrees(algebra, 2)
    return [Verdict.merge(a.verdict, a.runner(algebra, degrees, trials, seed))
            for a in chosen]


@dataclass
class Classification:
    """classify() output: the verdict aggregate plus the final label."""

    label: str
    verdicts: list

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"classification": self.label,
                "verdicts": [v.to_dict() for v in self.verdicts]}


NOT_PRE_PSI = "not-pre-psi-p"
PRE_PSI = "pre-psi-p"
PSI_ALGEBRA = "psi-p-algebra"


def classify(algebra: PrePsiAlgebra, trials: int = 8, seed: int = 0) -> Classification:
    """Run the axiom registry and aggregate into one of: not-pre-psi-p
    (a structural check fails), pre-psi-p (P^0 = Id or Adem fails) and
    psi-p-algebra."""
    verdicts = run_axioms(algebra, trials=trials, seed=seed)
    failed = {v.name for v in verdicts if not v.passed}
    if failed - {"p0-identity", "adem"}:
        label = NOT_PRE_PSI
    elif failed:
        label = PRE_PSI
    else:
        label = PSI_ALGEBRA
    return Classification(label, verdicts)
