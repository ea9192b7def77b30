"""Operations on the mod-p associated graded of a pre-psi-p algebra.

A class in graded weight 2q has an integral lift e of weight exactly 2q, and
P^i returns the mod-p class of psi(e)_w / p^(q-i), w = 2q + 2i(p-1)
(``PrePsiAlgebra.apply_P``); above the level the operations vanish, and at
the top they are the p-th power, both by construction.  The registered
checkers (``AXIOMS``) verify what a document can break: closure of the
graded relations under these operations, well-definedness, P^0 = Id and the
Adem relations, exactly within the truncation window.  Layer splittings
(``atiyah_decompose``), cut from the same psi image in weight bands, serve
only well-definedness.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple

from .arith import adem_coefficient
from .atiyah import PrePsiAlgebra, atiyah_decompose, verify_welldefined
from .rings import Element, even_filtration
from .verdicts import Verdict


def _above_top(algebra, degree: int, what: str = "degree") -> bool:
    """Whether ``degree`` lies above the top monomial, where every class is
    the zero class (``WeightedRing.above_top``); a degree the ring cannot
    decide raises, naming it as ``what``."""
    if not algebra.ring.decidable(degree):
        raise ValueError(f"{what} {degree} is outside the truncation window")
    return algebra.ring.above_top(degree)


class GradedClass(namedtuple("GradedClass", "algebra degree rep")):
    """An element of the mod-p associated graded in one even degree.

    The representative is weight-homogeneous, has coefficients in [0, p-1]
    and is in normal form whenever the algebra carries a graded Groebner
    basis.  Equality is by (ring, degree, representative): operation tables
    and splitting data belong to the algebra, not to its graded classes."""

    __slots__ = ()

    def __new__(cls, algebra, degree, rep):
        if degree % 2 or degree < 0:
            raise ValueError(f"graded degrees are non-negative even integers, got {degree}")
        if rep.mod != algebra.p:
            raise ValueError("representative must have mod-p coefficients")
        if rep and rep.weight() != degree:
            raise ValueError(f"representative has weight {rep.weight()}, expected {degree}")
        if rep and not rep.is_homogeneous():
            raise ValueError("representative must be weight-homogeneous")
        return super().__new__(cls, algebra, degree, rep)

    def __eq__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.degree == other.degree and self.rep == other.rep

    def __ne__(self, other):
        # tuple's own != would compare the algebras as well
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.degree, self.rep))

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

    def __mul__(self, other):
        if isinstance(other, int):
            return gr_class_of_rep(self.algebra, self.rep * other, self.degree)
        if self.algebra is not other.algebra:
            raise ValueError("classes live in different algebras")
        degree = self.degree + other.degree
        if _above_top(self.algebra, degree, "product degree"):
            return zero_class(self.algebra, degree)
        return gr_class_of_rep(self.algebra, self.rep * other.rep, degree)

    __rmul__ = __mul__

    def pth_power(self) -> "GradedClass":
        degree = self.degree * self.algebra.p
        if _above_top(self.algebra, degree, "p-th power degree"):
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
    if _above_top(algebra, degree):
        return zero_class(algebra, degree)
    comp = e.homogeneous_component(degree)
    if comp.mod is None:
        comp = comp.reduce_mod(algebra.p)
    return gr_class_of_rep(algebra, comp, degree)


# -- the operations ----------------------------------------------------------------


def steenrod_P(algebra, i: int, cls: GradedClass) -> GradedClass:
    """P^i on a graded class of either kind of algebra, and its one entry,
    which the checkers look up here on each call: the class of
    ``algebra.apply_P(i, cls.rep)`` in degree 2q + 2i(p-1), zero above the
    level, on the zero class and above the top monomial."""
    if i < 0:
        raise ValueError("operation index must be non-negative")
    target = cls.degree + 2 * i * (algebra.p - 1)
    if i > cls.degree // 2 or not cls:
        return zero_class(algebra, target)
    if _above_top(algebra, target, "operation target degree"):
        return zero_class(algebra, target)
    return gr_class_of_rep(algebra, algebra.apply_P(i, cls.rep), target)


# -- sampling ------------------------------------------------------------------------


def graded_basis(algebra: PrePsiAlgebra, degree: int) -> list:
    """Monomial basis classes of one graded degree (standard monomials when a
    Groebner basis is attached).  Degrees in the window are memoized per
    algebra in its ``graded_bases`` dict; every call returns a fresh list."""
    if _above_top(algebra, degree):
        return []
    basis = algebra.graded_bases.get(degree)
    if basis is None:
        gb = algebra.graded_gb
        prune = () if gb is None else (gb.is_standard, gb.standard_generators)
        monos = algebra.ring.monomials_of_weight(degree, *prune)
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


def closure_outcomes(algebra, relations, nf):
    """P^i, i >= 1, sends every relation into the ideal (normal form ``nf``
    zero), for presentations and documents alike.  Per relation,
    ``WeightedRing.targets`` sizes the run of compared targets (i = 1, 2, ...)
    and the count of skipped ones that follows it."""
    step = 2 * (algebra.p - 1)
    for rel in relations:
        if not rel:
            continue
        w = rel.weight()
        compared, skipped = algebra.ring.targets(w + step, step, w // 2)
        for i in range(1, compared + 1):
            if nf(image := algebra.apply_P(i, rel)):
                yield {"relation": str(rel), "i": i, "image": str(image)}
            else:
                yield True
        yield skipped


def check_closure(algebra) -> Verdict:
    """Closure of the graded relations: the operations send each element of
    the graded Groebner basis into its ideal, else P^i of a class depends on
    its representative.  Without graded relations nothing is compared."""
    gb = algebra.graded_gb
    if gb is None:
        return Verdict.decide("steenrod-closure", 0, 0, None, ("no graded relations",))
    return Verdict.tally("steenrod-closure", closure_outcomes(algebra, gb, gb.reduce))


def check_additivity(algebra, degree: int, trials: int = 20, seed: int = 0) -> Verdict:
    """P^i(a + b) = P^i(a) + P^i(b) on sampled pairs in one degree.  Not in
    ``AXIOMS``: P^i is one band of psi, which is additive, divided by a
    power of p and reduced mod p (``tests/test_band_formula.py``), so no
    document can make it fail; ``tests/test_self_checks.py`` runs it.  Kept
    only as the name ``perfbench/tracer.py`` probes."""
    rng = random.Random(seed)
    classes = sample_classes(algebra, degree, rng, trials)
    pairs = [(a, b) for a in classes for b in classes][: max(trials, len(classes)) * 4]
    compared, skipped = algebra.ring.targets(degree, 2 * (algebra.p - 1), degree // 2 + 1)

    def outcomes():
        for a, b in pairs:
            for i in range(compared):
                lhs = steenrod_P(algebra, i, a + b)
                if lhs == steenrod_P(algebra, i, a) + steenrod_P(algebra, i, b):
                    yield True
                else:
                    yield {"degree": degree, "i": i, "a": str(a.rep), "b": str(b.rep)}
            yield skipped
    return Verdict.tally("additivity", outcomes())


def check_pth_power(algebra, degree: int, trials: int = 10, seed: int = 0) -> Verdict:
    """P^q is the p-th power map on degree 2q.  Not in ``AXIOMS``: P^q reads
    psi(e) in weight 2pq, which is e^p mod p since loading makes each
    generator's top layer g^p, so it cannot fail.  Kept only as the name
    ``perfbench/tracer.py`` probes."""
    rng = random.Random(seed)
    compared, skipped = algebra.ring.targets(degree * algebra.p, 1, 1)

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
            if not compared:
                yield skipped
            elif steenrod_P(algebra, degree // 2, cls) == cls.pth_power():
                yield True
            else:
                yield {"degree": degree, "class": str(cls.rep)}
    return Verdict.tally("pth-power", outcomes())


def check_instability(algebra, degree: int, trials: int = 10, seed: int = 0) -> Verdict:
    """P^i vanishes above the level: P^i(c) = 0 for 2i > degree.  Not in
    ``AXIOMS``: ``steenrod_P`` returns zero for i > q before it reads psi,
    so it cannot fail.  Kept only as the name
    ``perfbench/tracer.py`` probes."""
    rng = random.Random(seed)
    q = degree // 2

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
            for i in range(q + 1, q + 4):
                if steenrod_P(algebra, i, cls):
                    yield {"degree": degree, "i": i, "class": str(cls.rep)}
                else:
                    yield True
    return Verdict.tally("instability", outcomes())


def check_cartan(algebra, deg1: int, deg2: int) -> Verdict:
    """P^i(a*b) = sum over l+k=i of P^l(a) P^k(b) on basis pairs (bilinear);
    each (pair, i) whose target degree truncation cannot decide is one skip,
    and no a*b is formed for it.  Not in ``AXIOMS``: psi is a ring map, so
    its bands convolve and no document can make it fail;
    ``tests/test_self_checks.py`` runs it.  Kept only as the name
    ``perfbench/tracer.py`` probes."""
    q1, q2 = deg1 // 2, deg2 // 2
    pairs = [(a, b) for a in graded_basis(algebra, deg1) for b in graded_basis(algebra, deg2)]
    step = 2 * (algebra.p - 1)
    compared, skipped = algebra.ring.targets(deg1 + deg2, step, q1 + q2 + 1)

    def outcomes():
        for a, b in pairs:
            for i in range(compared):
                lhs = steenrod_P(algebra, i, a * b)
                rhs = zero_class(algebra, deg1 + deg2 + i * step)
                for l in range(max(i - q2, 0), min(i, q1) + 1):
                    rhs = rhs + steenrod_P(algebra, l, a) * steenrod_P(algebra, i - l, b)
                if lhs == rhs:
                    yield True
                else:
                    yield {"deg1": deg1, "deg2": deg2, "i": i,
                           "a": str(a.rep), "b": str(b.rep)}
            yield skipped
    return Verdict.tally(f"cartan@{deg1}x{deg2}", outcomes())


def check_p0_identity(algebra, degrees) -> Verdict:
    """P^0 = Id on every basis class of the listed degrees (linear).  A
    nilpotent ring whose top monomial lies above the window 2D has degrees
    no class can reach: each even one in (2D, top] is one skip, so a window
    cut below the top never reads as exact."""
    ring = algebra.ring

    def outcomes():
        for degree in degrees:
            for cls in graded_basis(algebra, degree):
                image = steenrod_P(algebra, 0, cls)
                if image == cls:
                    yield True
                else:
                    yield {"degree": degree, "class": str(cls.rep), "P0": str(image.rep)}
        if (top := ring.max_monomial_weight()) is not None:
            yield max(0, (top - ring.max_weight) // 2)
    return Verdict.tally("p0-identity", outcomes())


def check_adem(algebra, degree: int) -> Verdict:
    """The relations rewriting P^i P^j for i < pj, checked by composing the
    operations on every basis class; linearity extends them to every class.
    Per j, the rule ``WeightedRing.targets`` sizes the run of i compared,
    then one skip count."""
    p = algebra.p
    step, plan = 2 * (p - 1), []
    for j in range(1, degree // 2 + 3):
        compared, skipped = algebra.ring.targets(degree + (j + 1) * step, step, p * j - 1)
        run = [(i, [(t, c) for t in range(i // p + 1) if (c := adem_coefficient(p, i, j, t))])
               for i in range(1, compared + 1)]
        if run or skipped:
            plan.append((j, run, skipped))

    def outcomes():
        for cls in graded_basis(algebra, degree):
            for j, run, skipped in plan:
                for i, coeffs in run:
                    target = degree + (i + j) * step
                    lhs = steenrod_P(algebra, i, steenrod_P(algebra, j, cls))
                    rhs = sum((steenrod_P(algebra, i + j - t, steenrod_P(algebra, t, cls)) * c
                               for t, c in coeffs), zero_class(algebra, target))
                    if lhs == rhs:
                        yield True
                    else:
                        yield {"degree": degree, "i": i, "j": j, "class": str(cls.rep),
                               "lhs": str(lhs.rep), "rhs": str(rhs.rep)}
                yield skipped
    return Verdict.tally("adem", outcomes())


def check_exactness(algebra: PrePsiAlgebra, degree: int, trials: int = 10,
                    seed: int = 0) -> Verdict:
    """Structural contract of produced splittings: exact layer sums, layer
    weight bounds, top layers equal to p-th powers.  Not in ``AXIOMS``: the
    band cut (``atiyah_decompose``) meets that contract for every document;
    ``tests/test_self_checks.py`` runs it.  Kept only as the name
    ``perfbench/tracer.py`` probes."""
    rng = random.Random(seed)
    q = degree // 2

    def outcomes():
        for cls in sample_classes(algebra, degree, rng, trials):
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
    return (verify_welldefined(algebra, cls.lift(), d // 2, trials=max(2, trials // 2),
                               seed=rng.randrange(2**30))
            for d in degrees() for cls in graded_basis(algebra, d)[:2])


class Axiom(namedtuple("Axiom", "cli verdict runner")):
    """One registry entry: the name ``verify --axioms`` takes, the name of
    the merged verdict, and a runner yielding the partial verdicts of
    (algebra, degrees, trials, seed) lazily, so the merge stops at the first
    witness, or the whole verdict, notes and all.  ``degrees()`` lists the
    degrees with a nonzero graded piece, found on its first call only, so a
    runner that never calls it builds no graded basis.  Runners look their
    checkers up by name on each call, so a checker replaced is the one run."""

    __slots__ = ()


AXIOMS = (
    Axiom("closure", "steenrod-closure", lambda A, ds, t, s: check_closure(A)),
    Axiom("welldefined", "well-definedness", _welldefined),
    Axiom("p0", "p0-identity", lambda A, ds, t, s: [check_p0_identity(A, ds())]),
    Axiom("adem", "adem", lambda A, ds, t, s: (check_adem(A, d) for d in ds())),
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
    degrees = functools.cache(lambda: interesting_degrees(algebra, 2))
    runs = ((a, a.runner(algebra, degrees, trials, seed)) for a in chosen)
    return [run if isinstance(run, Verdict) else Verdict.merge(a.verdict, run)
            for a, run in runs]


class Classification(namedtuple("Classification", "label verdicts")):
    """classify() output: the verdict aggregate plus the final label."""

    __slots__ = ()

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
    (closure of the graded relations or well-definedness fails), pre-psi-p
    (P^0 = Id or Adem fails) and psi-p-algebra."""
    verdicts = run_axioms(algebra, trials=trials, seed=seed)
    failed = {v.name for v in verdicts if not v.passed}
    if failed - {"p0-identity", "adem"}:
        label = NOT_PRE_PSI
    elif failed:
        label = PRE_PSI
    else:
        label = PSI_ALGEBRA
    return Classification(label, verdicts)
