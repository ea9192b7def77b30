"""The recursive splitting calculus, kept as an independent oracle for the
band splitting of ``atiyah.atiyah_decompose``.

It builds a splitting from the polynomial expression of an element, never
from the bands of its psi image: a generator uses its own layers, cut
here from psi(g) term by term (``generator_splitting``), a monomial
multiplies them together (``atiyah_product``), an integer
coefficient enters through the Fermat-quotient rule at level 0, the term
splittings are added by one ``atiyah_sum``, and the sum moves down to the
requested level by at most one ``atiyah_shift``.  Its layers need not equal
the band layers, which keep each term in its own weight band; their mod-p
classes agree in every graded weight the window decides, and the weighted
layer sums are both psi of the element.  ``horner``, the level-lowering rule
of ``atiyah_shift``, is also the module tests' reference for written layers.
"""

from __future__ import annotations

from psibench.arith import require_power_bits
from psibench.atiyah import AtiyahDecomposition, atiyah_product, atiyah_sum
from psibench.rings import UNIT, mono_div


def horner(layers, p: int, k: int) -> tuple:
    """sum_i p^(n-i) * layers[i], n = len(layers) - 1, with layers k .. n
    merged by Horner's rule and those below scaled by p^(n-k); at k = 0 the
    one layer left is the weighted sum."""
    merged = layers[k]
    for layer in layers[k + 1:]:
        merged = merged * p + layer
    scale = p ** (len(layers) - 1 - k)
    return (*(layer * scale for layer in layers[:k]), merged)


def fermat_quotient(c: int, p: int) -> int:
    """(c - c^p)/p, an exact integer by Fermat's little theorem.  A
    coefficient whose p-th power would exceed ``MAX_POWER_BITS`` bits is
    refused; the units 0 and +-1 have trivial powers and always pass."""
    if abs(c) > 1:
        bits = abs(c).bit_length()
        require_power_bits(p * bits, f"a coefficient of {bits} bits raised to the power p={p}")
    q, r = divmod(c - c**p, p)
    if r:
        raise ArithmeticError(f"({c} - {c}^{p}) is not divisible by {p}")
    return q


def scalar_decomposition(algebra, c: int) -> AtiyahDecomposition:
    """Level-0 splitting of an integer: psi(c) = c = p*((c - c^p)/p) + c^p."""
    ring, p = algebra.ring, algebra.p
    quotient = fermat_quotient(c, p)
    return AtiyahDecomposition(
        algebra, ring.scalar(c), 0, (ring.scalar(quotient), ring.scalar(c - p * quotient)))


def atiyah_shift(d: AtiyahDecomposition, level: int) -> AtiyahDecomposition:
    """Rewrite a level-q splitting at a lower level r, as q-r single-level
    shifts would (each multiplies the layers by p and merges the two below
    the top): with k = max(r, 1), ``horner`` merges layers k-1 .. q-1 and
    those below pick up p^(q-k).  A level-1 splitting already has the shape
    of a level-0 pair, so it only changes its level."""
    q = d.level
    if not 0 <= level < q:
        raise ValueError(f"cannot shift a level-{q} decomposition to level {level}")
    lowered = horner(d.layers[:q], d.algebra.p, max(level, 1) - 1)
    return AtiyahDecomposition(d.algebra, d.source, level, (*lowered, d.layers[q]))


def generator_splitting(algebra, g) -> AtiyahDecomposition:
    """The splitting of a generator g of weight 2*sigma at level sigma, cut
    from psi(g) - g^p a term at a time: a term of weight w joins layer
    min((w - 2*sigma)//(2(p-1)), sigma - 1), divided by its power of p."""
    ring, p = algebra.ring, algebra.p
    sigma, var = g.weight // 2, ring.var(g)
    top = var**p
    below = algebra.apply_psi(var) - top
    layers = [ring.zero() for _ in range(sigma)]
    for m, c in below.terms.items():
        i = min((m[0] - 2 * sigma) // (2 * (p - 1)), sigma - 1)
        assert i >= 0 and c % p ** (sigma - i) == 0, (g, m, c)
        layers[i] = layers[i] + ring.element({m: c // p ** (sigma - i)})
    return AtiyahDecomposition(algebra, var, sigma, (*layers, top))


def monomial_decomposition(algebra, m) -> AtiyahDecomposition:
    """Splitting of a monomial at its natural level weight/2: the splitting
    of m with the exponent of its heaviest-sorted generator lowered by one,
    times that generator's own splitting."""
    ring = algebra.ring
    g = m[1][0][0]
    gd = generator_splitting(algebra, ring.generators[g])
    rest = mono_div(m, ring.power(g, 1))
    return gd if not rest[1] else atiyah_product(monomial_decomposition(algebra, rest), gd)


def calculus_decompose(algebra, e, q: int) -> AtiyahDecomposition:
    """The calculus's splitting of a nonzero integral element at level
    q <= weight(e)/2."""
    if not e or e.mod is not None or 2 * q > e.weight() or q < 0:
        raise ValueError(f"no level-{q} splitting of {e}")
    pieces = []
    for m, coeff in e.terms.items():
        if m == UNIT:
            pieces.append(scalar_decomposition(algebra, coeff))
            continue
        d = monomial_decomposition(algebra, m)
        if coeff != 1:
            d = atiyah_product(scalar_decomposition(algebra, coeff), d)
        pieces.append(d)
    d = pieces[0] if len(pieces) == 1 else atiyah_sum(*pieces)
    return atiyah_shift(d, q) if d.level > q else d
