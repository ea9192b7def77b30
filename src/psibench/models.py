"""Ready-made rings, presentations and modules used throughout the test
suites and the sample documents."""

from __future__ import annotations

import math

from .atiyah import PrePsiAlgebra
from .lift import UnstablePresentation, enumerate_generators
from .modules import ModuleSymbol, PsiModule
from .rings import GeneratorSymbol, WeightedRing, id_to_json
from .unstable import UnstableAlgebra


def dual_numbers_ring(p: int, k: int, D: int = 8) -> PrePsiAlgebra:
    """Integers adjoined a square-zero variable of weight 4, with
    psi(e) = p^2*k*e; the top e^p is zero.

    P^0 acts as multiplication by k on the weight-4 class, so the identity
    axiom holds iff k = 1 mod p; everything above is zero, which settles the
    other axioms."""
    eps = GeneratorSymbol("e", (), 4)
    ring = WeightedRing([eps], D, monomial_relations=[((eps, 2),)])
    e = ring.var(eps)
    return PrePsiAlgebra(ring, p, {eps.key: e * (p * p * k)}, name=f"dual-numbers(k={k})")


def adem_failure_ring(p: int, D: int | None = None) -> PrePsiAlgebra:
    """Polynomial ring on x of weight 2(p-1), p odd, with
    psi(x) = p^(p-1) x + p^(p-3) x^3 + ... + p x^(p-1) + x^p (no x^2 term).

    The induced operations satisfy P^i(x) = x^(i+1) except P^1(x) = 0, which
    breaks the relation P^1 P^1 = 2 P^2 while keeping P^0 = Id."""
    if p <= 2:
        raise ValueError("this construction needs an odd prime")
    if D is None:
        D = 3 * p
    x = GeneratorSymbol("x", (), 2 * (p - 1))
    ring = WeightedRing([x], D)
    xe = ring.var(x)
    image = sum((xe**j * p ** (p - j) for j in range(3, p)), xe * p ** (p - 1))
    return PrePsiAlgebra(ring, p, {x.key: image}, name="broken-adem")


def _projective_image(v, p: int):
    """psi(v) - v^p = (1+v)^p - 1 - v^p = sum_(0<j<p) binom(p,j) v^j."""
    return sum((math.comb(p, j) * v**j for j in range(1, p)), v.ring.zero())


def projective_space_ring(p: int, n: int, D: int | None = None) -> PrePsiAlgebra:
    """Truncated polynomial ring Z[t]/(t^(n+1)), |t| = 2, with
    psi(t) = (1+t)^p - 1, handed over as (1+t)^p - 1 - t^p.

    All axioms hold; the derived operations obey
    P^i(t^q) = binom(q, i) t^(q + i(p-1))."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if D is None:
        D = n * p
    t = GeneratorSymbol("t", (), 2)
    ring = WeightedRing([t], D, monomial_relations=[((t, n + 1),)])
    return PrePsiAlgebra(ring, p, {t.key: _projective_image(ring.var(t), p)},
                         name=f"projective-space(n={n})")


def product_projective_spaces(p: int, n: int, m: int,
                              D: int | None = None) -> PrePsiAlgebra:
    """Z[t,u]/(t^(n+1), u^(m+1)) with psi(v) = (1+v)^p - 1 on both variables.

    A two-generator model: the derived operations obey the product rule
    P^i(t^a u^b) = sum over l+k=i of binom(a,l) binom(b,k)
    t^(a+l(p-1)) u^(b+k(p-1))."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if D is None:
        D = (n + m) * p
    t = GeneratorSymbol("t", (), 2)
    u = GeneratorSymbol("u", (), 2)
    ring = WeightedRing([t, u], D,
                        monomial_relations=[((t, n + 1),), ((u, m + 1),)])
    images = {sym.key: _projective_image(ring.var(sym), p) for sym in (t, u)}
    return PrePsiAlgebra(ring, p, images, name=f"product-projective-spaces(n={n},m={m})")


def base_polynomial_algebra(p: int, d: int = 1, theta: str = "x",
                            D: int = 6) -> UnstableAlgebra:
    """The free polynomial Z/p-algebra on one generator of degree 2d with
    the default total operation x + x^p: P^i x = 0 for 0 < i < d."""
    sym = GeneratorSymbol(theta, (), 2 * d)
    ring = WeightedRing([sym], D)
    return UnstableAlgebra(ring, p, name=f"Z/{p}[{theta}]")


def free_polynomial_presentation(p: int, D: int, theta: str = "x", d: int = 1,
                                 max_zeros: int = 1) -> UnstablePresentation:
    """Steenrod-closed presentation of the polynomial algebra Z/p[x], |x|=2d:
    every iterated-operation variable is identified with its value, computed
    in the base algebra by the table action, each relation a document
    polynomial X_I - value."""
    base = base_polynomial_algebra(p, d, theta, D)
    base_sym = base.ring.generators[0]
    symbols = enumerate_generators(p, [(theta, 2 * d)], D, max_zeros)
    values = {(): base.ring.var(base_sym, p)}
    relations = []
    for sym in sorted(symbols, key=lambda s: (len(s.indices), s.indices)):
        if not sym.indices:
            continue
        parent = values[sym.indices[:-1]]
        val = base.apply_P(sym.indices[-1], parent)
        values[sym.indices] = val
        relations.append(
            [{"coefficient": 1, "monomial": [[id_to_json(sym), 1]]}]
            + [{"coefficient": -c,
                "monomial": [[id_to_json(g), e] for g, e in base.ring.symbol_pairs(mono)]}
               for mono, c in val.terms.items()])
    return UnstablePresentation(p, [(theta, 2 * d)], relations, D,
                                max_zeros=max_zeros,
                                name=f"Z/{p}[{theta}] (d={d})")


def power_tower_module(p: int, D: int) -> PsiModule:
    """Free abelian group on x^(p^n) in weight 2p^n with psi raising the
    power: psi-finitely generated by x, yet of unbounded abelian rank.

    Symbols whose psi-image leaves the window get all-zero layers."""
    symbols = []
    layer_coords = {}
    n = 0
    while p**n <= D:
        name = "x" if n == 0 else f"x^{p ** n}"
        symbols.append(ModuleSymbol(name, 2 * p**n))
        q = p**n
        layers = [{} for _ in range(q + 1)]
        if p ** (n + 1) <= D:
            layers[q] = {f"x^{p ** (n + 1)}": 1}
        layer_coords[name] = layers
        n += 1
    return PsiModule(p, D, symbols, layer_coords, name="power-tower")
