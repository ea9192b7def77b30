"""psi must be a ring map on the quotient: ``PrePsiAlgebra`` refuses an
algebra when, for some monomial relation prod g^e, the product of the psi
images psi(g)^e keeps a term in the window.

The refusal is checked four ways: on a document whose psi breaks t^3 = 0
(every command exits 2 and names the relation and a surviving term), on
every model instance and shipped document (all still load), on a window
where the product vanishes only by truncation (accepted), and on random
small algebras against a naive check that expands the product in the free
ring on the same generators and window and then drops the monomials the
relations kill.
"""

import json
import pathlib
import random
import re

import pytest

from psibench.atiyah import PrePsiAlgebra
from psibench.cli import main
from psibench.documents import algebra_from_document, load_document
from psibench.models import (adem_failure_ring, dual_numbers_ring, product_projective_spaces,
                             projective_space_ring)
from psibench.rings import GeneratorSymbol, WeightedRing, mono_divides, mono_str

ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted(path for path in [*(ROOT / "sample_documents").glob("*.json"),
                                   *(ROOT / "perfbench" / "data").glob("*.json")]
                 if json.loads(path.read_text())["kind"] == "pre-psi-algebra")


def _poly(*terms):
    return [{"coefficient": c, "monomial": [[name, e] for name, e in mono]}
            for c, mono in terms]


# Z[t, u]/(t^3), |t| = |u| = 2, p = 3, D = 4, with layers (t + u^2, t^3)
# and (u + u^2, u^3): psi(t) = 3t + 3u^2, and psi(t)^3 = 81 t^2 u^2 != 0
BROKEN = {
    "kind": "pre-psi-algebra", "name": "psi-breaks-t3", "prime": 3, "truncation": 4,
    "generators": [
        {"id": name, "weight": 2,
         "layers": [_poly((1, [(name, 1)]), (1, [("u", 2)])), _poly((1, [(name, 3)]))]}
        for name in ("t", "u")],
    "monomial_relations": [[["t", 3]]],
}


@pytest.mark.parametrize("command", [["verify", "--axioms", "all"], ["atiyah", "--element", "t"],
                                     ["steenrod", "-i", "1", "--element", "t"]])
def test_a_psi_that_breaks_a_relation_exits_two(command, tmp_path, capsys):
    path = tmp_path / "psi-breaks-t3.json"
    path.write_text(json.dumps(BROKEN))
    rc = main([*command, "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: invalid document: psi does not preserve the relation "
                            "t^3 = 0: the product of the psi images of its factors keeps "
                            "81*t^2*u^2\n")


MODELS = [
    *(lambda p=p, k=k, D=D: dual_numbers_ring(p, k, D)
      for p in (2, 3, 5) for k in (1, 2) for D in (3, 8)),
    *(lambda p=p: adem_failure_ring(p) for p in (3, 5, 7)),
    lambda: adem_failure_ring(5, D=8),
    *(lambda p=p, n=n: projective_space_ring(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 4)),
    *(lambda p=p, n=n: projective_space_ring(p, n, D=3) for p in (2, 3) for n in (3, 4)),
    *(lambda p=p, n=n, m=m: product_projective_spaces(p, n, m)
      for p in (2, 3) for n, m in ((1, 1), (2, 2), (3, 2))),
    lambda: product_projective_spaces(2, 3, 2, D=4),
    lambda: product_projective_spaces(5, 3, 3),
]


def test_every_model_instance_loads():
    for factory in MODELS:
        assert isinstance(factory(), PrePsiAlgebra)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_shipped_algebra_document_loads(path):
    assert isinstance(algebra_from_document(load_document(str(path))), PrePsiAlgebra)


def test_a_product_that_vanishes_only_by_truncation_is_accepted():
    # Z[t, u]/(t^2), |t| = |u| = 2, p = 2, D = 2: psi(t) = 2t + 2u^2, whose
    # square 8tu^2 + 4u^4 lies wholly above the window
    t, u = GeneratorSymbol("t", (), 2), GeneratorSymbol("u", (), 2)
    ring = WeightedRing([t, u], 2, monomial_relations=[((t, 2),)])
    te, ue = ring.var(t), ring.var(u)
    A = PrePsiAlgebra(ring, 2, {t.key: (te + ue**2) * 2, u.key: ue * 2})
    square = A.psi.images[ring.generators.index(t)] ** 2
    assert not square and square.truncated


MESSAGE = re.compile(r"psi does not preserve the relation (\S+) = 0: "
                     r"the product of the psi images of its factors keeps (\S+)")


def _random_algebra(rng):
    """(p, symbols, D, relations, layer terms) of a random small algebra:
    one generator of weight 2 or 4, or two of weights 2 and 2 or 2 and 4;
    one or two monomial relations; each layer i below the top a random
    polynomial of weight at least 2*sigma + 2*i*(p - 1), layer 0 led by g."""
    p = rng.choice((2, 3, 5))
    weights = rng.choice(((2,), (4,), (2, 2), (2, 4)))
    symbols = [GeneratorSymbol(name, (), w) for name, w in zip("tu", weights)]
    D = rng.randint(3, 6)
    free = WeightedRing(symbols, D)
    relations = []
    for _ in range(rng.randint(1, 2)):
        pairs = [(g, rng.randint(1, 3)) for g in symbols if rng.random() < 0.6]
        relations.append(pairs or [(rng.choice(symbols), rng.randint(2, 4))])
    layers = {}
    for g in symbols:
        sigma = g.weight // 2
        rows = []
        for i in range(sigma):
            bound = g.weight + 2 * i * (p - 1)
            pool = [m for w in range(bound, free.max_weight + 1, 2)
                    for m in free.monomials_of_weight(w)]
            terms = {m: rng.randint(-2, 2) for m in rng.sample(pool, min(len(pool), 3))}
            if i == 0:
                terms[free.monomial([(g, 1)])] = 1
            rows.append(terms)
        layers[g] = rows
    return p, symbols, D, relations, layers


def _naive_images(p, symbols, D, relations, layers):
    """Per relation, by its printed form: the terms of prod psi(g)^e expanded
    factor by factor in the free ring, less the monomials a relation
    divides."""
    free = WeightedRing(symbols, D)
    killers = [free.monomial(pairs) for pairs in relations]
    psi = {}
    for g in symbols:
        sigma = g.weight // 2
        psi[g] = sum((free.element(terms) * p ** (sigma - i)
                      for i, terms in enumerate(layers[g])), free.var(g) ** p)
    out = {}
    for pairs, killer in zip(relations, killers):
        image = free.one()
        for g, e in pairs:
            for _ in range(e):
                image = image * psi[g]
        out[mono_str(free, killer)] = {
            str(free.element({m: c})) for m, c in image.terms.items()
            if not any(mono_divides(k, m) for k in killers)}
    return out


def random_algebras(rng, tries=300):
    """Per try, the data of ``_random_algebra`` and the ``PrePsiAlgebra`` it
    builds, or the ValueError the constructor refuses it with.  Lazy, so a
    caller may draw from ``rng`` between two algebras."""
    for _ in range(tries):
        data = p, symbols, D, relations, layers = _random_algebra(rng)
        ring = WeightedRing(symbols, D, relations)
        images = {g.key: sum((ring.element(terms) * p ** (g.weight // 2 - i)
                              for i, terms in enumerate(layers[g])), ring.zero())
                  for g in symbols}
        try:
            built = PrePsiAlgebra(ring, p, images)
        except ValueError as exc:
            built = exc
        yield data, built


def loadable_algebras(rng, tries=300):
    """The random algebras of ``random_algebras`` that load."""
    return (A for _, A in random_algebras(rng, tries) if not isinstance(A, ValueError))


def test_random_algebras_agree_with_the_naive_check():
    refused = accepted = 0
    for data, built in random_algebras(random.Random("psi-preserves-relations")):
        naive = _naive_images(*data)
        if isinstance(built, ValueError):
            refused += 1
            relation, term = MESSAGE.fullmatch(str(built)).groups()
            assert term in naive[relation]
        else:
            accepted += 1
            assert not any(naive.values())
    assert refused >= 50 and accepted >= 50
