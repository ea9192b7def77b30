"""exactness, additivity and Cartan left ``verify``'s registry, because no
document that loads can make them fail: ``atiyah_decompose`` cuts psi(e)
into bands, so its splittings are exact; P^i is one band of the additive
map psi, divided by a power of p (``tests/test_band_formula.py``); and psi
is a ring map, so its bands convolve as Cartan asks.  This checks the move
on random small algebras and on every model: each checker, called directly
with the degrees, trials and seed ``verify`` gave it, never FAILs, and
adding its verdict to ``classify``'s moves no label.
``tests/test_steenrod.py`` keeps each checker failing under its known
mutation.
"""

import random

import pytest

from psibench import steenrod
from psibench.steenrod import (check_additivity, check_cartan, check_exactness, classify,
                               interesting_degrees)
from psibench.verdicts import FAIL, Verdict
from test_psi_preserves_relations import MODELS, loadable_algebras


def retired_verdicts(A, trials=2, seed=0):
    """The merged verdicts the three checkers gave in ``verify``: exactness
    and additivity on every degree with a nonzero graded piece, Cartan on
    the pairs of the first four."""
    degrees = interesting_degrees(A, 2)
    head = degrees[:4]
    return [
        Verdict.merge("atiyah-exactness",
                      (check_exactness(A, d, trials, seed) for d in degrees)),
        Verdict.merge("additivity", (check_additivity(A, d, trials, seed) for d in degrees)),
        Verdict.merge("cartan", (check_cartan(A, d1, d2)
                                 for d1 in head for d2 in head if d1 <= d2)),
    ]


def _check_the_move(algebras, monkeypatch):
    """The identities the retired checkers compared, after asserting that
    none FAILed and that ``classify`` with their verdicts added labels each
    algebra as it does without them."""
    compared = 0
    for A in algebras:
        plain = classify(A, trials=2, seed=0)
        retired = retired_verdicts(A)
        for v in retired:
            assert v.status != FAIL, (A, v.describe())
        with monkeypatch.context() as m:
            m.setattr(steenrod, "run_axioms", lambda *args, **kw: plain.verdicts + retired)
            assert classify(A, trials=2, seed=0).label == plain.label, A
        compared += sum(v.checked for v in retired)
    return compared


def test_the_retired_checks_never_fail_on_random_algebras(monkeypatch):
    algebras = list(loadable_algebras(random.Random("psi-preserves-relations")))
    assert len(algebras) >= 200
    assert _check_the_move(algebras, monkeypatch) > 10_000


@pytest.mark.parametrize("make", MODELS, ids=range(len(MODELS)))
def test_the_retired_checks_never_fail_on_the_models(make, monkeypatch):
    assert _check_the_move([make()], monkeypatch)
