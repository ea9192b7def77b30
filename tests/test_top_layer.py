"""The top layer g^p has one owner: ``PrePsiAlgebra`` takes each generator's
psi image below the top and builds the top itself.  A document still writes
all sigma + 1 layers, and its loader refuses a written top that differs
from the algebra's; a top lost above the window loads however it is
written (``tests/test_cli.py``)."""

import json
import pathlib

import pytest

from psibench.atiyah import PrePsiAlgebra
from psibench.cli import main
from psibench.documents import algebra_from_document
from psibench.rings import GeneratorSymbol, WeightedRing

SAMPLE = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"


def _projective_with_top(top):
    doc = json.loads((SAMPLE / "projective-space-p3-n4.json").read_text())
    doc["generators"][0]["layers"][-1] = top
    return doc


def test_the_written_top_must_be_the_algebras(tmp_path, capsys):
    doc = _projective_with_top([{"coefficient": 2, "monomial": [["t", 3]]}])
    with pytest.raises(ValueError, match=r"^invalid document: top layer of t must equal t\^3$"):
        algebra_from_document(doc)
    path = tmp_path / "wrong-top.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--doc", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "top layer of t must equal t^3" in captured.err


def test_a_top_below_gp_is_refused():
    # x of weight 4 at p = 3 written with the top x^2 instead of x^3
    x = [{"coefficient": 1, "monomial": [["x", 1]]}]
    x2 = [{"coefficient": 1, "monomial": [["x", 2]]}]
    doc = {"kind": "pre-psi-algebra", "prime": 3, "truncation": 8,
           "generators": [{"id": "x", "weight": 4, "layers": [x, [], x2]}]}
    with pytest.raises(ValueError, match=r"^invalid document: top layer of x must equal x\^3$"):
        algebra_from_document(doc)


def test_the_algebra_refuses_a_top_passed_in():
    t = GeneratorSymbol("t", (), 2)
    ring = WeightedRing([t], 6)
    te = ring.var(t)
    with pytest.raises(ValueError, match=r"^the psi image of t does not cut into layers"):
        PrePsiAlgebra(ring, 3, {t.key: (te + te**2) * 3 + te**3})
    A = PrePsiAlgebra(ring, 3, {t.key: (te + te**2) * 3})
    assert A.apply_psi(te) == (te + te**2) * 3 + te**3
