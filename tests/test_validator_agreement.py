"""The structural validator accepts exactly the documents the shipped schema
accepts.

jsonschema is the oracle, with one intended difference: the schema's
``integer`` admits integral floats such as ``2.0``, and psibench does not,
because they fail later as weights, degrees or layer counts.  The oracle is
therefore jsonschema with ``integer`` redefined as a Python ``int`` that is
not a ``bool``; that it differs from plain jsonschema only on documents that
hold an integral float is checked too.  Inputs: every document under
``sample_documents/`` and ``perfbench/data/``, serialized ``models``
objects, named cases and seeded mutations of all of them."""

import copy
import json
import pathlib
import random

import pytest

jsonschema = pytest.importorskip("jsonschema", exc_type=ImportError)

from psibench.documents import (DocumentError, algebra_to_document,  # noqa: E402
                                lift_to_document, module_to_document,
                                presentation_to_document, validate_document)
from psibench.lift import build_lift  # noqa: E402
from psibench.models import (adem_failure_ring, dual_numbers_ring,  # noqa: E402
                             free_polynomial_presentation, power_tower_module,
                             product_projective_spaces, projective_space_ring)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "src" / "psibench" / "schema" / "workbench.schema.json"
FILES = sorted((ROOT / "sample_documents").glob("*.json")) + sorted(
    (ROOT / "perfbench" / "data").glob("*.json"))


def _model_documents() -> dict:
    return {
        "dual_numbers_ring(3, 2)": algebra_to_document(dual_numbers_ring(3, 2)),
        "adem_failure_ring(3)": algebra_to_document(adem_failure_ring(3)),
        "projective_space_ring(2, 4)": algebra_to_document(projective_space_ring(2, 4)),
        "product_projective_spaces(3, 2, 2)": algebra_to_document(
            product_projective_spaces(3, 2, 2)),
        "free_polynomial_presentation(3, 4)": presentation_to_document(
            free_polynomial_presentation(3, 4)),
        "power_tower_module(2, 8)": module_to_document(power_tower_module(2, 8)),
        "lift(free_polynomial_presentation(2, 3))": lift_to_document(
            build_lift(free_polynomial_presentation(2, 3))),
    }


def _base_documents() -> dict:
    docs = {path.relative_to(ROOT).as_posix(): json.loads(path.read_text())
            for path in FILES}
    docs.update(_model_documents())
    return docs


@pytest.fixture(scope="module")
def base_documents():
    return _base_documents()


def _validators():
    schema = json.loads(SCHEMA.read_text())
    cls = jsonschema.validators.validator_for(schema)
    checker = cls.TYPE_CHECKER.redefine(
        "integer", lambda _, value: type(value) is int)
    strict = jsonschema.validators.extend(cls, type_checker=checker)
    return cls(schema), strict(schema)


PLAIN, STRICT = _validators()


def _has_integral_float(node) -> bool:
    if isinstance(node, float):
        return node.is_integer()
    if isinstance(node, dict):
        return any(_has_integral_float(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_integral_float(v) for v in node)
    return False


def _structural_accepts(doc) -> bool:
    # any exception other than DocumentError propagates and fails the test
    try:
        validate_document(doc)
    except DocumentError:
        return False
    return True


def _assert_agree(doc, label: str) -> None:
    expected = STRICT.is_valid(doc)
    if PLAIN.is_valid(doc) != expected:
        assert _has_integral_float(doc), label
    assert _structural_accepts(doc) == expected, (label, json.dumps(doc)[:400])


# -- named cases ----------------------------------------------------------------------

ALGEBRA = "sample_documents/broken-adem-p3.json"
RELATIONS = "sample_documents/dual-numbers-p3-k1.json"
PRESENTATION = "sample_documents/polynomial-presentation-p2-D6.json"
MODULE = "sample_documents/power-tower-p3-D81.json"

CASES = [
    # (base document, path, new value); a path of one key may add that key
    (ALGEBRA, ("generators", 0, "layers", 0, 0, "coefficient"), True),
    (ALGEBRA, ("generators", 0, "layers", 0, 0, "monomial", 0, 1), True),
    (PRESENTATION, ("relations", 0, 0, "monomial", 0, 0, "indices", 0), True),
    (PRESENTATION, ("relations", 0, 0, "monomial", 0, 0, "theta"), ""),
    (MODULE, ("symbols", 0, "weight"), True),
    (PRESENTATION, ("max_zero_indices",), True),
    (ALGEBRA, ("seed",), "7"),
    (ALGEBRA, ("seed",), True),
    (ALGEBRA, ("name",), 7),
    (ALGEBRA, ("k_max",), "3"),
    (ALGEBRA, ("census",), []),
    (ALGEBRA, ("presentation",), []),
    (PRESENTATION, ("seed",), None),
    (MODULE, ("name",), None),
    (ALGEBRA, ("generators", 0, "layers"), {}),
    (ALGEBRA, ("generators", 0, "layers"), 7),
    (RELATIONS, ("monomial_relations",), 3),
    (RELATIONS, ("graded_relations",), 3),
    (PRESENTATION, ("relations",), 1),
    (MODULE, ("symbols", 0, "layers", "²"), []),
    (MODULE, ("symbols", 0, "layers", "1\n"), []),
    (MODULE, ("symbols", 0, "layers", "01"), []),
    (MODULE, ("symbols", 0, "layers", ""), []),
    # each minimum the schema sets, just below it
    (ALGEBRA, ("prime",), 1),
    (ALGEBRA, ("truncation",), 0),
    (ALGEBRA, ("generators", 0, "weight"), 1),
    (ALGEBRA, ("generators", 0, "layers", 0, 0, "monomial", 0, 1), 0),
    (PRESENTATION, ("relations", 0, 0, "monomial", 0, 0, "indices", 0), -1),
    (PRESENTATION, ("generators", 0, "degree"), 1),
    (PRESENTATION, ("max_zero_indices",), -1),
    (MODULE, ("symbols", 0, "weight"), -1),
    (ALGEBRA, ("kind",), ["pre-psi-algebra"]),
    (ALGEBRA, ("prime",), 3.5),
    (ALGEBRA, ("generators", 0, "id"), ""),
    (ALGEBRA, ("generators", 0, "id"), {"theta": "x", "indices": [], "extra": 1}),
    (ALGEBRA, ("generators", 0, "layers", 0, 0, "monomial", 0), ["x", 1, 1]),
]


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("base, path, value", CASES,
                         ids=[f"{b.split('/')[-1]}:{'/'.join(map(str, p))}={v!r}"
                              for b, p, v in CASES])
def test_named_cases_agree(base_documents, base, path, value):
    _assert_agree(_set(base_documents[base], path, value), f"{base} {path}={value!r}")


def test_every_base_document_is_valid(base_documents):
    for label, doc in base_documents.items():
        assert STRICT.is_valid(doc), label
        assert _structural_accepts(doc), label


@pytest.mark.parametrize("base, path, value", [
    (MODULE, ("symbols", 0, "weight"), 2.0),
    ("sample_documents/projective-space-p3-n4.json", ("generators", 0, "weight"), 2.0),
    (PRESENTATION, ("generators", 0, "degree"), 2.0),
    (ALGEBRA, ("truncation",), 9.0),
])
def test_integral_floats_are_the_one_intended_difference(base_documents, base, path, value):
    doc = _set(base_documents[base], path, value)
    assert PLAIN.is_valid(doc)
    assert not STRICT.is_valid(doc)
    assert not _structural_accepts(doc)


# -- seeded mutations ---------------------------------------------------------------------

VALUES = [None, True, False, 0, -1, 1, 2, 2.0, 2.5, "", "x", "²", "1\n", "01",
          [], {}, [1], ["x", 1], {"x": 1}, {"theta": "x", "indices": [0]}]
KEYS = ["extra", "kind", "prime", "truncation", "seed", "name", "k_max", "census",
        "presentation", "generators", "symbols", "layers", "weight", "id", "theta",
        "indices", "degree", "coefficient", "monomial", "symbol", "relations",
        "monomial_relations", "graded_relations", "max_zero_indices",
        "0", "1", "1\n", "²", "01"]


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _by_shape(doc) -> dict:
    """Paths grouped by their schema location (array indices erased), so that
    every location is mutated as often as the terms of a long polynomial."""
    shapes: dict = {}
    for path in _paths(doc):
        shape = tuple("*" if isinstance(k, int) else k for k in path)
        shapes.setdefault(shape, []).append(path)
    return shapes


def _mutate(doc, rng: random.Random):
    doc = copy.deepcopy(doc)
    shapes = _by_shape(doc)
    path = rng.choice(rng.choice(list(shapes.values())))
    node = doc
    for key in path[:-1]:
        node = node[key]
    target = node[path[-1]] if path else doc
    op = rng.choice(["replace", "drop", "grow", "rename"] if path else ["grow"])
    if op == "replace":
        node[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    elif op == "drop":
        del node[path[-1]]
    elif op == "rename" and isinstance(node, dict):
        node[rng.choice(KEYS)] = node.pop(path[-1])
    elif isinstance(target, dict):
        target[rng.choice(KEYS)] = copy.deepcopy(rng.choice(VALUES))
    elif isinstance(target, list):
        extra = rng.choice(target) if target and rng.random() < 0.5 else rng.choice(VALUES)
        target.append(copy.deepcopy(extra))
    else:
        node[path[-1]] = [target]
    return doc


def test_seeded_mutations_agree(base_documents):
    rng = random.Random(20261018)
    for label, base in base_documents.items():
        doc = base
        for i in range(40):
            # every fourth mutation starts from the base again; the others add
            # to the last one, so that up to four edits pile up
            doc = _mutate(doc if i % 4 else base, rng)
            _assert_agree(doc, f"{label} mutation {i}")
