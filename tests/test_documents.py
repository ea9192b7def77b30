import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from psibench.documents import (algebra_from_document, algebra_to_document,
                                canonical_json, document_digest, dump_document,
                                lift_to_document, load_document,
                                module_from_document, module_to_document,
                                parse_element, presentation_from_document,
                                presentation_to_document, validate_document)
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             free_polynomial_presentation, power_tower_module,
                             projective_space_ring)
from psibench.rings import poly_from_json, poly_to_json
from psibench.steenrod import graded_basis


def test_algebra_document_round_trip():
    for A in (dual_numbers_ring(3, 2), adem_failure_ring(3),
              projective_space_ring(2, 4)):
        doc = algebra_to_document(A)
        back = algebra_from_document(doc)
        assert back.p == A.p
        assert back.ring.truncation == A.ring.truncation
        for g in A.ring.generators:
            img_a = A.apply_psi(A.ring.var(g))
            img_b = back.apply_psi(back.ring.var(g))
            assert str(img_a) == str(img_b)
        assert algebra_to_document(back) == doc


def test_poly_json_round_trip():
    A = adem_failure_ring(3)
    x = A.ring.gen("x")
    e = x**2 * 5 - x * 7
    data = poly_to_json(e)
    assert poly_from_json(A.ring, data) == e


def test_a_repeated_id_in_a_relation_sums_its_exponents():
    # x*x - x^2 is the zero relation, so the lift keeps Z/2[x] whole
    doc = presentation_to_document(free_polynomial_presentation(2, 3))
    doc["relations"].append([{"coefficient": 1, "monomial": [["x", 1], ["x", 1]]},
                             {"coefficient": -1, "monomial": [["x", 2]]}])
    lift = build_lift(presentation_from_document(doc))
    assert lift.census == {0: 1, 2: 1, 4: 1, 6: 1}


def test_a_repeated_id_in_a_monomial_relation_sums_its_exponents():
    # t*t = 0 is t^2 = 0: it keeps t and kills t^2, as [["t", 2]] does
    sizes = {}
    for relation in ([["t", 1], ["t", 1]], [["t", 2]]):
        doc = algebra_to_document(projective_space_ring(3, 4))
        doc["monomial_relations"] = [relation]
        A = algebra_from_document(doc)
        sizes[len(relation)] = [len(graded_basis(A, d)) for d in range(0, 11, 2)]
    assert sizes[2] == sizes[1] == [1, 1, 0, 0, 0, 0]


def test_presentation_document_round_trip():
    pres = free_polynomial_presentation(2, 4)
    doc = presentation_to_document(pres)
    back = presentation_from_document(doc)
    assert presentation_to_document(back) == doc
    assert {s.key for s in back.symbols} == {s.key for s in pres.symbols}


def test_lift_document_reloads_as_algebra():
    lift = build_lift(free_polynomial_presentation(3, 4))
    doc = lift_to_document(lift)
    algebra = algebra_from_document(doc)
    assert algebra.graded_gb is not None
    assert len(algebra.ring.generators) == len(lift.pi.ring.generators)


def test_module_document_round_trip():
    M = power_tower_module(3, 27)
    doc = module_to_document(M)
    back = module_from_document(doc)
    assert module_to_document(back) == doc
    assert back.psi(back.basis_element("x")) == back.basis_element("x^3")


SCHEMA = (pathlib.Path(__file__).resolve().parent.parent
          / "src" / "psibench" / "schema" / "workbench.schema.json")

BAD_DOCS = [
    {"kind": "nonsense", "prime": 3, "truncation": 4},
    {"kind": "pre-psi-algebra", "prime": 3},
    {"kind": "pre-psi-algebra", "prime": 3, "truncation": 4,
     "generators": [{"id": "x"}]},
    {"kind": "psi-module", "prime": 1, "truncation": 4, "symbols": []},
]


def test_schema_rejects_garbage():
    for bad in BAD_DOCS:
        with pytest.raises(ValueError):
            validate_document(bad)


def test_shipped_schema_passes_its_meta_schema():
    jsonschema = pytest.importorskip("jsonschema", exc_type=ImportError)
    schema = json.loads(SCHEMA.read_text())
    meta = jsonschema.validators.validator_for(schema)
    meta.check_schema(schema)
    with pytest.raises(jsonschema.exceptions.SchemaError):
        meta.check_schema({**schema, "type": 12})


def test_structural_validator_without_jsonschema():
    for bad in BAD_DOCS:
        with pytest.raises(ValueError, match="^invalid document: "):
            validate_document(bad)
    # good documents still pass the structural route
    validate_document(algebra_to_document(dual_numbers_ring(3, 2)))
    validate_document(module_to_document(power_tower_module(2, 8)))
    validate_document(presentation_to_document(free_polynomial_presentation(2, 3)))


def test_kind_mismatch_errors():
    doc = algebra_to_document(dual_numbers_ring(2, 1))
    with pytest.raises(ValueError):
        presentation_from_document(doc)
    with pytest.raises(ValueError):
        module_from_document(doc)


def test_document_digest_canonical():
    doc1 = {"kind": "psi-module", "prime": 3, "truncation": 2, "symbols": []}
    doc2 = {"symbols": [], "truncation": 2, "prime": 3, "kind": "psi-module"}
    assert document_digest(doc1) == document_digest(doc2)
    assert document_digest(doc1).startswith("sha256:")


ROOT = pathlib.Path(__file__).resolve().parent.parent
SHIPPED = sorted([*(ROOT / "sample_documents").glob("*.json"),
                  *(ROOT / "perfbench" / "data").glob("*.json")])


def _shipped_documents():
    return [json.loads(path.read_text(encoding="utf-8")) for path in SHIPPED]


MODULE_DOCUMENTS = [path for path in SHIPPED
                    if json.loads(path.read_text(encoding="utf-8"))["kind"] == "psi-module"]


@pytest.mark.parametrize("path", MODULE_DOCUMENTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_module_documents_keep_their_bytes(path):
    # a module writes each symbol's band splitting, which every shipped one is
    module = module_from_document(load_document(str(path)))
    assert canonical_json(module_to_document(module)) + "\n" == path.read_text(encoding="utf-8")


def test_document_digest_is_the_sha256_of_the_compact_sorted_json():
    assert SHIPPED
    for doc in _shipped_documents():
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert document_digest(doc) == "sha256:" + hashlib.sha256(payload).hexdigest()


# a child without the builtin SHA-256 modules digests through hashlib
FALLBACK_PROBE = ("import json, sys\n"
                  "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
                  "from psibench.documents import document_digest\n"
                  "for path in sys.argv[1:]:\n"
                  "    with open(path, encoding='utf-8') as fh:\n"
                  "        print(document_digest(json.load(fh)))\n"
                  "print('hashlib' in sys.modules)\n")


def test_document_digest_falls_back_to_hashlib():
    proc = subprocess.run([sys.executable, "-c", FALLBACK_PROBE, *map(str, SHIPPED)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        document_digest(doc) for doc in _shipped_documents()] + ["True"]


def test_dump_and_load(tmp_path):
    doc = algebra_to_document(dual_numbers_ring(3, 1))
    path = tmp_path / "a.json"
    dump_document(doc, str(path))
    assert load_document(str(path)) == doc
    # canonical dumps are stable
    assert canonical_json(doc) == canonical_json(json.loads(path.read_text()))


def test_parse_element_forms():
    A = adem_failure_ring(3, D=12)
    ring = A.ring
    x = ring.gen("x")
    assert parse_element(ring, "x") == x
    assert parse_element(ring, "2*x^2 + x") == x**2 * 2 + x
    assert parse_element(ring, "-x + 3") == ring.scalar(3) - x
    assert parse_element(ring, "7") == ring.scalar(7)
    assert parse_element(ring, "x^2*x") == x**3


def test_parse_element_multi_index():
    pres = free_polynomial_presentation(2, 3)
    ring = pres.ring
    e = parse_element(ring, "x[1] + x[0]", mod=2)
    assert e == ring.gen("x", (1,), mod=2) + ring.gen("x", (0,), mod=2)


def test_parse_element_errors():
    ring = adem_failure_ring(3).ring
    with pytest.raises(ValueError):
        parse_element(ring, "")
    with pytest.raises(ValueError):
        parse_element(ring, "x +")
    with pytest.raises(ValueError):
        parse_element(ring, "x ? y")
    with pytest.raises(KeyError):
        parse_element(ring, "nope")
