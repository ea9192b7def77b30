import hashlib
import json
import pathlib

import pytest

from psibench.cli import main
from psibench.documents import (dump_document, lift_to_document, load_document,
                                presentation_to_document)
from psibench.lift import build_lift
from psibench.models import free_polynomial_presentation
from psibench.steenrod import AXIOMS

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"

# stdout sha256 of `verify --axioms all --trials 2 --format json`: caching or
# refactoring must not move a byte.  Re-recorded when the pth-power and
# instability verdicts, which hold by construction, left the axiom registry:
# the report is the previous one with those two verdicts removed, and every
# other byte, status, witness and label is the same.
GOLDEN_VERIFY = {
    "projective-space-p3-n4.json": "2a34f571eb8bbeead9877ae29a77d3f4fa716849f0b3c262ef137bcfd21aee6a",
    "product-projective-p3.json": "44e8de04629dd96dea03fdb566eb927342df7e67b4bdacf82402cf138b46ec47",
    "broken-adem-p3.json": "513151d81b4a77d2a14a00adeb2cef7ce8f72d4eb305815d9b7d53181e643bd9",
}

# stdout sha256 of `verify --trials 2 --truncation 2000 --format json` on the
# nilpotent projective space; re-recorded, like GOLDEN_VERIFY, for the two
# removed verdicts alone.
GOLDEN_VERIFY_TRUNCATION_2000 = "3c0a7bc0e12e3ab6b292b1e696a3fc8ce0855513e0b41f1e45a6dd9719d89ac0"

# stdout sha256 of `lift --format json`.  Re-recorded when presentation
# validation dropped the p0-identity(table) verdict, which held by
# construction; every other verdict is the same.
GOLDEN_LIFT = {
    "polynomial-presentation-p2-D6.json": "10e40a1fef4ff9157456f5a60027b844d7e0d8403b496975e69175a5234d53b4",
}

# sha256 of the serialized lift (`lift --out`), which carries the Groebner
# basis that stdout does not; recorded before the lift shared the
# presentation's ring and basis.
GOLDEN_LIFT_DOCUMENT = {
    "polynomial-presentation-p2-D6.json": "604ab1e903947378f686258e048d141b12ba49286c02469b15bacb42d9f1fded",
}
GOLDEN_FREE_P3_D6_DOCUMENT = "88028397fae33dffb9652e3eb8c60ce7f78e566836b59593571ee700b11072b5"

# FAIL reports, whose checked/skipped counts stop at the first witness.
# `verify --trials 2 --format json` on the dual numbers with k = 2
# (p0-identity FAIL), re-recorded for the removed pth-power and instability
# verdicts alone, and `lift --format json` on the p = 2, D = 4 free
# presentation without its first relation (both index identifications
# FAIL), re-recorded for the dropped p0-identity(table) verdict alone.
GOLDEN_VERIFY_P0_FAIL = "169c84e48ae9ce213c4c39aea946bc5d6ccb29dd84e22390119e41a8c8ef7f2b"
GOLDEN_LIFT_IDENTIFICATION_FAIL = "ae4a71ae88a8bcfceb914c1b90ef0bb618a88dd471766cdda98ee04a8bd7807e"


def _verify_json(capsys, name, axioms):
    rc = main(["verify", "--doc", str(SAMPLES / name), "--axioms", axioms,
               "--trials", "2", "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
def test_samples_load():
    for path in sorted(SAMPLES.glob("*.json")):
        load_document(str(path))


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
def test_sample_verify_outcomes(capsys):
    rc = main(["verify", "--doc", str(SAMPLES / "dual-numbers-p3-k1.json"),
               "--trials", "3", "--seed", "0", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "psi-p-algebra"

    rc = main(["verify", "--doc", str(SAMPLES / "dual-numbers-p3-k2.json"),
               "--trials", "3", "--seed", "0", "--format", "json"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["classification"] == "pre-psi-p"

    rc = main(["verify", "--doc", str(SAMPLES / "broken-adem-p3.json"),
               "--axioms", "adem", "--trials", "3", "--format", "json"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_golden_verify_reports(name, capsys):
    rc = main(["verify", "--doc", str(SAMPLES / name), "--axioms", "all",
               "--trials", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[name]
    assert rc == (1 if name.startswith("broken") else 0)


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
def test_golden_verify_report_far_above_the_top_weight(capsys):
    rc = main(["verify", "--doc", str(SAMPLES / "projective-space-p3-n4.json"),
               "--trials", "2", "--truncation", "2000", "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_TRUNCATION_2000
    assert rc == 0


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
def test_golden_verify_fail_report(capsys):
    rc = main(["verify", "--doc", str(SAMPLES / "dual-numbers-p3-k2.json"),
               "--trials", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_P0_FAIL
    assert rc == 1


def test_golden_lift_fail_report(tmp_path, capsys):
    doc = presentation_to_document(free_polynomial_presentation(2, 4))
    doc["relations"] = doc["relations"][1:]
    path = tmp_path / "missing-relation.json"
    dump_document(doc, str(path))
    rc = main(["lift", "--doc", str(path), "--format", "json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert [(v["axiom"], v["status"], v["checked"]) for v in report["verdicts"][:2]] == [
        ("p0-index-identification", "FAIL", 0), ("top-index-identification", "FAIL", 1)]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LIFT_IDENTIFICATION_FAIL
    assert rc == 1


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
def test_sample_lift_and_fingen(tmp_path, capsys):
    rc = main(["lift", "--doc", str(SAMPLES / "polynomial-presentation-p2-D6.json"),
               "--out", str(tmp_path / "lift.json"), "--format", "json"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["fingen", "--doc", str(SAMPLES / "power-tower-p3-D81.json"),
               "--generators", "x", "--format", "json"])
    assert rc == 0
    capsys.readouterr()


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
@pytest.mark.parametrize("name", sorted(GOLDEN_LIFT))
def test_golden_lift_reports(name, capsys):
    rc = main(["lift", "--doc", str(SAMPLES / name), "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LIFT[name]
    assert rc == 0


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
@pytest.mark.parametrize("name", sorted(GOLDEN_LIFT_DOCUMENT))
def test_golden_lift_documents(name, tmp_path, capsys):
    out = tmp_path / "lift.json"
    assert main(["lift", "--doc", str(SAMPLES / name), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_LIFT_DOCUMENT[name]


def test_golden_free_polynomial_lift_document(tmp_path):
    out = tmp_path / "lift.json"
    dump_document(lift_to_document(build_lift(free_polynomial_presentation(3, 6))), str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FREE_P3_D6_DOCUMENT


@pytest.mark.skipif(not SAMPLES.is_dir(), reason="sample documents not present")
@pytest.mark.parametrize("name", ["dual-numbers-p3-k1.json", "broken-adem-p3.json"])
def test_axiom_subset_reports_the_full_run_verdict(name, capsys):
    _, full = _verify_json(capsys, name, "all")
    assert [v["axiom"] for v in full["verdicts"]] == [a.verdict for a in AXIOMS]
    for axiom, want in zip(AXIOMS, full["verdicts"]):
        rc, report = _verify_json(capsys, name, axiom.cli)
        assert report["verdicts"] == [want], axiom.cli
        assert report["status"] == want["status"]
        assert rc == (1 if want["status"] == "FAIL" else 0)
    adem = next(v for v in full["verdicts"] if v["axiom"] == "adem")
    assert (adem["status"] == "FAIL") == name.startswith("broken")
    if adem["status"] == "FAIL":
        assert adem["witness"]["i"] == 1 and adem["witness"]["j"] == 1
