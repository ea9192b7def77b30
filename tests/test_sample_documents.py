import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from psibench.cli import main
from psibench.documents import (algebra_from_document, dump_document, lift_to_document,
                                load_document, presentation_from_document,
                                presentation_to_document)
from psibench.lift import build_lift
from psibench.models import free_polynomial_presentation
from psibench.steenrod import AXIOMS, check_closure

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
BENCH_DATA = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "data"

# stdout sha256 of `verify --axioms all --trials 2 --format json`: caching or
# refactoring must not move a byte.  Re-recorded when an identity whose
# target lies above the top monomial stopped being computed or counted: on
# the two nilpotent samples only the well-definedness, adem, additivity and
# cartan counts moved, and every status, witness and label is the same.  The
# free broken-Adem ring has no top monomial, and its report did not move then.
# It was re-recorded when Cartan stopped counting a product degree that
# truncation cannot decide as one skip and counted each (pair, i) target
# there instead: its cartan verdict went from 7 checked / 29 skipped to 7 / 103.
# Every verify golden below was re-recorded when closure of the graded
# relations joined the registry: each report gained a first verdict,
# steenrod-closure PASS (checked 0, skipped 0, note "no graded relations"),
# and no other byte moved.  Every verify golden in this file was re-recorded
# again when atiyah-exactness, additivity and cartan left the registry: each
# report lost those three verdicts, and no other byte moved (old hashes:
# 1c530601, 263936aa, 1108680e here; 8ea498cb; bb5ce627, a4142a01, a8cdf0e4;
# 80b2507d).
GOLDEN_VERIFY = {
    "projective-space-p3-n4.json": "155fa6d646f246aabc62d04cbfddbfc0413f652450e5b6dd322c6b8a0fe1b1c2",
    "product-projective-p3.json": "c6ca943779dc343e410e57b7f164fe247e23f69d3bd0dcbc63e2aa2011684a8c",
    "broken-adem-p3.json": "b77edbacd33ae01f747a9fd633207515e4ec3b47efa0a3c04da5e12294debb68",
}

# stdout sha256 of `verify --trials 2 --truncation 2000 --format json` on the
# nilpotent projective space; re-recorded, like GOLDEN_VERIFY, for the
# counts of identities above the top monomial alone.
GOLDEN_VERIFY_TRUNCATION_2000 = "f491447d4e1c7e38942a83f723cc565cb9fe4b433daff32366f9389bb5f4fa62"

# stdout sha256 of `lift --format json`.  Re-recorded when presentation
# validation came to read the graded basis for adem(table) and the lift
# report's seed became null, as validation consumes none; every other
# verdict is the same.  Re-recorded again when the lift's
# ideal-iterate-graded-vanishing verdict was dropped, as it cannot fail
# while psi is correct: the report is the old one without that entry.
GOLDEN_LIFT = {
    "polynomial-presentation-p2-D6.json": "360670db361026fb321fb53a470c3ee32cba5d48890f231556b31e152dc5495e",
}

# stdout sha256 of `lift --format json` on the benchmark's larger
# presentations, the same at hash seeds 0 and 1; recorded before monomials
# were keyed by generator position, to pin the benchmark's slowest command.
GOLDEN_LIFT_BENCH = {
    "polynomial-presentation-p2-D8.json": "6e0ee8c7bc781a28acdd9a999ed1cfaf1a4e6c13e86f25fa9a2902031c8d7b79",
    "polynomial-presentation-p3-D12.json": "3c179cb9c0da228b990c26dd9a8b00f46fe028b9f20a572c1871724ef888432d",
}

# stdout sha256 of `verify --trials 2 --format json` on the benchmark's
# pre-psi-algebra documents that no golden above pins, recorded before
# skipped identities were counted a run at a time.  product-projective-p3-3-3
# is the only valid model here with Adem identities to compare (5).
GOLDEN_VERIFY_BENCH = {
    "product-projective-p3-3-3.json": "922b1748c74abcb4211324aa22e7ac8320f88c219200b00274a266abe27c4144",
    "product-projective-p5-3-3.json": "8eec8b79c2264b6681300b41ddd78d82d8872bab92e8abed0b18f249330403f9",
    "projective-space-p5-n3.json": "1d7f823cf6f0cbea99b0ff03e8d953af1d8b1b0d5094d6d90e2ec959e7cbb417",
}

# stdout sha256 of `steenrod -i <i> --element <class> --format json` and of
# `atiyah --element <element> --format json`, recorded while P^i still read
# a splitting of the class's lift: a one-monomial class, multi-term classes
# (whose splitting built the power t^p of a sum), an i above the class's
# level, and two splittings.
GOLDEN_STEENROD = {
    ("projective-space-p3-n4.json", "1", "t"): "7d7de7bf22675fc02b0892d85ead45be033bb41aaa784b10f3214e6681f9c2d3",
    ("projective-space-p3-n4.json", "1", "t^2"): "1cfffe0099a87e1bf5eaaaae2f3935fe0fdd88b356dca44f6161f660c9f4397e",
    ("product-projective-p3.json", "0", "t^2 + 2*t*u"): "1cd4b150560d59cc98dcb2261faeab6d5116d521bc6e0603ed68a778117f4d22",
    ("product-projective-p3.json", "1", "t + u"): "38c8fc983a07718f951932f487c32573e9a8a3ccd44635fb2f07cfda88a7b948",
    ("product-projective-p3.json", "2", "t + u"): "f0b45fab220877a0923e18c9366d2ad2e16200b0ed3f98654fea5bcb6d1eb825",
}
GOLDEN_ATIYAH = {
    ("product-projective-p3.json", "t + u"): "0da5973ae6d98e18c0383e56aacb8cf62c91d141ba8ff98cad2f3a69c74b5625",
    ("broken-adem-p3.json", "2*x"): "8c51561820a03801c6f40163d1997765f6e8be29c6d118b5bdfe71de9d006404",
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
# (p0-identity FAIL), and `lift --format json` on the p = 2, D = 4 free
# presentation without its first relation (both index identifications
# FAIL).  The first is re-recorded, like GOLDEN_VERIFY, for the counts of
# identities above the top monomial alone (the p0-identity FAIL and its
# witness are the same).  The second was last re-recorded, like GOLDEN_LIFT,
# for the basis-read counts and the lift's null seed; a lift's ring is free.
GOLDEN_VERIFY_P0_FAIL = "364ba5c03955f0a4b726967c5ab2e4fc39ad5947e4af111d02b2c70c40b99c85"
GOLDEN_LIFT_IDENTIFICATION_FAIL = "3515738df07aeb8e8a563f9373f72cb14047f49fb32fe56bb422770b7e839073"


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


@pytest.mark.skipif(not BENCH_DATA.is_dir(), reason="benchmark data not present")
@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY_BENCH))
def test_golden_verify_reports_on_benchmark_documents(name, capsys):
    rc = main(["verify", "--doc", str(BENCH_DATA / name), "--trials", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_BENCH[name]
    assert rc == 0


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


@pytest.mark.skipif(not BENCH_DATA.is_dir(), reason="benchmark data not present")
@pytest.mark.parametrize("name", sorted(GOLDEN_LIFT_BENCH))
def test_golden_lift_reports_on_benchmark_presentations(name, capsys):
    rc = main(["lift", "--doc", str(BENCH_DATA / name), "--format", "json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LIFT_BENCH[name]
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


# every shipped algebra and presentation; psi-modules carry no operations
OPERATED = [path for path in sorted(SAMPLES.glob("*.json")) + sorted(BENCH_DATA.glob("*.json"))
            if json.loads(path.read_text())["kind"] != "psi-module"]


@pytest.mark.parametrize("path", OPERATED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_shipped_document_passes_closure(path):
    doc = load_document(str(path))
    if doc["kind"] == "pre-psi-algebra":
        closure = check_closure(algebra_from_document(doc))
        assert closure.status == "PASS", closure.describe()
        return
    # a presentation validates its relations, and its serialized lift
    # reloads as an algebra whose graded Groebner basis is closed too
    pres = presentation_from_document(doc)
    (closure,) = [v for v in pres.validation if v.name == "steenrod-closure"]
    assert closure.passed and closure.checked, closure.describe()
    lifted = algebra_from_document(lift_to_document(build_lift(pres)))
    closure = check_closure(lifted)
    assert closure.passed and closure.checked, closure.describe()


# every pinned command, as (argv, golden, exit status): run in a fresh
# interpreter at two hash seeds, the way the benchmark runs each command
# with PYTHONHASHSEED set to its workload seed
PINNED_COMMANDS = [
    *((["verify", "--doc", str(SAMPLES / name), "--axioms", "all", "--trials", "2",
        "--format", "json"], digest, 1 if name.startswith("broken") else 0)
      for name, digest in sorted(GOLDEN_VERIFY.items())),
    *((["lift", "--doc", str(SAMPLES / name), "--format", "json"], digest, 0)
      for name, digest in sorted(GOLDEN_LIFT.items())),
    *((["lift", "--doc", str(BENCH_DATA / name), "--format", "json"], digest, 0)
      for name, digest in sorted(GOLDEN_LIFT_BENCH.items())),
    *((["verify", "--doc", str(BENCH_DATA / name), "--trials", "2", "--format", "json"],
       digest, 0) for name, digest in sorted(GOLDEN_VERIFY_BENCH.items())),
    *((["steenrod", "--doc", str(SAMPLES / name), "-i", i, "--element", element,
        "--format", "json"], digest, 0)
      for (name, i, element), digest in sorted(GOLDEN_STEENROD.items())),
    *((["atiyah", "--doc", str(SAMPLES / name), "--element", element, "--format", "json"],
       digest, 0) for (name, element), digest in sorted(GOLDEN_ATIYAH.items())),
]


@pytest.mark.skipif(not (SAMPLES.is_dir() and BENCH_DATA.is_dir()),
                    reason="sample documents or benchmark data not present")
def test_golden_reports_do_not_depend_on_the_hash_seed():
    for argv, digest, code in PINNED_COMMANDS:
        # both seeds at once: two children at a time
        children = [subprocess.Popen([sys.executable, "-m", "psibench", *argv],
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     env={**os.environ, "PYTHONHASHSEED": seed})
                    for seed in ("0", "1")]
        try:
            for seed, child in zip(("0", "1"), children):
                out, err = child.communicate(timeout=60)
                assert (child.returncode, err) == (code, b""), (argv, seed)
                assert hashlib.sha256(out).hexdigest() == digest, (argv, seed)
        finally:
            for child in children:
                child.kill()  # a no-op once the child has been reaped
                child.wait()
