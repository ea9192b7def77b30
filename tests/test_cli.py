import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import psibench.cli
import psibench.commands
import psibench.documents
import psibench.lift
import psibench.steenrod as steenrod
from psibench.arith import MAX_POWER_BITS
from psibench.atiyah import PrePsiAlgebra
from psibench.cli import main
from psibench.documents import (algebra_to_document, document_digest, dump_document,
                                lift_to_document, module_to_document, presentation_to_document)
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             free_polynomial_presentation, power_tower_module,
                             product_projective_spaces, projective_space_ring)
from psibench.steenrod import AXIOMS


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in [
        ("dual-k1.json", algebra_to_document(dual_numbers_ring(3, 1))),
        ("dual-k2.json", algebra_to_document(dual_numbers_ring(3, 2))),
        ("adem.json", algebra_to_document(adem_failure_ring(3))),
        ("tower.json", module_to_document(power_tower_module(3, 81))),
        ("pres.json", presentation_to_document(free_polynomial_presentation(3, 4))),
    ]:
        path = tmp_path / name
        dump_document(doc, str(path))
        paths[name] = str(path)
    return paths


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "psibench", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_fail_and_pass(docs, capsys):
    rc = main(["verify", "--doc", docs["dual-k2.json"], "--trials", "3",
               "--seed", "0", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["classification"] == "pre-psi-p"
    p0 = next(v for v in out["verdicts"] if v["axiom"] == "p0-identity")
    assert p0["status"] == "FAIL" and p0["witness"]["class"] == "e"

    rc = main(["verify", "--doc", docs["dual-k1.json"], "--trials", "3",
               "--seed", "0", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["classification"] == "psi-p-algebra"


def test_verify_axiom_subset(docs, capsys):
    rc = main(["verify", "--doc", docs["dual-k2.json"], "--axioms", "adem",
               "--trials", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["status"] == "PASS"
    rc = main(["verify", "--doc", docs["adem.json"], "--axioms", "adem,p0",
               "--trials", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    adem = next(v for v in out["verdicts"] if v["axiom"] == "adem")
    assert adem["witness"]["i"] == 1 and adem["witness"]["j"] == 1


def test_atiyah_command(docs, capsys):
    rc = main(["atiyah", "--doc", docs["adem.json"], "--element", "x",
               "--level", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["layers"] == ["x", "0", "x^3"]
    assert out["psi"] == "x^3 + 9*x"
    assert out["exact"] is True


def test_steenrod_command(docs, capsys):
    rc = main(["steenrod", "--doc", docs["adem.json"], "-i", "2",
               "--element", "x", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"] == "x^3" and out["result_degree"] == 12
    rc = main(["steenrod", "--doc", docs["adem.json"], "-i", "1",
               "--element", "x", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "0"


def test_lift_command_and_round_trip(docs, tmp_path, capsys):
    out_path = str(tmp_path / "lift.json")
    rc = main(["lift", "--doc", docs["pres.json"], "--out", out_path,
               "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["status"] == "CONSTRUCTED"
    assert report["census"]["0"] == 1

    rc1, out1, _ = run_cli(["verify", "--doc", out_path, "--trials", "2",
                            "--seed", "5", "--format", "json"])
    rc2, out2, _ = run_cli(["verify", "--doc", out_path, "--trials", "2",
                            "--seed", "5", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["classification"] == "psi-p-algebra"


def test_lift_rejects_invalid_presentation(tmp_path, capsys):
    pres = free_polynomial_presentation(2, 3)
    doc = presentation_to_document(pres)
    doc["relations"] = doc["relations"][:1]  # drop identifications
    path = tmp_path / "bad.json"
    dump_document(doc, str(path))
    rc = main(["lift", "--doc", str(path), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["status"] == "FAIL"


def test_lift_of_a_relation_outside_the_window_exits_two(tmp_path, capsys):
    doc = presentation_to_document(free_polynomial_presentation(2, 3))
    doc["relations"].append(
        [{"coefficient": 1, "monomial": [[{"theta": "x", "indices": [9, 9]}, 1]]}])
    path = tmp_path / "unknown-variable.json"
    dump_document(doc, str(path))
    rc = main(["lift", "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: invalid document: relation references x[9, 9], which "
                            "is not an enumerated variable within the window\n")


def test_lift_of_a_constant_relation_exits_two(tmp_path, capsys):
    doc = presentation_to_document(free_polynomial_presentation(3, 4))
    doc["relations"].append([{"coefficient": 1, "monomial": []}])
    path = tmp_path / "constant-relation.json"
    dump_document(doc, str(path))
    rc = main(["lift", "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid document: constant relation supplied: 1")
    assert captured.err.count("\n") == 1


def test_lift_of_an_invalid_presentation_fails_without_a_traceback(tmp_path, capsys):
    doc = presentation_to_document(free_polynomial_presentation(2, 3))
    doc["relations"] = doc["relations"][1:]  # drop x[0] = x
    path = tmp_path / "missing-relation.json"
    dump_document(doc, str(path))
    out_path = tmp_path / "lift.json"
    rc = main(["lift", "--doc", str(path), "--format", "json", "--out", str(out_path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert rc == 1 and captured.err == "" and report["status"] == "FAIL"
    # the report's verdicts are the presentation's validation, and no more
    assert [v["axiom"] for v in report["verdicts"]] == [
        "p0-index-identification", "top-index-identification", "steenrod-closure",
        "adem(table)"]
    p0 = report["verdicts"][0]
    assert p0["status"] == "FAIL" and p0["witness"] == {"variable": "x[0]",
                                                        "missing": "x[0] = x[]"}
    assert "census" not in report and not out_path.exists()


def test_lift_with_thousands_of_zero_indices_fails_without_a_traceback(tmp_path, capsys):
    # 5,001 variables x, x[0], x[0,0], ... stay under MAX_LIFT_VARIABLES, and
    # no relation identifies them
    doc = {"kind": "presentation", "prime": 2, "truncation": 1,
           "generators": [{"theta": "x", "degree": 2}], "relations": [],
           "max_zero_indices": 5000}
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(doc))
    rc = main(["lift", "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert rc == 1 and captured.err == "" and report["status"] == "FAIL"
    assert report["verdicts"][0]["witness"] == {"variable": "x[0]", "missing": "x[0] = x[]"}


def test_fingen_command(docs, capsys):
    rc = main(["fingen", "--doc", docs["tower.json"], "--generators", "x",
               "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["status"] == "PASS"
    rc = main(["fingen", "--doc", docs["tower.json"], "--generators", "x^3",
               "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["verdicts"][0]["witness"]["weight"] == 2


@pytest.mark.parametrize("truncation, extra", [("30000", []), ("4", ["--max-depth", "100000"])])
def test_fingen_scaling_chain_settles_at_once(truncation, extra, tmp_path, capsys):
    # psi(m) = 9 * 2m at level 2: the chain m, 2m, 4m, ... never leaves the
    # lattice that m spans, so the closure stops after one round
    doc = {"kind": "psi-module", "prime": 3, "truncation": int(truncation),
           "symbols": [{"id": "m", "weight": 4,
                        "layers": {"0": [{"coefficient": 2, "symbol": "m"}]}}]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    rc = main(["fingen", "--doc", str(path), "--generators", "m", "--format", "json", *extra])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert rc == 0 and captured.err == "" and report["status"] == "PASS"
    assert report["per_weight"] == {"4": [1, 1]}
    assert elapsed < 2.0


@pytest.mark.parametrize("coefficient, rc_expected, witness", [
    (1, 0, None),
    (2, 1, {"weight": 2, "symbol": "s1", "rank": 1, "needed": 64})],
    ids=["generated", "not-generated"])
def test_fingen_doubling_cycle_is_decided_quickly(coefficient, rc_expected, witness,
                                                  tmp_path, capsys):
    # 64 weight-2 symbols with layer 0 = 2*s_a + c*s_(a+1), indices mod 64:
    # every step from s0 doubles the coefficients, so the nodes never repeat,
    # but each level's lattice fills (c = 1) or settles (c = 2) within 65 rounds
    k = 64
    doc = {"kind": "psi-module", "prime": 3, "truncation": 10000,
           "symbols": [{"id": f"s{a}", "weight": 2,
                        "layers": {"0": [{"coefficient": 2, "symbol": f"s{a}"},
                                         {"coefficient": coefficient,
                                          "symbol": f"s{(a + 1) % k}"}]}}
                       for a in range(k)]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    rc = main(["fingen", "--doc", str(path), "--generators", "s0", "--format", "json"])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert rc == rc_expected
    assert report["verdicts"][0]["witness"] == witness
    assert report["per_weight"] == {"2": [k if witness is None else 1, k]}
    assert elapsed < 1.0


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fingen_reads_psi_not_the_written_layers(fmt, tmp_path, capsys):
    # p = 2, D = 3: a of weight 2 with psi(a) = 2b, b of weight 6 with
    # psi(b) = 0.  (b, 0) and (0, 2b) both split psi(a) at level 1; b lies
    # above band 0 = weights [2, 4), so a's splitting is (0, 2b) and b is not
    # generated, whichever the document writes
    b = [{"coefficient": 1, "symbol": "b"}]
    runs = []
    for name, layers in (("b-0", {"0": b}), ("0-2b", {"1": [{"coefficient": 2, "symbol": "b"}]})):
        doc = {"kind": "psi-module", "prime": 2, "truncation": 3,
               "symbols": [{"id": "a", "weight": 2, "layers": layers},
                           {"id": "b", "weight": 6, "layers": {}}]}
        path = tmp_path / f"{name}.json"
        dump_document(doc, str(path))
        rc = main(["fingen", "--doc", str(path), "--generators", "a", "--format", fmt])
        runs.append((rc, capsys.readouterr().out, document_digest(doc)))
    (rc1, out1, digest1), (rc2, out2, digest2) = runs
    assert rc1 == rc2 == 1 and digest1 != digest2
    assert out1.replace(digest1, "") == out2.replace(digest2, "")
    if fmt == "json":
        assert json.loads(out1)["per_weight"] == {"2": [1, 1], "6": [0, 1]}


def test_fingen_huge_truncation_matches_the_document_window(docs, capsys):
    keys = ("per_weight", "abelian_generator_profile", "status")
    assert main(["fingen", "--doc", docs["tower.json"], "--generators", "x",
                 "--format", "json"]) == 0
    at_81 = json.loads(capsys.readouterr().out)
    t0 = time.perf_counter()
    assert main(["fingen", "--doc", docs["tower.json"], "--generators", "x",
                 "--format", "json", "--truncation", "100000000"]) == 0
    elapsed = time.perf_counter() - t0
    huge = json.loads(capsys.readouterr().out)
    assert {k: huge[k] for k in keys} == {k: at_81[k] for k in keys}
    assert elapsed < 10.0


def test_lift_beyond_the_variable_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "pres-p2.json"
    dump_document(presentation_to_document(free_polynomial_presentation(2, 3)), str(path))
    t0 = time.perf_counter()
    rc = main(["lift", "--doc", str(path), "--truncation", "14"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "MAX_LIFT_VARIABLES=8192" in captured.err
    assert elapsed < 2.0


def test_input_errors_exit_two(docs, tmp_path, capsys):
    assert main(["verify", "--doc", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "nonsense"}')
    assert main(["verify", "--doc", str(bad)]) == 2
    assert main(["atiyah", "--doc", docs["adem.json"], "--element", "zzz"]) == 2
    assert main(["atiyah", "--doc", docs["adem.json"], "--element", "0"]) == 2
    assert main(["steenrod", "--doc", docs["adem.json"], "-i", "1",
                 "--element", "x + x^2"]) == 2  # inhomogeneous class
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_trials_below_one_exit_two(docs, trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--doc", docs["dual-k1.json"], "--axioms", "welldefined",
              "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--trials: must be at least 1, got {trials}" in captured.err


@pytest.mark.parametrize("args, message", [
    (["verify", "--doc", "dual-k1.json", "--axioms", ",,"], "--axioms names no axiom"),
    # the degree is the class's weight, so steenrod takes no --degree
    (["steenrod", "--doc", "dual-k1.json", "-i", "0", "--element", "e", "--degree", "3"],
     "unrecognized arguments: --degree 3"),
    (["fingen", "--doc", "tower.json", "--generators", "x", "--max-depth", "-1"],
     "--max-depth: must be at least 0, got -1"),
])
def test_flags_without_a_comparison_exit_two(docs, args, message, capsys):
    args = [docs.get(a, a) for a in args]
    try:
        rc = main(args)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


# pth-power and instability hold by construction, and exactness, additivity
# and cartan for every document that loads, so the registry dropped them
@pytest.mark.parametrize("name", ["bogus", "pth-power", "instability", "exactness",
                                  "additivity", "cartan"])
def test_unknown_axiom_lists_the_registry(docs, name, capsys):
    rc = main(["verify", "--doc", docs["dual-k1.json"], "--axioms", f"adem,{name}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    names = ", ".join(a.cli for a in AXIOMS)
    assert names == "closure, welldefined, p0, adem"
    assert captured.err == f"error: unknown axiom {name!r}; choose from {names}\n"


def test_the_readme_lists_the_axioms_in_report_order():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = readme.splitlines()
    at = lines.index("# the axiom names, in report order:")
    assert lines[at + 1].lstrip("# ").split(", ") == [a.cli for a in AXIOMS]


def test_byte_identical_reports(docs):
    for args in (
        ["verify", "--doc", docs["dual-k2.json"], "--seed", "7", "--trials", "3",
         "--format", "json"],
        ["verify", "--doc", docs["dual-k2.json"], "--seed", "7", "--trials", "3",
         "--format", "text"],
        ["fingen", "--doc", docs["tower.json"], "--generators", "x",
         "--format", "json"],
        ["atiyah", "--doc", docs["adem.json"], "--element", "x + x^2",
         "--format", "json"],
    ):
        rc1, out1, err1 = run_cli(args)
        rc2, out2, err2 = run_cli(args)
        assert (rc1, out1, err1) == (rc2, out2, err2)


def test_text_format_mentions_status(docs, capsys):
    rc = main(["verify", "--doc", docs["dual-k1.json"], "--trials", "2",
               "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("psibench verify")
    assert "status: PASS" in out


def test_each_document_is_validated_once_without_overrides(docs, tmp_path, monkeypatch,
                                                            capsys):
    calls = []
    original = psibench.documents.validate_document

    def counting(doc):
        calls.append(doc)
        return original(doc)

    monkeypatch.setattr(psibench.documents, "validate_document", counting)
    monkeypatch.setattr(psibench.commands, "validate_document", counting)
    for args in (["verify", "--doc", docs["dual-k1.json"], "--axioms", "p0", "--trials", "1"],
                 ["atiyah", "--doc", docs["adem.json"], "--element", "x"],
                 ["fingen", "--doc", docs["tower.json"], "--generators", "x"],
                 ["lift", "--doc", docs["pres.json"]]):
        calls.clear()
        assert main(args) == 0
        assert len(calls) == 1, args
    calls.clear()
    assert main(["verify", "--doc", docs["dual-k1.json"], "--axioms", "p0",
                 "--trials", "1", "--truncation", "6"]) == 0
    assert len(calls) == 2
    calls.clear()
    # lift --out validates the lift it writes once, as a whole
    assert main(["lift", "--doc", docs["pres.json"], "--out", str(tmp_path / "lift.json")]) == 0
    assert [doc["kind"] for doc in calls] == ["presentation", "pre-psi-algebra"]
    calls.clear()
    capsys.readouterr()
    assert main(["verify", "--doc", docs["dual-k1.json"], "--truncation", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid document: truncation must be a positive integer\n"


def test_lift_validates_its_presentation_once(docs, tmp_path, monkeypatch, capsys):
    calls = []
    original = psibench.lift.UnstablePresentation.validate

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(psibench.lift.UnstablePresentation, "validate", counting)
    for kmax in ("0", "3"):
        calls.clear()
        assert main(["lift", "--doc", docs["pres.json"], "--kmax", kmax,
                     "--out", str(tmp_path / "lift.json")]) == 0
        assert len(calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("kmax, message", [
    ("-1", "--kmax: must be at least 0, got -1"),
    ("33", "error: --kmax must be at most MAX_KMAX=32, got 33"),
])
def test_kmax_outside_its_range_exits_two(docs, kmax, message, capsys):
    assert psibench.lift.MAX_KMAX == 32
    t0 = time.perf_counter()
    try:
        rc = main(["lift", "--doc", docs["pres.json"], "--kmax", kmax])
    except SystemExit as exc:
        rc = exc.code
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err
    assert elapsed < 1.0


# projective-space-p3-n4.json carrying a prime above MAX_PRIME
HUGE_PRIME_DOCUMENT = "projective-space-p1000000000000000003-n4.json"

# Z[x], |x| = 2, D = 1, psi(x) = p*x + x^p at p = 199,999: the level-0 pair of
# the constant 2 is ((2 - 2^p)/p, 2^p), whose first coefficient has 60,201 digits
HUGE_LAYER_DOCUMENT = "one-generator-p199999-D1.json"


# Without the element bound, atiyah on x^2000 (weight 8000) at --truncation
# 100000 takes about 8 s on a 2-CPU host: psi of a monomial raises the psi
# images of its generators to their exponents.  A term above the window 2D is
# refused by name rather than dropped.
@pytest.mark.parametrize("name, argv, message", [
    ("projective-space-p3-n4.json", ["verify", "--trials", "1000000"],
     "error: --trials must be at most MAX_TRIALS=32, got 1000000"),
    ("broken-adem-p3.json", ["verify", "--truncation", "33"],
     "error: top weight 66 must be at most MAX_WEIGHT=64; lower the truncation"),
    ("broken-adem-p3.json", ["verify", "--truncation", "2000"],
     "error: top weight 4000 must be at most MAX_WEIGHT=64; lower the truncation"),
    (HUGE_PRIME_DOCUMENT, ["verify"],
     "error: invalid document: p must be a prime integer at most MAX_PRIME=2147483648, "
     "got 1000000000000000003"),
    *(("broken-adem-p3.json", [*command, "--truncation", "100000", "--element", element],
       f"error: element term of weight {weight} must be at most MAX_WEIGHT=64")
      for command, element, weight in [(["atiyah"], "x^600", 2400),
                                        (["atiyah"], "x^1000", 4000),
                                        (["atiyah"], "x^2000", 8000),
                                        (["atiyah", "--level", "2"], "x+x^600", 2400),
                                        (["steenrod", "-i", "1"], "x^600", 2400)]),
    *(("projective-space-p3-n4.json", ["atiyah", "--element", element], f"error: {message}")
      for element, message in [("t^-1", "exponent must be an integer literal"),
                                ("*t", "unexpected token '*' in element expression"),
                                ("2 3", "expected + or - between terms, got 3")]),
    ("power-tower-p3-D81.json", ["fingen", "--generators", ","], "error: no generators supplied"),
    *(("projective-space-p3-n4.json", [*command, "--element", element, "--truncation", D],
       f"error: element term of weight {weight} lies above the window 2D={2 * int(D)}")
      for command, element, D, weight in [(["steenrod", "-i", "0"], "t^3", "2", 6),
                                          (["atiyah"], "t^2", "1", 4),
                                          (["atiyah"], "t + t^2*t", "2", 6)]),
    *((HUGE_LAYER_DOCUMENT, ["atiyah", "--element", "2", "--format", fmt],
       "error: layer 0 has a coefficient of 60201 digits; Python prints at most "
       f"sys.get_int_max_str_digits()={sys.get_int_max_str_digits()}")
      for fmt in ("json", "text")),
    # psi of (10^4300 - 1)*x is 199,999 times it: the layer prints, psi does not
    (HUGE_LAYER_DOCUMENT, ["atiyah", "--element", "9" * 4300 + "*x"],
     "error: psi has a coefficient of 4306 digits; Python prints at most "
     f"sys.get_int_max_str_digits()={sys.get_int_max_str_digits()}"),
    (HUGE_LAYER_DOCUMENT, ["atiyah", "--element", "1" * 4301],
     "error: integer literal of 4301 digits; Python reads at most "
     f"sys.get_int_max_str_digits()={sys.get_int_max_str_digits()}"),
])
def test_hostile_input_exits_two(name, argv, message, tmp_path, capsys):
    sample = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
    doc = sample / name
    if name == HUGE_PRIME_DOCUMENT:
        data = json.loads((sample / "projective-space-p3-n4.json").read_text())
        doc = tmp_path / name
        doc.write_text(json.dumps({**data, "prime": 1000000000000000003}))
    if name == HUGE_LAYER_DOCUMENT:
        doc = tmp_path / name
        x = [{"coefficient": 1, "monomial": [["x", 1]]}]
        dump_document({"kind": "pre-psi-algebra", "name": "one-generator", "prime": 199999,
                       "truncation": 1, "generators": [{"id": "x", "weight": 2, "layers": [x, []]}]},
                      str(doc))
    t0 = time.perf_counter()
    rc = main([argv[0], "--doc", str(doc), *argv[1:]])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == message + "\n"
    assert elapsed < 1.0


def _one_generator_document(tmp_path, p):
    """Z[t], |t| = 2, D = 4, psi(t) = p*t: the top t^p lies beyond the window."""
    t = [{"coefficient": 1, "monomial": [["t", 1]]}]
    doc = {"kind": "pre-psi-algebra", "name": "one-generator", "prime": p, "truncation": 4,
           "generators": [{"id": "t", "weight": 2, "layers": [t, []]}]}
    path = tmp_path / f"one-generator-p{p}.json"
    dump_document(doc, str(path))
    return str(path)


@pytest.mark.parametrize("command", [["atiyah", "--element", "1000 + t"]])
def test_a_coefficient_power_beyond_the_bit_budget_exits_two(command, tmp_path, capsys):
    # the top layer (1000 + t)^p holds 1000^p, about 2.7 GB at this prime; a
    # tree without the budget fails this module's import of MAX_POWER_BITS
    # before building it
    path = _one_generator_document(tmp_path, 2147483647)
    t0 = time.perf_counter()
    rc = main([command[0], "--doc", path, *command[1:]])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"above MAX_POWER_BITS={MAX_POWER_BITS}" in captured.err
    assert captured.err.count("\n") == 1
    assert elapsed < 2.0
    # a unit coefficient has a trivial power and still splits, and so does
    # 1000*t, whose power lies above the window and is never built
    for element, layers in (("t", ["t", "0"]), ("1000*t", ["1000*t", "0"])):
        t0 = time.perf_counter()
        assert main(["atiyah", "--doc", path, "--element", element, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["layers"] == layers
        assert time.perf_counter() - t0 < 2.0


def _two_generator_document(tmp_path, p):
    """Z[t, u], |t| = |u| = 2, D = p, psi(g) = p*g + g^p for both generators."""
    def gen(name):
        return {"id": name, "weight": 2,
                "layers": [[{"coefficient": 1, "monomial": [[name, 1]]}],
                           [{"coefficient": 1, "monomial": [[name, p]]}]]}
    doc = {"kind": "pre-psi-algebra", "name": "two-generators", "prime": p, "truncation": p,
           "generators": [gen("t"), gen("u")]}
    path = tmp_path / f"two-generators-p{p}.json"
    dump_document(doc, str(path))
    return str(path)


@pytest.mark.parametrize("command", [["atiyah"]])
def test_a_sum_power_beyond_the_bit_budget_exits_two(command, tmp_path, capsys):
    # (t + u)^p keeps 10,008 monomials with coefficients of up to about 10,000
    # bits; each summand alone splits at once
    path = _two_generator_document(tmp_path, 10007)
    t0 = time.perf_counter()
    rc = main([command[0], "--doc", path, *command[1:], "--element", "t + u"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: the p-th power of a 2-term element at p=10007")
    assert f"above MAX_POWER_BITS={MAX_POWER_BITS}" in captured.err
    assert captured.err.count("\n") == 1
    assert elapsed < 2.0
    assert main([command[0], "--doc", path, *command[1:], "--element", "t"]) == 0


@pytest.mark.parametrize("document, argv, result", [
    # P^0 of 2*t reads psi(2*t) = 2p*t in weight 2 and never builds 2^p
    (lambda tmp: _one_generator_document(tmp, 2147483647), ["-i", "0", "--element", "2*t"],
     ("2*t", 2)),
    # P^1 of t + u reads t^p + u^p in weight 2p and never builds (t + u)^p
    (lambda tmp: _two_generator_document(tmp, 10007), ["-i", "1", "--element", "t + u"],
     ("u^10007 + t^10007", 20014)),
], ids=["coefficient", "sum"])
def test_steenrod_answers_the_power_the_atiyah_rows_refuse(document, argv, result, tmp_path,
                                                            capsys):
    path = document(tmp_path)
    t0 = time.perf_counter()
    rc = main(["steenrod", "--doc", path, *argv, "--format", "json"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    report = json.loads(captured.out)
    assert (report["result"], report["result_degree"]) == result
    assert elapsed < 2.0


def test_verify_at_a_large_prime_stays_fast(tmp_path, capsys):
    # the splitting of a sum reads its correction off the three tops, so its
    # cost does not grow with p; lifts reach coefficients near p^3
    path = _one_generator_document(tmp_path, 10007)
    t0 = time.perf_counter()
    rc = main(["verify", "--doc", path, "--trials", "2", "--format", "json"])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["classification"] == "psi-p-algebra"
    assert elapsed < 5.0


def _not_closed_document(tmp_path):
    """Z[t,u]/(t^5, u^5) at p = 3, D = 16, with the graded relation t^2 + u^2,
    which P^1 does not preserve: P^1(t^2 + u^2) = 2t^4 + 2u^4 = t^4 modulo it."""
    doc = algebra_to_document(product_projective_spaces(3, 4, 4, D=16))
    doc["graded_relations"] = [[{"coefficient": 1, "monomial": [["t", 2]]},
                                {"coefficient": 1, "monomial": [["u", 2]]}]]
    path = tmp_path / "not-closed.json"
    dump_document(doc, str(path))
    return str(path)


def test_verify_labels_a_document_whose_relations_are_not_closed(tmp_path, capsys):
    rc = main(["verify", "--doc", _not_closed_document(tmp_path), "--trials", "2",
               "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1 and report["classification"] == "not-pre-psi-p"
    closure = report["verdicts"][0]
    assert (closure["axiom"], closure["status"]) == ("steenrod-closure", "FAIL")
    assert closure["witness"] == {"relation": "u^2 + t^2", "i": 1, "image": "2*u^4 + 2*t^4"}


def test_steenrod_refuses_a_document_whose_relations_are_not_closed(tmp_path, capsys):
    # the class of t^2 is also the class of 2*u^2, so no answer is the operation's
    rc = main(["steenrod", "-i", "1", "--element", "t^2", "--doc", _not_closed_document(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("error: P^1 sends the graded relation u^2 + t^2 to 2*u^4 + 2*t^4, "
                            "outside the ideal, so P^i of a class depends on its "
                            "representative\n")


def test_steenrod_without_graded_relations_reads_one_band(monkeypatch, capsys):
    # the closure check builds no graded basis and reads no psi image when
    # there is no graded relation to check
    calls = []
    apply, basis = PrePsiAlgebra.apply_P, steenrod.graded_basis
    monkeypatch.setattr(PrePsiAlgebra, "apply_P",
                        lambda *a: calls.append("apply_P") or apply(*a))
    monkeypatch.setattr(steenrod, "graded_basis", lambda *a: calls.append("basis") or basis(*a))
    assert main(["steenrod", "-i", "1", "--element", "t^2",
                 "--doc", str(SAMPLES / "projective-space-p3-n4.json")]) == 0
    capsys.readouterr()
    assert calls == ["apply_P"]


def test_a_constant_graded_relation_exits_two(tmp_path, capsys):
    doc = algebra_to_document(projective_space_ring(3, 4))
    doc["graded_relations"] = [[{"coefficient": 1, "monomial": []}]]
    path = tmp_path / "constant-graded-relation.json"
    dump_document(doc, str(path))
    rc = main(["verify", "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: invalid document: constant relation supplied: 1")
    assert captured.err.count("\n") == 1


def test_huge_truncation_on_a_nilpotent_ring_stops_at_the_top_weight(capsys):
    sample = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
    args = ["verify", "--doc", str(sample / "projective-space-p3-n4.json"),
            "--trials", "2", "--format", "json"]
    assert main(args) == 0
    at_12 = json.loads(capsys.readouterr().out)
    t0 = time.perf_counter()
    assert main(args + ["--truncation", "20000"]) == 0
    elapsed = time.perf_counter() - t0
    huge = json.loads(capsys.readouterr().out)
    assert huge["verdicts"] == at_12["verdicts"]
    assert elapsed < 3.0


@pytest.mark.parametrize("doc, skipped_degrees", [
    # t^5 = 0 puts the top monomial at weight 8; --truncation 2 sees up to 4
    ("sample_documents/projective-space-p3-n4.json", 2),
    # t^4 = 0 puts it at weight 6, the one degree the window misses
    ("perfbench/data/projective-space-p5-n3.json", 1),
], ids=["p3-n4", "p5-n3"])
def test_a_window_below_the_nilpotent_top_is_not_exact(doc, skipped_degrees, capsys):
    root = pathlib.Path(__file__).resolve().parent.parent
    args = ["verify", "--doc", str(root / doc),
            "--trials", "2", "--truncation", "2", "--format", "json"]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "PASS-UP-TO-TRUNCATION"
    assert report["classification"] == "psi-p-algebra"
    verdicts = {v["axiom"]: v for v in report["verdicts"]}
    # P^0 = Id is undecided in each even degree between the window and the top
    p0 = verdicts["p0-identity"]
    assert (p0["status"], p0["skipped_beyond_truncation"]) == (
        "PASS-UP-TO-TRUNCATION", skipped_degrees)
    # every Adem target lies above the top monomial: none is counted
    adem = verdicts["adem"]
    assert (adem["checked"], adem["skipped_beyond_truncation"]) == (0, 0)


def test_a_generator_beyond_the_window_exits_two(capsys):
    sample = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
    rc = main(["verify", "--doc", str(sample / "dual-numbers-p3-k2.json"),
               "--truncation", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "generator e has weight 4 beyond 2D" in captured.err


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"


def test_terms_the_relations_kill_leave_the_scope_exact(capsys):
    # t^3 = u^3 = 0: every term the window 2D = 4 drops is zero anyway
    assert main(["atiyah", "--doc", str(SAMPLES / "product-projective-p3.json"),
                 "--element", "t + t^2", "--truncation", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["scope"] == "exact"


def test_a_top_beyond_the_window_narrows_the_scope_however_written(tmp_path, capsys):
    # t of weight 2, p = 5, D = 4: t^5 has weight 10, above the window 8, so
    # the top layer is lost whether the document writes it as [] or as t^5
    t = [{"coefficient": 1, "monomial": [["t", 1]]}]
    t5 = [{"coefficient": 1, "monomial": [["t", 5]]}]
    for top in ([], t5):
        doc = {"kind": "pre-psi-algebra", "prime": 5, "truncation": 4,
               "generators": [{"id": "t", "weight": 2, "layers": [t, top]}]}
        path = tmp_path / "top.json"
        path.write_text(json.dumps(doc))
        assert main(["atiyah", "--doc", str(path), "--element", "t", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["scope"] == "valid below weight 8", top


def test_text_format_prints_a_fail_witness_as_json(capsys):
    assert main(["verify", "--doc", str(SAMPLES / "broken-adem-p3.json"), "--format", "text"]) == 1
    adem = [line for line in capsys.readouterr().out.splitlines() if "adem:" in line]
    assert adem == ['  adem: FAIL (checked 0, skipped 0) witness={"class": "x", "degree": 4, '
                    '"i": 1, "j": 1, "lhs": "0", "rhs": "2*x^3"}']


# one command line per subcommand, on a sample it accepts
ONE_OF_EACH = [
    ("projective-space-p3-n4.json", ["atiyah", "--element", "t"]),
    ("projective-space-p3-n4.json", ["steenrod", "-i", "1", "--element", "t"]),
    ("dual-numbers-p3-k1.json", ["verify", "--axioms", "p0", "--trials", "1"]),
    ("polynomial-presentation-p2-D6.json", ["lift"]),
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"]),
]


@pytest.mark.parametrize("command", [command for _, command in ONE_OF_EACH],
                         ids=[command[0] for _, command in ONE_OF_EACH])
def test_a_document_nested_too_deeply_exits_two(command, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command[0], "--doc", str(deep), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid document: JSON nested too deeply\n"


SEEDLESS = [(sample, command) for sample, command in ONE_OF_EACH if command[0] != "verify"]


@pytest.mark.parametrize("sample, command", SEEDLESS, ids=[c[0] for _, c in SEEDLESS])
def test_seed_is_refused_where_nothing_reads_it(sample, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--doc", str(SAMPLES / sample), *command[1:], "--seed", "3"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --seed 3" in captured.err


def test_verify_reports_its_seed_and_no_other_command_has_one(tmp_path, capsys):
    sample = SAMPLES / "dual-numbers-p3-k1.json"
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({**json.loads(sample.read_text()), "seed": 7}))

    def seed(*args):
        assert main([*args, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["seed"]

    verify = ["verify", "--axioms", "p0", "--trials", "1", "--doc"]
    assert seed(*verify, str(sample)) == 0
    assert seed(*verify, str(seeded)) == 7
    assert seed(*verify, str(seeded), "--seed", "3") == 3
    assert seed("atiyah", "--doc", str(seeded), "--element", "e") is None


# (sample, command, path to a value, the value written there, the message)
VERIFY_P0 = ["verify", "--axioms", "p0", "--trials", "1"]
T2_PLUS_T = [{"coefficient": 1, "monomial": [["t", 2]]}, {"coefficient": 1, "monomial": [["t", 1]]}]
HOSTILE = [
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"], ("symbols", 0, "weight"), 2.0,
     "invalid document: symbol weights are integers >= 0"),
    ("projective-space-p3-n4.json", VERIFY_P0, ("generators", 0, "weight"), 2.0,
     "invalid document: generator weights are integers >= 2"),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("generators", 0, "degree"), 2.0,
     "invalid document: degrees are integers >= 2"),
    ("broken-adem-p3.json", VERIFY_P0, ("generators", 0, "layers"), 7,
     "invalid document: layers must be an array"),
    ("broken-adem-p3.json", VERIFY_P0, ("generators", 0, "layers"), {},
     "invalid document: layers must be an array"),
    ("dual-numbers-p3-k1.json", VERIFY_P0, ("monomial_relations",), 3,
     "invalid document: monomial_relations must be an array"),
    ("dual-numbers-p3-k1.json", VERIFY_P0, ("graded_relations",), 3,
     "invalid document: graded_relations must be an array"),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("relations",), 1,
     "invalid document: relations must be an array"),
    # the documents below pass the schema and are refused when they are built,
    # in the same words
    ("projective-space-p3-n4.json", VERIFY_P0, ("generators", 0, "layers"), [T2_PLUS_T],
     "invalid document: generator t has weight 2; expected 2 layers, got 1"),
    ("dual-numbers-p3-k1.json", VERIFY_P0, ("monomial_relations",), [[]],
     "invalid document: the unit monomial cannot be a relation"),
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"], ("symbols", 1, "id"), "x",
     "invalid document: duplicate symbol names"),
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"], ("symbols", 0, "layers", "5"),
     [{"coefficient": 1, "symbol": "x^3"}],
     "invalid document: symbol 'x' at level 1 has a layer index 5"),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("generators", 0, "degree"), 3,
     "invalid document: generator degrees must be positive even integers, got 3"),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("generators",),
     [{"degree": 2, "theta": "x"}] * 2, "invalid document: duplicate generator names"),
]


@pytest.mark.parametrize("sample, command, path, value, message", HOSTILE,
                         ids=[f"{s}:{'/'.join(map(str, p))}={v!r}" for s, _, p, v, _ in HOSTILE])
def test_hostile_values_exit_two_with_a_message(sample, command, path, value, message,
                                                tmp_path, capsys):
    doc = json.loads((SAMPLES / sample).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / sample
    bad.write_text(json.dumps(doc))
    assert main([command[0], "--doc", str(bad), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("sample, command, kind", [
    ("projective-space-p3-n4.json", ["lift"], "presentation"),
    ("polynomial-presentation-p2-D6.json", VERIFY_P0, "pre-psi-algebra"),
    ("projective-space-p3-n4.json", ["fingen", "--generators", "t"], "psi-module"),
])
def test_a_document_of_another_kind_exits_two(sample, command, kind, capsys):
    assert main([command[0], "--doc", str(SAMPLES / sample), *command[1:]]) == 2
    captured = capsys.readouterr()
    got = json.loads((SAMPLES / sample).read_text())["kind"]
    assert captured.out == ""
    assert captured.err == f"error: invalid document: expected a {kind} document, got kind={got!r}\n"


@pytest.mark.parametrize("sample, command, message", [
    ("power-tower-p3-D81.json", ["fingen", "--generators", "zz"],
     "unknown module symbol 'zz'"),
    ("projective-space-p3-n4.json", ["steenrod", "-i", "1", "--element", "y"],
     "unknown generator 'y' with indices ()"),
])
def test_an_unknown_name_exits_two_with_its_message(sample, command, message, capsys):
    # a KeyError's message, not the quoted repr that str() of it gives
    assert main([command[0], "--doc", str(SAMPLES / sample), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["01", "1\n"])
def test_two_keys_for_one_module_layer_exit_two(key, tmp_path, capsys):
    # the schema admits both keys; together with "1" they name layer 1 twice
    doc = json.loads((SAMPLES / "power-tower-p3-D81.json").read_text())
    doc["symbols"][0]["layers"][key] = [{"coefficient": 5, "symbol": "x^9"}]
    bad = tmp_path / "duplicate-layer.json"
    bad.write_text(json.dumps(doc))
    assert main(["fingen", "--doc", str(bad), "--generators", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: invalid document: symbol 'x' names layer 1 twice, "
                            f"as '1' and {key!r}\n")


# modules no command may load: jsonschema is a test oracle only; dataclasses
# (which loads inspect), hashlib (which loads OpenSSL as _hashlib) and typing
# only slow every start
UNNEEDED_MODULES = ("jsonschema", "dataclasses", "inspect", "hashlib", "_hashlib", "typing")

# runs each command line of a JSON list in turn, then says on the last stderr
# line what they returned and which of the named modules were imported
IMPORT_PROBE = ("import json, sys\n"
                "from psibench.cli import main\n"
                "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
                "print('exit codes', codes, 'imported',\n"
                "      [m for m in json.loads(sys.argv[2]) if m in sys.modules],\n"
                "      file=sys.stderr)\n")


def test_no_command_imports_jsonschema_valid_or_rejected(tmp_path):
    runs = []
    for sample, command in ONE_OF_EACH:
        bad = tmp_path / sample
        bad.write_text(json.dumps({**json.loads((SAMPLES / sample).read_text()),
                                   "truncation": 0}))
        runs.append([command[0], "--doc", str(SAMPLES / sample), *command[1:]])
        runs.append([command[0], "--doc", str(bad), *command[1:]])
    # -S: no site hook, which may import typing on its own; the package is
    # found through PYTHONPATH instead
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(psibench.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, json.dumps(runs),
                           json.dumps(UNNEEDED_MODULES)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "error: invalid document: truncation must be a positive integer"] * 5 + [
        "exit codes [0, 2, 0, 2, 0, 2, 0, 2, 0, 2] imported []"]


# the psibench modules every command loads, and those each command adds: a
# command compiles only the layers it runs
COMMAND_BASE = {"psibench", "psibench.commands", "psibench.documents", "psibench.verdicts"}
COMMAND_LAYERS = {
    "atiyah": {"arith", "atiyah", "rings"},
    "steenrod": {"arith", "atiyah", "rings", "steenrod"},
    "verify": {"arith", "atiyah", "rings", "steenrod"},
    "lift": {"arith", "atiyah", "groebner", "lift", "rings", "steenrod", "unstable"},
    "fingen": {"arith", "modules", "normalforms"},
}

# runs one command line through commands.main, then says on the last stderr
# line what it returned and which psibench modules are loaded
MAIN_PROBE = ("import json, sys\n"
              "from psibench.commands import main\n"
              "code = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.partition('.')[0] == 'psibench')]),\n"
              "      file=sys.stderr)\n")

# runs one command line through commands.run, with gc.freeze replaced by a
# record of the psibench modules loaded when run() freezes the heap
RUN_PROBE = ("import gc, json, sys\n"
             "import psibench.commands\n"
             "def loaded():\n"
             "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'psibench')\n"
             "frozen = []\n"
             "gc.freeze = lambda: frozen.append(loaded())\n"
             "sys.argv = ['psibench', *json.loads(sys.argv[1])]\n"
             "try:\n"
             "    psibench.commands.run()\n"
             "except SystemExit as exc:\n"
             "    print(json.dumps([exc.code, frozen, loaded()]), file=sys.stderr)\n")


def _package_env():
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(psibench.__file__).parent.parent)}


def _loaded_through_main(argv):
    """(exit code, psibench modules at exit) of ``commands.main(argv)`` in a
    child."""
    proc = subprocess.run([sys.executable, "-S", "-c", MAIN_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=_package_env())
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return code, set(loaded)


def _loaded_through_python_m(argv):
    """(exit code, psibench modules loaded) of ``python -m psibench argv``:
    ``-v`` says ``import 'name'`` as each module loads."""
    proc = subprocess.run([sys.executable, "-v", "-m", "psibench", *argv],
                          capture_output=True, text=True, env=_package_env())
    return proc.returncode, set(re.findall(r"^import '(psibench(?:\.\w+)*)'", proc.stderr,
                                           re.MULTILINE))


@pytest.mark.parametrize("sample, command", ONE_OF_EACH, ids=[c[0] for _, c in ONE_OF_EACH])
def test_each_command_loads_only_its_layers(sample, command):
    argv = [command[0], "--doc", str(SAMPLES / sample), *command[1:]]
    want = COMMAND_BASE | {f"psibench.{m}" for m in COMMAND_LAYERS[command[0]]}
    assert _loaded_through_main(argv) == (0, want)
    assert _loaded_through_python_m(argv) == (0, want)


@pytest.mark.parametrize("sample, command", ONE_OF_EACH, ids=[c[0] for _, c in ONE_OF_EACH])
def test_run_loads_the_command_modules_before_it_freezes(sample, command):
    # COMMANDS lists what the command imports, so nothing loads after the freeze
    argv = [command[0], "--doc", str(SAMPLES / sample), *command[1:]]
    proc = subprocess.run([sys.executable, "-S", "-c", RUN_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=_package_env())
    code, frozen, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0
    assert frozen == [loaded]
    assert set(loaded) == COMMAND_BASE | {f"psibench.{m}" for m in COMMAND_LAYERS[command[0]]}


def test_only_a_document_with_graded_relations_loads_groebner(tmp_path):
    doc = lift_to_document(build_lift(free_polynomial_presentation(2, 4)))
    assert doc["graded_relations"]
    path = tmp_path / "lift.json"
    dump_document(doc, str(path))
    argv = ["verify", "--doc", str(path), "--axioms", "closure"]
    want = COMMAND_BASE | {f"psibench.{m}" for m in COMMAND_LAYERS["verify"] | {"groebner"}}
    assert _loaded_through_main(argv) == (0, want)
    assert _loaded_through_python_m(argv) == (0, want)


def test_the_closure_axiom_computes_no_graded_basis(monkeypatch, capsys):
    # closure reads no degrees, so verify --axioms closure lists none
    doc = str(SAMPLES.parent / "perfbench" / "data" / "product-projective-p3-3-3.json")
    basis, calls = steenrod.graded_basis, []
    monkeypatch.setattr(steenrod, "graded_basis", lambda *a: calls.append(a[1]) or basis(*a))
    assert main(["verify", "--axioms", "closure", "--doc", doc, "--format", "json"]) == 0
    assert calls == []
    assert main(["verify", "--axioms", "closure,adem", "--doc", doc, "--format", "json"]) == 0
    assert calls
    capsys.readouterr()


def _parse(parser, argv, capsys):
    """(exit code, parsed options, stdout, stderr) of one parse."""
    try:
        parsed, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    out = capsys.readouterr()
    return code, parsed, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["atiyah", "--doc", "d", "--element", "x", "--level", "1"],
    ["steenrod", "--doc", "d", "-i", "2", "--element", "x", "--format", "json"],
    ["verify", "--doc", "d", "--axioms", "adem", "--trials", "3", "--seed", "5"],
    ["lift", "--doc", "d", "--kmax", "2", "--out", "o.json", "--truncation", "4"],
    ["fingen", "--doc", "d", "--generators", "x,y", "--max-depth", "0"],
    *([command, "--help"] for command in psibench.cli.COMMANDS),
    *([command] for command in psibench.cli.COMMANDS),
    ["verify", "--doc", "d", "--bogus"],
    ["verify", "--version"],
    ["fingen", "--doc", "d", "--generators", "x", "--max-depth", "-1"],
    ["lift", "--doc", "d", "--format", "yaml"],
])
def test_one_branch_parses_as_the_whole_tree(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    whole = _parse(psibench.cli.build_parser(), argv, capsys)
    assert _parse(psibench.cli.build_parser(argv[0]), argv, capsys) == whole


# sha256 of the exit code, stdout and stderr at 80 columns; none moved when
# main began to build one subcommand's branch of the parser.  verify --help
# was re-recorded (from 1d35280a...) when exactness, additivity and cartan
# left the axiom list, and --trials came to drive welldefined alone.
PARSER_OUTPUTS = [
    (["--help"], "062e3d5aae0e2c059cc975361307be130d12dfaffe524add8ee8c6c2490adea2"),
    (["--version"], "7d1149889c14a9e1dcd1cd603bdc0991bef61164278ae4eb90da756ce6f4b4a3"),
    (["verify", "--help"], "910530f5323f68d87c0162ff5b2354b1dad27878b76c8d7aa26f7ca8040dfbf9"),
    (["verify"], "0fbbcc31bdede92b9c7c40285be865b96ec0153c3bb71668267651c070ab513d"),
    (["bogus"], "262aa16ffa2310994c1475b05a7e1687d4abe2706d3675296b1ca08e61aefe9f"),
    ([], "82ca84627d7914c72a097e284de3c5470acf9bd9d577c6ddaa1d92964dc82659"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help and errors differently across Python "
                           "versions; the hashes are of Python 3.11")
@pytest.mark.parametrize("argv, digest", PARSER_OUTPUTS)
def test_help_version_and_usage_errors_are_pinned(argv, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    text = f"{exc.value.code}|{out.out}\0{out.err}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the same outputs of the process entry, whose parser loads verify's axiom
# list and lift's MAX_KMAX only with their branches; lift --help is pinned as
# it read before the commands loaded their layers lazily
ENTRY_OUTPUTS = [
    *PARSER_OUTPUTS,
    (["lift", "--help"], "ff90017fc1421720fc38ece6ea7f52cd42d82c1b0f415c7e126b089b188e1013"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse words its help and errors differently across Python "
                           "versions; the hashes are of Python 3.11")
@pytest.mark.parametrize("argv, digest", ENTRY_OUTPUTS)
def test_python_m_psibench_help_and_usage_errors_are_pinned(argv, digest):
    proc = subprocess.run([sys.executable, "-m", "psibench", *argv], capture_output=True,
                          env={**_package_env(), "COLUMNS": "80"})
    text = f"{proc.returncode}|{proc.stdout.decode()}\0{proc.stderr.decode()}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
