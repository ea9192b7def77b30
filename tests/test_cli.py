import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import psibench.cli
import psibench.documents
import psibench.lift
from psibench.arith import MAX_POWER_BITS
from psibench.cli import main
from psibench.documents import (algebra_to_document, dump_document,
                                module_to_document, presentation_to_document)
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             free_polynomial_presentation, power_tower_module,
                             projective_space_ring)
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
    assert captured.err == ("error: relation references x[9, 9], which is not an "
                            "enumerated variable within the window\n")


def test_lift_of_a_constant_relation_exits_two(tmp_path, capsys):
    doc = presentation_to_document(free_polynomial_presentation(3, 4))
    doc["relations"].append([{"coefficient": 1, "monomial": []}])
    path = tmp_path / "constant-relation.json"
    dump_document(doc, str(path))
    rc = main(["lift", "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: constant relation supplied: 1")
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


# pth-power and instability hold by construction, so the registry dropped them
@pytest.mark.parametrize("name", ["bogus", "pth-power", "instability"])
def test_unknown_axiom_lists_the_registry(docs, name, capsys):
    rc = main(["verify", "--doc", docs["dual-k1.json"], "--axioms", f"adem,{name}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    names = ", ".join(a.cli for a in AXIOMS)
    assert names == "exactness, welldefined, p0, adem, additivity, cartan"
    assert captured.err == f"error: unknown axiom {name!r}; choose from {names}\n"


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
    monkeypatch.setattr(psibench.cli, "validate_document", counting)
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


# Without the element bound, atiyah on x^600 (weight 2400) took about 6 s and
# 150 MB on a 2-CPU host, and on x^2000 did not finish in 30 s: a monomial's
# splitting takes one product per generator factor.
@pytest.mark.parametrize("name, argv, message", [
    ("projective-space-p3-n4.json", ["verify", "--trials", "1000000"],
     "error: --trials must be at most MAX_TRIALS=32, got 1000000"),
    ("broken-adem-p3.json", ["verify", "--truncation", "33"],
     "error: top weight 66 must be at most MAX_WEIGHT=64; lower the truncation"),
    ("broken-adem-p3.json", ["verify", "--truncation", "2000"],
     "error: top weight 4000 must be at most MAX_WEIGHT=64; lower the truncation"),
    (HUGE_PRIME_DOCUMENT, ["verify"],
     "error: p must be a prime integer at most MAX_PRIME=2147483648, got 1000000000000000003"),
    *(("broken-adem-p3.json", [*command, "--truncation", "100000", "--element", element],
       f"error: element term of weight {weight} must be at most MAX_WEIGHT=64")
      for command, element, weight in [(["atiyah"], "x^600", 2400),
                                        (["atiyah"], "x^1000", 4000),
                                        (["atiyah"], "x^2000", 8000),
                                        (["atiyah", "--level", "2"], "x+x^600", 2400),
                                        (["steenrod", "-i", "1"], "x^600", 2400)]),
])
def test_hostile_input_exits_two(name, argv, message, tmp_path, capsys):
    sample = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
    doc = sample / name
    if name == HUGE_PRIME_DOCUMENT:
        data = json.loads((sample / "projective-space-p3-n4.json").read_text())
        doc = tmp_path / name
        doc.write_text(json.dumps({**data, "prime": 1000000000000000003}))
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


@pytest.mark.parametrize("command", [["atiyah", "--element", "1000*t"]])
def test_a_coefficient_power_beyond_the_bit_budget_exits_two(command, tmp_path, capsys):
    # 1000^p alone would be about 2.7 GB at this prime; a tree without the
    # budget fails this module's import of MAX_POWER_BITS before building it
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
    # a unit coefficient has a trivial power and still splits
    assert main(["atiyah", "--doc", path, "--element", "t", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["layers"] == ["t", "0"]


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
    assert captured.err.startswith("error: a sum of 2 terms raised to the power p=10007")
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


def test_a_constant_graded_relation_exits_two(tmp_path, capsys):
    doc = algebra_to_document(projective_space_ring(3, 4))
    doc["graded_relations"] = [[{"coefficient": 1, "monomial": []}]]
    path = tmp_path / "constant-graded-relation.json"
    dump_document(doc, str(path))
    rc = main(["verify", "--doc", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: constant relation supplied: 1")
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


def test_a_window_below_the_nilpotent_top_is_not_exact(capsys):
    # t^5 = 0 puts the top monomial at weight 8; --truncation 2 sees up to 4
    sample = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
    args = ["verify", "--doc", str(sample / "projective-space-p3-n4.json"),
            "--trials", "2", "--truncation", "2", "--format", "json"]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "PASS-UP-TO-TRUNCATION"
    assert report["classification"] == "psi-p-algebra"
    skipped = {v["axiom"]: v["skipped_beyond_truncation"] for v in report["verdicts"]}
    assert all(skipped[name] for name in ("additivity", "cartan", "well-definedness"))
    # every Adem target lies at weight >= 10, above the top monomial: none is counted
    adem = next(v for v in report["verdicts"] if v["axiom"] == "adem")
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
HOSTILE = [
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"], ("symbols", 0, "weight"), 2.0,
     "symbol weights are integers >= 0"),
    ("projective-space-p3-n4.json", VERIFY_P0, ("generators", 0, "weight"), 2.0,
     "generator weights are integers >= 2"),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("generators", 0, "degree"), 2.0,
     "degrees are integers >= 2"),
    ("broken-adem-p3.json", VERIFY_P0, ("generators", 0, "layers"), 7,
     "layers must be an array"),
    ("broken-adem-p3.json", VERIFY_P0, ("generators", 0, "layers"), {},
     "layers must be an array"),
    ("dual-numbers-p3-k1.json", VERIFY_P0, ("monomial_relations",), 3,
     "monomial_relations must be an array"),
    ("dual-numbers-p3-k1.json", VERIFY_P0, ("graded_relations",), 3,
     "graded_relations must be an array"),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("relations",), 1,
     "relations must be an array"),
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
    assert captured.err == f"error: invalid document: {message}\n"


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
