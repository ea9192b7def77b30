import json
import pathlib
import subprocess
import sys
import time

import pytest

import psibench.cli
import psibench.documents
import psibench.lift
from psibench.atiyah import PrePsiAlgebra
from psibench.cli import main
from psibench.documents import (algebra_to_document, dump_document,
                                module_to_document, presentation_to_document)
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             free_polynomial_presentation, power_tower_module)
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


def test_lift_with_a_surviving_iterate_class_fails_without_a_traceback(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "pres-p2.json"
    dump_document(presentation_to_document(free_polynomial_presentation(2, 3)), str(path))
    monkeypatch.setattr(PrePsiAlgebra, "apply_psi", lambda self, e: e)
    out_path = tmp_path / "lift.json"
    rc = main(["lift", "--doc", str(path), "--format", "json", "--out", str(out_path)])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert rc == 1 and captured.err == "" and report["status"] == "FAIL"
    vanishing = report["verdicts"][-1]
    assert vanishing["axiom"] == "ideal-iterate-graded-vanishing"
    assert vanishing["status"] == "FAIL" and vanishing["witness"]["k"] == 1
    assert all(v["status"] != "FAIL" for v in report["verdicts"][:-1])
    assert "census" not in report and not out_path.exists()


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
    (["steenrod", "--doc", "dual-k1.json", "-i", "0", "--element", "e", "--degree", "3"],
     "--degree must be even, got 3"),
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
    assert captured.err == "error: invalid document: 0 is less than the minimum of 1\n"


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
    assert all(skipped[name] for name in ("adem", "additivity", "cartan", "well-definedness"))


def test_a_generator_beyond_the_window_exits_two(capsys):
    sample = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"
    rc = main(["verify", "--doc", str(sample / "dual-numbers-p3-k2.json"),
               "--truncation", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "generator e has weight 4 beyond 2D" in captured.err


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_documents"

# (sample, command, path to a value, the value written there)
HOSTILE = [
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"], ("symbols", 0, "weight"), 2.0),
    ("projective-space-p3-n4.json", ["verify", "--axioms", "p0", "--trials", "1"],
     ("generators", 0, "weight"), 2.0),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("generators", 0, "degree"), 2.0),
    ("broken-adem-p3.json", ["verify", "--axioms", "p0", "--trials", "1"],
     ("generators", 0, "layers"), 7),
    ("broken-adem-p3.json", ["verify", "--axioms", "p0", "--trials", "1"],
     ("generators", 0, "layers"), {}),
    ("dual-numbers-p3-k1.json", ["verify", "--axioms", "p0", "--trials", "1"],
     ("monomial_relations",), 3),
    ("dual-numbers-p3-k1.json", ["verify", "--axioms", "p0", "--trials", "1"],
     ("graded_relations",), 3),
    ("polynomial-presentation-p2-D6.json", ["lift"], ("relations",), 1),
]


@pytest.mark.parametrize("jsonschema_present", [True, False], ids=["jsonschema", "blocked"])
@pytest.mark.parametrize("sample, command, path, value", HOSTILE,
                         ids=[f"{s}:{'/'.join(map(str, p))}={v!r}" for s, _, p, v in HOSTILE])
def test_hostile_values_exit_two_with_a_message(sample, command, path, value,
                                                jsonschema_present, tmp_path,
                                                monkeypatch, capsys):
    if jsonschema_present:
        pytest.importorskip("jsonschema")
    else:
        monkeypatch.setitem(sys.modules, "jsonschema", None)
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
    assert captured.err.startswith("error: invalid document: ")


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


# runs one command, then says on the last stderr line whether jsonschema was imported
IMPORT_PROBE = ("import sys\n"
                "from psibench.cli import main\n"
                "rc = main(sys.argv[1:])\n"
                "print('jsonschema imported:', 'jsonschema' in sys.modules, file=sys.stderr)\n"
                "sys.exit(rc)\n")


def test_a_valid_document_never_imports_jsonschema(tmp_path):
    sample = SAMPLES / "dual-numbers-p3-k1.json"
    args = ["verify", "--axioms", "p0", "--trials", "1", "--doc"]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args, str(sample)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == ["jsonschema imported: False"]
    # the control: a rejected document loads jsonschema to word the message
    pytest.importorskip("jsonschema")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(sample.read_text()), "truncation": 0}))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args, str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: invalid document: 0 is less than the minimum of 1",
        "jsonschema imported: True"]
