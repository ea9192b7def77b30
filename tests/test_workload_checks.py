"""Every benchmark workload command meets its known answer.

``perfbench/workloads.py`` builds each workload's command list with a check
resting on the model mathematics alone.  This runs the seed-0 commands
in-process, so a change that breaks a report key or a verdict fails here
rather than in a benchmark run."""

import importlib.util
import json
import pathlib
import sys

import pytest

from psibench.cli import main
from psibench.documents import load_document, module_from_document, module_to_document

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up while it builds the Command class
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not WORKLOADS.is_file(), reason="benchmark workloads not present")
def test_every_workload_command_meets_its_known_answer(tmp_path, monkeypatch, capsys):
    workloads = _workloads(monkeypatch)
    monkeypatch.chdir(workloads.ROOT)  # argv paths are relative to the repo root
    ran = 0
    for name in workloads.WORKLOADS:
        for command in workloads.build(name, 0, tmp_path / name):
            code = main(command.argv)
            out = capsys.readouterr().out
            report = json.loads(out) if out else {}
            assert command.check(code, report) is None, (name, command.name)
            ran += 1
    assert ran > len(workloads.WORKLOADS)


@pytest.mark.skipif(not WORKLOADS.is_file(), reason="benchmark workloads not present")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fingen_module_forests_are_band_splittings(seed, tmp_path, monkeypatch, capsys):
    # each forest writes every child in the band of its layer, so it is the
    # module's band splitting, up to the order of its symbols, and its known
    # answer holds at every seed
    workloads = _workloads(monkeypatch)
    monkeypatch.chdir(workloads.ROOT)
    commands = workloads.build("fingen-modules", seed, tmp_path)
    for command in commands:
        code = main(command.argv)
        assert command.check(code, json.loads(capsys.readouterr().out)) is None, command.name
    forests = sorted(tmp_path.glob("module-*.json"))
    assert len(forests) == 6
    for path in forests:
        doc = load_document(str(path))
        symbols = sorted(doc["symbols"], key=lambda s: (s["weight"], s["id"]))
        assert module_to_document(module_from_document(doc)) == {**doc, "symbols": symbols}
