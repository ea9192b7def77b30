"""The process entry ``cli.run``: ``python -m psibench`` and the ``psibench``
script freeze the start-up heap, then exit with ``main``'s status.

The real ``gc.freeze()`` runs only in child processes: frozen objects stay
out of every later collection, so calling it here would change the rest of
the suite's process."""

import gc
import importlib
import pathlib
import subprocess
import sys

import pytest

import psibench.cli
from psibench.cli import main, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_documents"


def test_the_entry_freezes_the_heap_before_main():
    probe = ("import gc, psibench.cli as c; "
             "c.main = lambda: print(gc.get_freeze_count()) or 0; c.run()")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("status", [0, 1, 2])
def test_run_freezes_then_exits_with_the_status_of_main(status, monkeypatch):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(psibench.cli, "main", lambda: events.append("main") or status)
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == status
    assert events == ["freeze", "main"]


def test_importing_the_main_module_runs_no_command(monkeypatch):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(psibench.cli, "main", lambda: events.append("main") or 0)
    monkeypatch.delitem(sys.modules, "psibench.__main__", raising=False)
    importlib.import_module("psibench.__main__")
    assert events == []


def test_the_installed_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"psibench": "psibench.cli:run"}


@pytest.mark.parametrize("sample, command, status", [
    ("projective-space-p3-n4.json", ["atiyah", "--element", "t + t^2"], 0),
    ("projective-space-p3-n4.json", ["steenrod", "-i", "1", "--element", "t", "--format", "json"], 0),
    ("projective-space-p3-n4.json", ["verify", "--format", "json"], 0),
    ("broken-adem-p3.json", ["verify"], 1),
    ("polynomial-presentation-p2-D6.json", ["lift", "--format", "json"], 0),
    ("power-tower-p3-D81.json", ["fingen", "--generators", "x"], 0),
    ("projective-space-p3-n4.json", ["verify", "--no-such-flag"], 2),
], ids=["atiyah", "steenrod", "verify", "verify-fail", "lift", "fingen", "unknown-flag"])
def test_python_m_psibench_answers_as_main_does(sample, command, status, capsys):
    argv = [command[0], "--doc", str(SAMPLES / sample), *command[1:]]
    proc = subprocess.run([sys.executable, "-m", "psibench", *argv], capture_output=True)
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's refusal
        rc = exc.code
    captured = capsys.readouterr()
    assert (proc.returncode, rc) == (status, status)
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()
