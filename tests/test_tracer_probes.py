"""Every probe of the benchmark's span tracer names a psibench function.

``perfbench/tracer.py`` wraps its probes by name; a renamed or deleted
function would crash the traced benchmark run, so this checks the names
from the tier-1 suite."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PROBES


@pytest.mark.skipif(not TRACER.is_file(), reason="benchmark tracer not present")
def test_every_tracer_probe_resolves():
    probes = _probes()
    assert probes
    for _, module, attr in probes:
        owner = importlib.import_module(f"psibench.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"psibench.{module}.{attr}"


@pytest.mark.skipif(not TRACER.is_file(), reason="benchmark tracer not present")
def test_every_probed_module_loads_with_the_cli():
    """``install()`` rebinds a probed function only in the psibench modules
    already loaded once ``import psibench.cli`` returns, so a probe in a
    module imported later would silently lose its spans.  This test goes
    when the tracer imports the probe modules itself (ROADMAP item 1)."""
    probed = {f"psibench.{module}" for _, module, _ in _probes()}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, psibench.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert not probed - set(loaded), sorted(probed - set(loaded))
