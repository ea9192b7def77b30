"""Every probe of the benchmark's span tracer names a psibench function.

``perfbench/tracer.py`` wraps its probes by name; a renamed or deleted
function would crash the traced benchmark run, so this checks the names
from the tier-1 suite."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# Probed functions that nothing in the package calls: the benchmark times
# them, the program never reaches them, and they go with their probes.
PROBE_ONLY = {"hermite_normal_form", "smith_normal_form", "check_pth_power",
              "check_instability", "check_p0_identity_table", "check_adem_table",
              "atiyah_sum", "atiyah_product"}


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


@pytest.mark.skipif(not TRACER.is_file(), reason="benchmark tracer not present")
def test_only_the_listed_probes_time_code_the_package_never_calls():
    """Every name the package's code reads, as a name or an attribute: a
    ``def`` and an import bind a name without reading it, so neither the
    definition nor the ``__init__`` re-exports count.  Dunder methods run
    through operators and are not looked for."""
    read = set()
    for path in (ROOT / "src" / "psibench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    probed = {attr.split(".")[-1] for _, _, attr in _probes()}
    unread = {name for name in probed - read if not name.startswith("__")}
    assert unread == PROBE_ONLY
