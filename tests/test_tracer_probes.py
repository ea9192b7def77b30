"""Every probe of the benchmark's span tracer names a psibench function.

``perfbench/tracer.py`` wraps its probes by name; a renamed or deleted
function would crash the traced benchmark run, so this checks the names
from the tier-1 suite."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
