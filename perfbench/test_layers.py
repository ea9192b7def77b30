"""Layer-coverage self-test of the benchmark.

    python3 -m pytest -q perfbench

A short traced pass of each workload (the commands marked ``quick``) must
reach the layers README.md assigns to it and no layer it predicts idle, and
BENCHMARK.json must list exactly the metrics run.py reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [m for m, unit, _ in tracer.METRICS if unit == "count"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_short_traced_pass_reaches_the_predicted_layers(workload, tmp_path):
    commands = [c for c in workloads.build(workload, 0, tmp_path / "inputs") if c.quick]
    log: list = []
    metrics, notes = run.traced(run.Harness(0, tmp_path), commands, log)
    assert [r["problem"] for r in log if r["problem"]] == []
    spans = notes["layer_spans"]
    for layer in workloads.LAYERS_BY_WORKLOAD[workload]:
        assert spans.get(layer, 0) > 0, f"{workload} never entered {layer}"
    if workload == "classify-projective":
        assert metrics["groebner.build.calls"]["value"] == 0
    if workload != "fingen-modules":
        idle = {m: metrics[m]["value"] for m in COUNT_METRICS
                if m.startswith(("modules.", "normalforms."))}
        assert set(idle.values()) == {0}, idle
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.METRICS)


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0, 40)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
