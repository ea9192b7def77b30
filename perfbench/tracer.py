"""Traced child runner and span summary for the per-layer benchmark run.

Run as ``python tracer.py SPANS -- <psibench arguments>``: it wraps the
public functions and methods of each psibench layer from outside, runs
``psibench.cli.main`` under a root span, and at exit writes every span
(name, start, end, parent) to ``SPANS.bin`` plus names and counters to
``SPANS.json``.  run.py turns those files into per-layer
metrics with ``summarize`` and ``layer_metrics``.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, psibench module, function or Class.method) at each layer boundary
PROBES = (
    ("rings.mul", "rings", "Element.__mul__"),
    ("rings.init", "rings", "Element.__init__"),
    ("rings.monomials_of_weight", "rings", "WeightedRing.monomials_of_weight"),
    ("atiyah.decompose", "atiyah", "atiyah_decompose"),
    ("atiyah.product", "atiyah", "atiyah_product"),
    ("atiyah.sum", "atiyah", "atiyah_sum"),
    ("atiyah.verify_welldefined", "atiyah", "verify_welldefined"),
    ("atiyah.apply_psi", "atiyah", "PrePsiAlgebra.apply_psi"),
    ("steenrod.P", "steenrod", "steenrod_P"),
    ("steenrod.graded_basis", "steenrod", "graded_basis"),
    ("steenrod.check.exactness", "steenrod", "check_exactness"),
    ("steenrod.check.adem", "steenrod", "check_adem"),
    ("steenrod.check.additivity", "steenrod", "check_additivity"),
    ("steenrod.check.pth_power", "steenrod", "check_pth_power"),
    ("steenrod.check.instability", "steenrod", "check_instability"),
    ("steenrod.check.cartan", "steenrod", "check_cartan"),
    ("steenrod.check.p0", "steenrod", "check_p0_identity"),
    ("groebner.build", "groebner", "groebner_build"),
    ("groebner.basis_objects", "groebner", "GroebnerBasis.__init__"),
    ("groebner.normal_form", "groebner", "normal_form"),
    ("groebner.is_standard", "groebner", "GroebnerBasis.is_standard"),
    ("lift.enumerate_generators", "lift", "enumerate_generators"),
    ("lift.presentation", "lift", "UnstablePresentation.__init__"),
    ("lift.validate", "lift", "UnstablePresentation.validate"),
    ("lift.build_lift", "lift", "build_lift"),
    ("unstable.apply_P", "unstable", "UnstableAlgebra.apply_P"),
    ("unstable.check_tables", "unstable", "check_p0_identity_table"),
    ("unstable.check_tables", "unstable", "check_adem_table"),
    ("modules.closure", "modules", "closure_enumerate"),
    ("modules.decompose", "modules", "PsiModule.decompose"),
    ("modules.is_fg_by", "modules", "is_fg_by"),
    ("modules.profile", "modules", "abelian_generator_profile"),
    ("normalforms.hnf", "normalforms", "hermite_normal_form"),
    ("normalforms.snf", "normalforms", "smith_normal_form"),
    ("normalforms.in_lattice", "normalforms", "in_lattice"),
    ("documents.load", "documents", "load_document"),
    ("documents.validate", "documents", "validate_document"),
    ("documents.build", "documents", "algebra_from_document"),
    ("documents.build", "documents", "presentation_from_document"),
    ("documents.build", "documents", "module_from_document"),
    ("documents.parse_element", "documents", "parse_element"),
    ("documents.canonical_json", "documents", "canonical_json"),
)
LAYERS = ("rings", "atiyah", "steenrod", "groebner", "lift", "unstable", "modules",
          "normalforms", "documents", "cli")
ROOT_SPAN = "cli.main"

# The per-layer metrics of BENCHMARK.json: (name, unit, better).
METRICS = (
    ("rings.mul.calls", "count", "lower"), ("rings.mul.self_s", "s", "lower"),
    ("rings.init.calls", "count", "lower"), ("rings.init.self_s", "s", "lower"),
    ("rings.terms_kept_ratio", "ratio", "higher"), ("rings.monomials_of_weight.s", "s", "lower"),
    ("atiyah.decompose.calls", "count", "lower"), ("atiyah.decompose.distinct", "count", "lower"),
    ("atiyah.decompose.repeat_ratio", "ratio", "lower"), ("atiyah.decompose.self_s", "s", "lower"),
    ("atiyah.product.calls", "count", "lower"), ("atiyah.product.self_s", "s", "lower"),
    ("atiyah.sum.calls", "count", "lower"), ("atiyah.verify_welldefined.s", "s", "lower"),
    ("atiyah.apply_psi.calls", "count", "lower"), ("atiyah.apply_psi.s", "s", "lower"),
    ("steenrod.P.calls", "count", "lower"), ("steenrod.P.s", "s", "lower"),
    ("steenrod.graded_basis.s", "s", "lower"),
    *((f"steenrod.check.{c}.s", "s", "lower")
      for c in ("exactness", "adem", "additivity", "pth_power", "instability", "cartan", "p0")),
    ("groebner.build.calls", "count", "lower"), ("groebner.build.s", "s", "lower"),
    ("groebner.basis_objects", "count", "lower"),
    ("groebner.normal_form.calls", "count", "lower"), ("groebner.normal_form.s", "s", "lower"),
    ("groebner.is_standard.calls", "count", "lower"), ("groebner.is_standard.s", "s", "lower"),
    ("lift.enumerate_generators.s", "s", "lower"), ("lift.variables", "count", "lower"),
    ("lift.presentation.s", "s", "lower"), ("lift.validate.s", "s", "lower"),
    ("lift.build_lift.s", "s", "lower"),
    ("unstable.apply_P.calls", "count", "lower"), ("unstable.apply_P.s", "s", "lower"),
    ("unstable.check_tables.s", "s", "lower"),
    ("modules.closure.nodes", "count", "lower"), ("modules.closure.s", "s", "lower"),
    ("modules.decompose.calls", "count", "lower"), ("modules.is_fg_by.s", "s", "lower"),
    ("modules.profile.s", "s", "lower"),
    ("normalforms.hnf.calls", "count", "lower"), ("normalforms.hnf.s", "s", "lower"),
    ("normalforms.snf.calls", "count", "lower"), ("normalforms.snf.s", "s", "lower"),
    ("normalforms.in_lattice.calls", "count", "lower"),
    ("documents.load.s", "s", "lower"), ("documents.validate.s", "s", "lower"),
    ("documents.build.s", "s", "lower"), ("documents.parse_element.s", "s", "lower"),
    ("documents.canonical_json.s", "s", "lower"),
    ("cli.main.s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
)


class Recorder:
    """Spans in parallel arrays; index order is start order, so a parent's
    index is always below its children's."""

    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = array.array("b")  # no enclosing span of the same name
        self.active: list = []
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.decompose_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.outer.append(rec.active[nid] == 0)
            rec.end.append(0.0)
            rec.stack.append(idx)
            rec.active[nid] += 1
            rec.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                rec.active[nid] -= 1
                rec.stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, prefix: Path) -> None:
        with open(f"{prefix}.bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end, self.outer):
                arr.tofile(fh)
        counters = dict(self.counters, **{"atiyah.decompose.distinct": len(self.decompose_keys)})
        Path(f"{prefix}.json").write_text(json.dumps(
            {"names": self.names, "count": len(self.name), "counters": counters}))


def _count_terms(rec, args, kwargs, result):
    terms = args[2] if len(args) > 2 else kwargs["terms"]
    rec.counters["rings.terms_offered"] += len(terms)
    rec.counters["rings.terms_kept"] += len(args[0].terms)


def _decompose_key(rec, args, kwargs, result):
    e = args[1] if len(args) > 1 else kwargs["e"]
    q = args[2] if len(args) > 2 else kwargs["q"]
    rec.decompose_keys.add((frozenset(e.terms.items()), q))


def _count_nodes(rec, args, kwargs, result):
    rec.counters["modules.closure.nodes"] += len(result.nodes)


def _count_variables(rec, args, kwargs, result):
    rec.counters["lift.variables"] = max(rec.counters["lift.variables"], len(result))


AFTER = {"rings.init": _count_terms, "atiyah.decompose": _decompose_key,
         "modules.closure": _count_nodes, "lift.enumerate_generators": _count_variables}


def install(rec: Recorder) -> None:
    """Wrap every probe; a function is replaced in every psibench module
    that binds it (``from .atiyah import atiyah_decompose`` binds a second
    name in steenrod and cli), a method on its class."""
    importlib.import_module("psibench.cli")
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "psibench" or n.startswith("psibench."))]
    for name, module, attr in PROBES:
        owner = importlib.import_module(f"psibench.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            bindings = [owner]  # aliases such as __rmul__ = __mul__ live on the class
        else:
            bindings = modules
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, AFTER.get(name))
        for holder in bindings:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)


def summarize(prefix: Path) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans only, so
    recursion is not counted twice) and self seconds (duration minus the
    durations of direct children); plus the child's counters."""
    meta = json.loads(Path(f"{prefix}.json").read_text())
    n = meta["count"]
    arrays = [array.array(t) for t in "iiddb"]
    with open(f"{prefix}.bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name, parent, start, end, outer = arrays
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += end[i] - start[i]
    calls: Counter = Counter()
    incl: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    for i in range(n):
        label = meta["names"][name[i]]
        dur = end[i] - start[i]
        calls[label] += 1
        if outer[i]:
            incl[label] += dur
        self_s[label] += dur - child_time[i]
    return {"calls": dict(calls), "s": dict(incl), "self_s": dict(self_s),
            "counters": meta["counters"]}


def merge(summaries: list) -> dict:
    """Sum command summaries over a pass (``lift.variables`` takes the max)."""
    total = {"calls": Counter(), "s": defaultdict(float), "self_s": defaultdict(float),
             "counters": Counter()}
    for summ in summaries:
        for key in ("calls", "s", "self_s"):
            for label, v in summ[key].items():
                total[key][label] += v
        for label, v in summ["counters"].items():
            if label == "lift.variables":
                total["counters"][label] = max(total["counters"][label], v)
            else:
                total["counters"][label] += v
    return total


def layer_metrics(total: dict, overhead_ratio: float) -> dict:
    """Every metric of METRICS from a merged pass summary."""
    calls, incl, self_s, counters = (total[k] for k in ("calls", "s", "self_s", "counters"))
    decompose_calls = calls.get("atiyah.decompose", 0)
    distinct = counters.get("atiyah.decompose.distinct", 0)
    offered = counters.get("rings.terms_offered", 0)
    derived = {
        "rings.terms_kept_ratio": counters.get("rings.terms_kept", 0) / offered if offered else 0.0,
        "atiyah.decompose.distinct": distinct,
        "atiyah.decompose.repeat_ratio": 1 - distinct / decompose_calls if decompose_calls else 0.0,
        "groebner.basis_objects": calls.get("groebner.basis_objects", 0),
        "lift.variables": counters.get("lift.variables", 0),
        "modules.closure.nodes": counters.get("modules.closure.nodes", 0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        derived[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    out = {}
    for metric, unit, _ in METRICS:
        if metric in derived:
            value = derived[metric]
        else:
            span, _, kind = metric.rpartition(".")
            value = {"calls": calls, "s": incl, "self_s": self_s}[kind].get(span, 0)
        out[metric] = {"value": value, "unit": unit}
    return out


def layer_spans(total: dict) -> dict:
    """Number of spans per layer, for the coverage self-test."""
    out = Counter()
    for label, v in total["calls"].items():
        out[label.split(".")[0]] += v
    return dict(out)


def main(argv: list) -> int:
    prefix, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS -- <psibench arguments>")
    rec = Recorder()
    install(rec)
    cli = sys.modules["psibench.cli"]
    root = rec.wrap(ROOT_SPAN, cli.main)
    try:
        return root(cli_args)
    finally:
        sys.stdout.flush()
        rec.write(Path(prefix))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
