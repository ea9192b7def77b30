"""Command-line front end.

Subcommands load a workbench document, run one construction or verifier
suite, and emit a deterministic report (JSON or text).  Exit status: 0 when
everything passed or was constructed, 1 on a FAIL with witness, 2 on input
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .atiyah import atiyah_decompose
from .documents import (algebra_from_document, canonical_json, document_digest,
                        dump_document, lift_to_document, load_document,
                        module_from_document, parse_element,
                        presentation_from_document, validate_document)
from .lift import MAX_KMAX, build_lift, default_k_max
from .modules import is_fg_by
from .steenrod import AXIOMS, classify, gr_class, run_axioms
from .verdicts import FAIL, Verdict


def int_at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _base_report(command: str, doc: dict, seed: int | None, parameters: dict) -> dict:
    return {
        "tool": "psibench",
        "version": __version__,
        "report_schema": 1,
        "command": command,
        "input_digest": document_digest(doc),
        "seed": seed,
        "parameters": parameters,
    }


def _load(args) -> dict:
    """Load the document and apply the --prime/--truncation overrides; the
    report digest covers the effective document.  ``load_document`` has
    validated the file, so only an overridden document is validated again."""
    doc = load_document(args.doc)
    overrides = {key: value for key in ("prime", "truncation")
                 if (value := getattr(args, key, None)) is not None}
    return validate_document({**doc, **overrides}) if overrides else doc


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return canonical_json(report) + "\n"
    lines = [f"psibench {report['command']} ({report['version']})",
             f"input: {report['input_digest']}"]
    if report.get("seed") is not None:
        lines.append(f"seed: {report['seed']}")
    for key, value in sorted(report.items()):
        if key in ("tool", "version", "report_schema", "command", "input_digest",
                   "seed", "parameters", "verdicts", "status"):
            continue
        lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    for v in report.get("verdicts", []):
        line = f"  {v['axiom']}: {v['status']} (checked {v['checked']}, skipped {v['skipped_beyond_truncation']})"
        if v.get("witness"):
            line += f" witness={json.dumps(v['witness'], sort_keys=True)}"
        lines.append(line)
    lines.append(f"status: {report.get('status', 'OK')}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str) -> None:
    sys.stdout.write(_render(report, fmt))


def cmd_atiyah(args) -> int:
    doc = _load(args)
    algebra = algebra_from_document(doc)
    element = parse_element(algebra.ring, args.element)
    if not element:
        raise ValueError("cannot decompose the zero element")
    level = args.level if args.level is not None else int(element.weight() // 2)
    d = atiyah_decompose(algebra, element, level)
    problems = d.problems()
    report = _base_report("atiyah", doc, None, {
        "element": args.element, "level": level})
    report.update({
        "element": str(element),
        "psi": str(algebra.apply_psi(element)),
        "level": d.level,
        "layers": [str(layer) for layer in d.layers],
        "exact": not problems,
        "scope": "exact" if not d.truncated else f"valid below weight {2 * algebra.ring.truncation}",
        "status": "OK" if not problems else "INVALID",
    })
    _emit(report, args.format)
    return 0 if not problems else 1


def cmd_steenrod(args) -> int:
    doc = _load(args)
    algebra = algebra_from_document(doc)
    rep = parse_element(algebra.ring, args.element, mod=algebra.p)
    if rep and not rep.is_homogeneous():
        raise ValueError("class expression must be weight-homogeneous")
    if args.degree is not None and args.degree % 2:
        raise ValueError(f"--degree must be even, got {args.degree}")
    degree = args.degree if args.degree is not None else (rep.weight() if rep else 0)
    cls = gr_class(algebra, rep.integer_lift() if rep else algebra.ring.zero(), degree)
    result = algebra.P(args.index, cls)
    report = _base_report("steenrod", doc, None, {
        "element": args.element, "i": args.index, "degree": degree})
    report.update({
        "class": str(cls.rep),
        "degree": degree,
        "result": str(result.rep),
        "result_degree": result.degree,
        "status": "OK",
    })
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    doc = _load(args)
    algebra = algebra_from_document(doc)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    report = _base_report("verify", doc, seed, {
        "axioms": args.axioms, "trials": args.trials})
    if args.axioms == "all":
        result = classify(algebra, trials=args.trials, seed=seed)
        verdicts = result.verdicts
        report["classification"] = result.label
    else:
        names = [a.strip() for a in args.axioms.split(",") if a.strip()]
        if not names:
            raise ValueError(f"--axioms names no axiom: {args.axioms!r}")
        verdicts = run_axioms(algebra, names, args.trials, seed)
    report["verdicts"] = [v.to_dict() for v in verdicts]
    report["status"] = Verdict.merge("verify", verdicts).status
    _emit(report, args.format)
    return 1 if report["status"] == FAIL else 0


def cmd_lift(args) -> int:
    if args.kmax is not None and args.kmax > MAX_KMAX:
        raise ValueError(f"--kmax must be at most MAX_KMAX={MAX_KMAX}, got {args.kmax}")
    doc = _load(args)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    pres = presentation_from_document(doc, validate=False)
    validation = pres.validate(seed=seed)
    report = _base_report("lift", doc, seed, {
        "truncation": pres.truncation, "kmax": args.kmax})
    verdicts = list(validation)
    if all(v.passed for v in verdicts):
        k_max = args.kmax if args.kmax is not None else default_k_max(pres.p, pres.truncation)
        lift = build_lift(pres, k_max=k_max)
        verdicts.extend(lift.verdicts)
    report["verdicts"] = [v.to_dict() for v in verdicts]
    if not all(v.passed for v in verdicts):
        report["status"] = FAIL
        _emit(report, args.format)
        return 1
    report["census"] = {str(k): v for k, v in sorted(lift.census.items())}
    report["k_max"] = lift.k_max
    report["ideal_generators"] = {
        str(k): [str(f) for f in fs] for k, fs in sorted(lift.ideal_generators.items())}
    report["status"] = "CONSTRUCTED"
    if args.out:
        dump_document(lift_to_document(lift), args.out)
        report["serialized_to"] = args.out
    _emit(report, args.format)
    return 0


def cmd_fingen(args) -> int:
    doc = _load(args)
    module = module_from_document(doc)
    gens = [g.strip() for g in args.generators.split(",") if g.strip()]
    if not gens:
        raise ValueError("no generators supplied")
    result = is_fg_by(module, gens, max_depth=args.max_depth)
    report = _base_report("fingen", doc, None, {
        "generators": gens, "max_depth": args.max_depth})
    report.update(result.to_dict())
    report["verdicts"] = [result.verdict.to_dict()]
    report["status"] = result.verdict.status
    _emit(report, args.format)
    return 0 if result.generated else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psibench",
        description="Workbench for Adams-operation splittings and the induced "
                    "Steenrod operations on mod-p associated graded algebras.")
    parser.add_argument("--version", action="version", version=f"psibench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--doc", required=True, help="workbench document (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--prime", type=int, default=None,
                       help="override the document prime")
        p.add_argument("--truncation", type=int, default=None,
                       help="override the document truncation bound D")

    p = sub.add_parser("atiyah", help="split psi of an element into weighted layers")
    common(p)
    p.add_argument("--element", required=True, help="element expression, e.g. 'x + 2*x^2'")
    p.add_argument("--level", type=int, default=None,
                   help="target level q (default: weight/2)")
    p.set_defaults(fn=cmd_atiyah)

    p = sub.add_parser("steenrod", help="apply a derived operation to a graded class")
    common(p)
    p.add_argument("--index", "-i", dest="index", type=int, required=True)
    p.add_argument("--element", required=True, help="homogeneous class expression")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(fn=cmd_steenrod)

    p = sub.add_parser("verify", help="run axiom verifier suites / classification")
    common(p)
    p.add_argument("--axioms", default="all",
                   help=f"comma list from: {', '.join(a.cli for a in AXIOMS)} (default: all)")
    p.add_argument("--trials", type=int_at_least(1), default=8)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("lift", help="build the canonical lift of a presentation")
    common(p)
    p.add_argument("--kmax", type=int_at_least(0), default=None,
                   help=f"psi-iterates to record, at most {MAX_KMAX} (default: from p and D)")
    p.add_argument("--out", default=None, help="write the serialized lift here")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("fingen", help="check psi-finite-generation of a module")
    common(p)
    p.add_argument("--generators", required=True, help="comma list of symbol names")
    p.add_argument("--max-depth", dest="max_depth", type=int_at_least(0), default=None)
    p.set_defaults(fn=cmd_fingen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
