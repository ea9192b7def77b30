"""Command-line front end.

Subcommands load a workbench document, run one construction or verifier
suite, and emit a deterministic report (JSON or text).  Exit status: 0 when
everything passed or was constructed, 1 on a FAIL with witness, 2 on input
errors.

Each command imports its layers inside the function that runs it, so a
command compiles only the modules it runs: ``fingen`` never loads the ring,
splitting, Steenrod, Groebner or lift code, and ``atiyah``, ``steenrod`` and
``verify`` never load the lift or module code.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from importlib import import_module

from . import __version__
from .documents import (algebra_from_document, canonical_json, document_digest,
                        dump_document, lift_to_document, load_document,
                        module_from_document, parse_element,
                        presentation_from_document, validate_document)
from .verdicts import FAIL, Verdict

# Largest --trials, and largest weight of verify's top (the nilpotent bound,
# else 2D) and of an --element's heaviest term; on a shared 2-CPU host
# classify(projective_space_ring(3, 32)) at --trials 32 takes about 1.5 s.
MAX_TRIALS = 32
MAX_WEIGHT = 64


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
    """Load the document and apply the --truncation override; the report
    digest covers the effective document.  ``load_document`` has validated
    the file, so only an overridden document is validated again."""
    doc = load_document(args.doc)
    if args.truncation is None:
        return doc
    return validate_document({**doc, "truncation": args.truncation})


def _element(ring, text: str, mod: int | None = None):
    """The --element expression, refused above MAX_WEIGHT: psi of its
    heaviest term raises the psi images of that term's generators to their
    exponents, so the work grows with its weight.  ``parse_element`` has
    already refused a term above the window 2D."""
    e = parse_element(ring, text, mod=mod)
    if e and (weight := max(e.terms)[0]) > MAX_WEIGHT:
        raise ValueError(f"element term of weight {weight} must be at most MAX_WEIGHT={MAX_WEIGHT}")
    return e


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
    from .atiyah import atiyah_decompose
    doc = _load(args)
    algebra = algebra_from_document(doc)
    element = _element(algebra.ring, args.element)
    if not element:
        raise ValueError("cannot decompose the zero element")
    level = args.level if args.level is not None else int(element.weight() // 2)
    d = atiyah_decompose(algebra, element, level)
    psi = algebra.apply_psi(element)
    for what, e in (("element", element), ("psi", psi), *(
            (f"layer {i}", layer) for i, layer in enumerate(d.layers))):
        c = max(map(abs, e.terms.values()), default=0)
        if c >= 10 ** (limit := sys.get_int_max_str_digits() or math.inf):  # 0: no limit
            digits = int(c.bit_length() * math.log10(2))  # the count, or one less
            raise ValueError(f"{what} has a coefficient of {digits + (c >= 10 ** digits)} "
                             f"digits; Python prints at most sys.get_int_max_str_digits()={limit}")
    report = _base_report("atiyah", doc, None, {
        "element": args.element, "level": level})
    report.update({
        "element": str(element),
        "psi": str(psi),
        "level": d.level,
        "layers": [str(layer) for layer in d.layers],
        # a constant: the band cut makes every splitting exact
        # (``AtiyahDecomposition.problems`` is empty), so no check runs here
        "exact": True,
        "scope": "exact" if not d.truncated else f"valid below weight {2 * algebra.ring.truncation}",
        "status": "OK",
    })
    _emit(report, args.format)
    return 0


def cmd_steenrod(args) -> int:
    from .steenrod import check_closure, gr_class, steenrod_P
    doc = _load(args)
    algebra = algebra_from_document(doc)
    if (w := check_closure(algebra).witness) is not None:
        raise ValueError(f"P^{w['i']} sends the graded relation {w['relation']} to {w['image']}, "
                         "outside the ideal, so P^i of a class depends on its representative")
    rep = _element(algebra.ring, args.element, mod=algebra.p)
    if rep and not rep.is_homogeneous():
        raise ValueError("class expression must be weight-homogeneous")
    degree = rep.weight() if rep else 0
    cls = gr_class(algebra, rep.integer_lift() if rep else algebra.ring.zero(), degree)
    result = steenrod_P(algebra, args.index, cls)
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
    from .steenrod import classify, run_axioms
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most MAX_TRIALS={MAX_TRIALS}, got {args.trials}")
    doc = _load(args)
    algebra = algebra_from_document(doc)
    if (top := algebra.ring.top_weight()) > MAX_WEIGHT:
        raise ValueError(f"top weight {top} must be at most MAX_WEIGHT={MAX_WEIGHT}; "
                         "lower the truncation")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    report = _base_report("verify", doc, seed, {
        "axioms": args.axioms, "trials": args.trials})
    if args.axioms == "all":
        result = classify(algebra, trials=args.trials, seed=seed)
        verdicts = result.verdicts
        report.update(result.to_dict())
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
    from .lift import MAX_KMAX, build_lift
    if args.kmax is not None and args.kmax > MAX_KMAX:
        raise ValueError(f"--kmax must be at most MAX_KMAX={MAX_KMAX}, got {args.kmax}")
    doc = _load(args)
    pres = presentation_from_document(doc)
    report = _base_report("lift", doc, None, {
        "truncation": pres.truncation, "kmax": args.kmax})
    report["verdicts"] = [v.to_dict() for v in pres.validation]
    if not all(v.passed for v in pres.validation):
        report["status"] = FAIL
        _emit(report, args.format)
        return 1
    lift = build_lift(pres, k_max=args.kmax)
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
    from .modules import is_fg_by
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


# each command and the psibench modules it runs, which run() loads before it
# freezes the heap; documents loads groebner for graded relations on demand
COMMANDS = {"atiyah": ("atiyah",), "steenrod": ("steenrod",), "verify": ("steenrod",),
            "lift": ("lift",), "fingen": ("modules",)}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole argparse tree, or with ``command`` only that subcommand's
    branch; its usage line still lists every command."""
    parser = argparse.ArgumentParser(
        prog="psibench",
        description="Workbench for Adams-operation splittings and the induced "
                    "Steenrod operations on mod-p associated graded algebras.")
    parser.add_argument("--version", action="version", version=f"psibench {__version__}")
    every = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)

    def branch(name, help_text, fn):
        """The subcommand's parser with the common options, or None."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--doc", required=True, help="workbench document (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--truncation", type=int, default=None,
                       help="override the document truncation bound D")
        return p

    if p := branch("atiyah", "split psi of an element into weighted layers", cmd_atiyah):
        p.add_argument("--element", required=True, help="element expression, e.g. 'x + 2*x^2'")
        p.add_argument("--level", type=int, default=None,
                       help="target level q (default: weight/2)")

    if p := branch("steenrod", "apply a derived operation to a graded class", cmd_steenrod):
        p.add_argument("--index", "-i", dest="index", type=int, required=True)
        p.add_argument("--element", required=True, help="homogeneous class expression")

    if p := branch("verify", "run axiom verifier suites / classification", cmd_verify):
        from .steenrod import AXIOMS
        p.add_argument("--seed", type=int, default=None,
                       help="trial seed (default: the document's seed, else 0)")
        p.add_argument("--axioms", default="all",
                       help=f"comma list from: {', '.join(a.cli for a in AXIOMS)} (default: all)")
        p.add_argument("--trials", type=int_at_least(1), default=8,
                       help=f"samples for welldefined; at most {MAX_TRIALS}")

    if p := branch("lift", "build the canonical lift of a presentation", cmd_lift):
        from .lift import MAX_KMAX
        p.add_argument("--kmax", type=int_at_least(0), default=None,
                       help=f"psi-iterates to record, at most {MAX_KMAX} (default: from p and D)")
        p.add_argument("--out", default=None, help="write the serialized lift here")

    if p := branch("fingen", "check psi-finite-generation of a module", cmd_fingen):
        p.add_argument("--generators", required=True, help="comma list of symbol names")
        p.add_argument("--max-depth", dest="max_depth", type=int_at_least(0), default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(f"error: {message}\n")
        return 2


def run() -> None:
    """Process entry: ``main`` over a frozen start-up heap, which exit's collections skip.
    The chosen command's modules load first, so the freeze covers them too.
    ``main`` never freezes, since tests and the benchmark tracer call it in process."""
    argv = sys.argv[1:]
    for name in COMMANDS.get(argv[0] if argv else None, ()):
        import_module(f"{__package__}.{name}")
    gc.freeze()
    sys.exit(main())
