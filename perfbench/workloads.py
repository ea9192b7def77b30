"""The four benchmark workloads: each one's fixed command list, built from
a seed, and the known answer each command is checked against.

Every check is independent of psibench: it rests on the model mathematics
(classification labels, the census of Z/p[x], the Steenrod product formula,
psi as a ring map, generation fixed by construction), computed here with
stdlib integer arithmetic.  README.md says why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"
ROOT = DATA.parent.parent  # children run here, so paths in argv are relative to it


@dataclass
class Command:
    """One psibench CLI invocation and the check of its (exit code, report)."""

    name: str
    argv: list
    check: Callable[[int, dict], str | None]
    quick: bool = False  # part of the short pass the layer self-test runs


def _path(path: Path) -> str:
    return str(path.relative_to(ROOT) if path.is_relative_to(ROOT) else path)


def _doc(name: str) -> str:
    return _path(DATA / f"{name}.json")


def _expect_exit(code: int, want: int) -> str | None:
    return None if code == want else f"exit status {code}, expected {want}"


# -- classify-projective -----------------------------------------------------------
# Products of projective spaces satisfy every axiom (psi(v) = (1+v)^p - 1 is a
# ring map and P^i(t^q) = binom(q, i) t^(q + i(p-1))), so they classify as
# psi-p-algebras.  broken-adem has P^1(x) = 0 but P^2(x) = x^3, which breaks
# P^1 P^1 = 2 P^2 while keeping P^0 = Id: a pre-psi-p algebra and exit 1.

# verify and lift run with psibench's default --seed: the random trial choice
# moves a classify command's work by +-15% (rings.mul.calls 64,757 to 86,908
# over six seeds for p3-n4), which would swamp the bounds.  The workload seed
# drives the oneshot and fingen inputs.
CLASSIFY = (("projective-space-p3-n4", "psi-p-algebra", 0, False),
            ("product-projective-p3", "psi-p-algebra", 0, False),
            ("projective-space-p5-n3", "psi-p-algebra", 0, True),
            ("broken-adem-p3", "pre-psi-p", 1, True))


def _classify_check(label: str, code: int):
    def check(exit_code: int, report: dict) -> str | None:
        return (_expect_exit(exit_code, code)
                or (None if report.get("classification") == label
                    else f"classification {report.get('classification')!r}, expected {label!r}"))
    return check


def classify_projective(rng: random.Random, inputs: Path) -> list:
    return [Command(f"verify-all:{doc}",
                    ["verify", "--axioms", "all", "--trials", "2", "--format", "json",
                     "--doc", _doc(doc)],
                    _classify_check(label, code), quick=quick)
            for doc, label, code, quick in CLASSIFY]


# -- lift-polynomial ---------------------------------------------------------------
# Each document presents Z/p[x] with |x| = 2, so the lift's census is one
# class in every even degree 0, 2, ..., 2D.

LIFTS = (("polynomial-presentation-p2-D6", 6, True),
         ("polynomial-presentation-p2-D8", 8, False),
         ("polynomial-presentation-p3-D12", 12, False))


def _census_check(D: int):
    want = {str(d): 1 for d in range(0, 2 * D + 1, 2)}

    def check(exit_code: int, report: dict) -> str | None:
        if exit_code != 0 or report.get("status") != "CONSTRUCTED":
            return f"exit status {exit_code}, report status {report.get('status')!r}"
        return None if report.get("census") == want else f"census {report.get('census')}"
    return check


def lift_polynomial(rng: random.Random, inputs: Path) -> list:
    return [Command(f"lift:{doc}",
                    ["lift", "--format", "json", "--doc", _doc(doc)],
                    _census_check(D), quick=quick)
            for doc, D, quick in LIFTS]


# -- oneshot-unique ------------------------------------------------------------------
# Z[t,u]/(t^4, u^4) with psi(v) = (1+v)^p - 1 on both variables, p = 3 and 5.

PRODUCTS = (("product-projective-p3-3-3", 3), ("product-projective-p5-3-3", 5))
N_EXP = 3  # both truncated polynomial variables have top power 3
# The exponent sums a+b of each atiyah element's terms (0 is the constant
# term) and the half-degree of each steenrod class are fixed per slot, so
# every seed asks for about the same work; the seed picks the rest.
ATIYAH_SHAPES = ((1,), (0, 2), (1, 3, 5), (2, 4), (3, 6), (2, 3, 4))
STEENROD_HALF_DEGREES = (1, 2, 3, 4, 5, 6)
WELLDEFINED_PER_DOC = 1


def parse_poly(text: str) -> dict:
    """Parse psibench's rendering of an element of Z[t,u] into
    {(a, b): coefficient}."""
    out: dict = {}
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, exps = sign, {"t": 0, "u": 0}
        for factor in term.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, exp = factor.partition("^")
                exps[name] += int(exp or 1)
        key = (exps["t"], exps["u"])
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def render_poly(poly: dict) -> str:
    """The CLI element grammar for {(a, b): coefficient}."""
    parts = []
    for (a, b), c in sorted(poly.items()):
        factors = [f"t^{a}"] * (a > 0) + [f"u^{b}"] * (b > 0)
        mono = "*".join(factors)
        body = f"{abs(c)}*{mono}" if mono and abs(c) != 1 else (mono or str(abs(c)))
        parts.append(("-" if c < 0 else "+", body))
    text = " ".join(f"{s} {body}" for s, body in parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _mul(f: dict, g: dict) -> dict:
    """Product in Z[t,u]/(t^4, u^4)."""
    out: dict = {}
    for (a, b), c in f.items():
        for (x, y), d in g.items():
            if a + x <= N_EXP and b + y <= N_EXP:
                out[(a + x, b + y)] = out.get((a + x, b + y), 0) + c * d
    return out


def psi_of(p: int, elem: dict) -> dict:
    """psi as the ring map t -> (1+t)^p - 1, u -> (1+u)^p - 1."""
    psi_t = {(j, 0): math.comb(p, j) for j in range(1, min(p, N_EXP) + 1)}
    psi_u = {(0, j): math.comb(p, j) for j in range(1, min(p, N_EXP) + 1)}
    out: dict = {}
    for (a, b), c in elem.items():
        term = {(0, 0): c}
        for _ in range(a):
            term = _mul(term, psi_t)
        for _ in range(b):
            term = _mul(term, psi_u)
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: c for k, c in out.items() if c}


def steenrod_of(p: int, i: int, cls: dict) -> dict:
    """P^i(t^a u^b) = sum_{l+k=i} binom(a,l) binom(b,k) t^(a+l(p-1)) u^(b+k(p-1)), mod p."""
    out: dict = {}
    for (a, b), c in cls.items():
        for l in range(i + 1):
            key = (a + l * (p - 1), b + (i - l) * (p - 1))
            if key[0] <= N_EXP and key[1] <= N_EXP:
                out[key] = out.get(key, 0) + c * math.comb(a, l) * math.comb(b, i - l)
    return {k: c % p for k, c in out.items() if c % p}


def _atiyah_check(p: int, elem: dict):
    want = psi_of(p, elem)

    def check(exit_code: int, report: dict) -> str | None:
        if exit_code != 0 or report.get("exact") is not True:
            return f"exit status {exit_code}, exact={report.get('exact')!r}"
        q, layers = report["level"], [parse_poly(s) for s in report["layers"]]
        # psi = sum_i p^(q-i) layers[i]; level 0 has the two layers (r', r^p)
        weights = [p, 1] if q == 0 else [p ** (q - i) for i in range(q + 1)]
        if len(layers) != len(weights):
            return f"{len(layers)} layers at level {q}"
        total: dict = {}
        for weight, layer in zip(weights, layers):
            for k, c in layer.items():
                total[k] = total.get(k, 0) + c * weight
        total = {k: c for k, c in total.items() if c}
        if total != want:
            return f"weighted layer sum {total} differs from psi = {want}"
        return None if parse_poly(report["psi"]) == want else f"reported psi {report['psi']!r}"
    return check


def _steenrod_check(p: int, i: int, cls: dict, degree: int):
    want = steenrod_of(p, i, cls)

    def check(exit_code: int, report: dict) -> str | None:
        if exit_code != 0:
            return f"exit status {exit_code}"
        if report.get("result_degree") != degree + 2 * i * (p - 1):
            return f"result degree {report.get('result_degree')}"
        got = parse_poly(report["result"])
        return None if got == want else f"P^{i} gave {got}, expected {want}"
    return check


def _welldefined_check(exit_code: int, report: dict) -> str | None:
    bad = [v["axiom"] for v in report.get("verdicts", []) if v["status"] == "FAIL"]
    if exit_code != 0 or bad or not report.get("verdicts"):
        return f"exit status {exit_code}, failing verdicts {bad}"
    return None


def _random_element(rng: random.Random, shape: tuple) -> dict:
    """One term t^a u^b per exponent sum a+b in ``shape``, random
    coefficient in +-[1, 9]."""
    elem = {}
    for s in shape:
        a = rng.randint(max(0, s - N_EXP), min(s, N_EXP))
        elem[(a, s - a)] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return elem


def _random_class(rng: random.Random, p: int, half: int) -> dict:
    """A nonzero mod-p combination of the monomials of degree 2*half."""
    monos = [(a, half - a) for a in range(N_EXP + 1) if 0 <= half - a <= N_EXP]
    cls = {m: rng.randrange(p) for m in monos}
    cls[rng.choice(monos)] = rng.randint(1, p - 1)
    return {m: c for m, c in cls.items() if c}


def oneshot_unique(rng: random.Random, inputs: Path) -> list:
    commands = []
    for doc, p in PRODUCTS:
        for k, shape in enumerate(ATIYAH_SHAPES):
            elem = _random_element(rng, shape)
            commands.append(Command(
                f"atiyah:{doc}:{k}",
                ["atiyah", "--format", "json", "--doc", _doc(doc),
                 f"--element={render_poly(elem)}"],
                _atiyah_check(p, elem), quick=k == 0))
        for k, half in enumerate(STEENROD_HALF_DEGREES):
            cls, degree = _random_class(rng, p, half), 2 * half
            i = rng.randint(0, half)
            commands.append(Command(
                f"steenrod:{doc}:{k}",
                ["steenrod", "-i", str(i), "--format", "json", "--doc", _doc(doc),
                 f"--element={render_poly(cls)}"],
                _steenrod_check(p, i, cls, degree), quick=k == 0))
        for k in range(WELLDEFINED_PER_DOC):
            commands.append(Command(
                f"verify-welldefined:{doc}:{k}",
                ["verify", "--axioms", "welldefined", "--trials", "3",
                 "--seed", str(rng.randrange(10**6)), "--format", "json", "--doc", _doc(doc)],
                _welldefined_check, quick=p == 3))
    rng.shuffle(commands)
    return commands


# -- fingen-modules ------------------------------------------------------------------
# A generated psi-module is a forest: every non-root symbol sits in one layer
# i of its parent, in weight parent + 2i(p-1), with a coefficient.  The
# closure from the roots then reaches c * (unit vector) for each symbol, c the
# product of the coefficients on its path, so a symbol is generated iff that
# product is +-1.  The per-weight counts and the abelian generator profile
# follow from the construction.

MODULES = ((2, 40, 60), (3, 45, 60), (5, 60, 60))  # (p, D, symbols)


def _psi_module(rng: random.Random, p: int, D: int, size: int, generated: bool) -> tuple:
    """A forest of fixed shape, so every seed asks for the same work:
    breadth first from r0 (weight 2) and r1 (weight 4), each symbol takes a
    child in layers 1 and 2 while they fit.  The seed picks the names, the
    signs and, when not generated, the edge with a non-unit coefficient."""
    labels = iter(rng.sample(range(10 * size), size))
    weights = {"r0": 2, "r1": 4}
    layers: dict = {"r0": {}, "r1": {}}
    scale = {"r0": 1, "r1": 1}  # product of the coefficients on the path from a root
    queue = ["r0", "r1"]
    while queue and len(weights) < size:
        parent = queue.pop(0)
        w = weights[parent]
        for i in (1, 2):
            # a symbol at level w/2 has layers 0..w/2; children stay in the window
            if len(weights) == size or i > w // 2 or w + 2 * i * (p - 1) > 2 * D:
                continue
            child = f"s{next(labels)}"
            coeff = rng.choice([-1, 1])
            weights[child], layers[child], scale[child] = w + 2 * i * (p - 1), {}, scale[parent] * coeff
            layers[parent][str(i)] = [{"coefficient": coeff, "symbol": child}]
            queue.append(child)
    if not generated:
        # scale one non-root edge by a non-unit: that symbol and its subtree drop out
        parent, i = rng.choice(sorted((n, i) for n, ls in layers.items() for i in ls))
        entry, factor = layers[parent][i][0], rng.choice([2, p])
        entry["coefficient"] *= factor
        stack = [entry["symbol"]]
        while stack:
            name = stack.pop()
            scale[name] *= factor
            stack.extend(e[0]["symbol"] for e in layers[name].values())
    doc = {"kind": "psi-module", "prime": p, "truncation": D,
           "name": f"forest(p={p},{'generated' if generated else 'not generated'})",
           "symbols": [{"id": n, "weight": weights[n], "layers": layers[n]} for n in sorted(weights)]}
    per_weight: dict = {}
    for n, w in weights.items():
        got, total = per_weight.get(w, (0, 0))
        per_weight[w] = (got + (abs(scale[n]) == 1), total + 1)
    return doc, per_weight


def _profile(weights: list, D: int) -> list:
    out = []
    for w in range(0, 2 * D + 1, 2):
        count = sum(1 for x in weights if x <= w)
        if not out or count != out[-1][1]:
            out.append([w, count])
    return out


def _fingen_check(per_weight: dict, D: int):
    generated = all(got == total for got, total in per_weight.values())
    want_weights = {str(w): list(v) for w, v in per_weight.items()}
    weights = [w for w, (_, total) in per_weight.items() for _ in range(total)]

    def check(exit_code: int, report: dict) -> str | None:
        if exit_code != (0 if generated else 1):
            return f"exit status {exit_code}, expected generated={generated}"
        if report.get("per_weight") != want_weights:
            return f"per-weight counts {report.get('per_weight')}, expected {want_weights}"
        if report.get("abelian_generator_profile") != _profile(weights, D):
            return f"profile {report.get('abelian_generator_profile')}"
        return None
    return check


def fingen_modules(rng: random.Random, inputs: Path) -> list:
    tower = {2 * 3**n: (1, 1) for n in range(5)}  # x^(3^n) in weight 2*3^n, n <= 4
    commands = [
        Command("fingen:power-tower:x", ["fingen", "--generators", "x", "--format", "json",
                                         "--doc", _doc("power-tower-p3-D81")],
                _fingen_check(tower, 81), quick=True),
        Command("fingen:power-tower:x^3", ["fingen", "--generators", "x^3", "--format", "json",
                                           "--doc", _doc("power-tower-p3-D81")],
                _fingen_check({w: (int(w > 2), 1) for w in tower}, 81))]
    for p, D, size in MODULES:
        for generated in (True, False):
            doc, per_weight = _psi_module(rng, p, D, size, generated)
            path = inputs / f"module-p{p}-{'gen' if generated else 'nongen'}.json"
            path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
            commands.append(Command(
                f"fingen:{path.stem}",
                ["fingen", "--generators", "r0,r1", "--format", "json", "--doc", _path(path)],
                _fingen_check(per_weight, D), quick=p == 3))
    return commands


# The layers each workload must reach (README.md, "metric -> layer -> workload").
LAYERS_BY_WORKLOAD = {
    "classify-projective": ("rings", "atiyah", "steenrod", "documents", "cli"),
    "lift-polynomial": ("rings", "atiyah", "groebner", "lift", "unstable", "documents", "cli"),
    "oneshot-unique": ("rings", "atiyah", "steenrod", "documents", "cli"),
    "fingen-modules": ("modules", "normalforms", "documents", "cli"),
}

WORKLOADS = {
    "classify-projective": classify_projective,
    "lift-polynomial": lift_polynomial,
    "oneshot-unique": oneshot_unique,
    "fingen-modules": fingen_modules,
}

# Seconds one pass takes on the seed commit, run.py's overhead included.  A run
# makes a fixed number of passes, --seconds / PASS_SECONDS, so parent and
# change measure the same number of samples whatever the host's speed.
PASS_SECONDS = {
    "classify-projective": 4.3,
    "lift-polynomial": 5.0,
    "oneshot-unique": 6.7,
    "fingen-modules": 3.6,
}


def build(workload: str, seed: int, inputs: Path) -> list:
    """The workload's command list for this seed; generated documents go
    under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"), inputs)
