"""Load and save workbench documents: UTF-8 JSON, schema-validated.

Polynomial payloads are arrays of {coefficient, monomial} with monomials as
[[generator-id, exponent], ...]; generator ids are plain strings or
{"theta": ..., "indices": [...]} for iterated-operation variables.  The codec
lives in ``rings`` (``poly_to_json``, ``poly_from_json``), so a presentation
reads its relations in the encoding its document holds.  A small
expression grammar (name[indices]^exp products joined by + and -) covers
command-line element input.

Builders import their layer, and only algebra and presentation code imports
``rings``, so a module document compiles no ring, splitting or lift code, and
only a document with graded relations loads ``groebner``.
"""

from __future__ import annotations

import functools
import json
import re
import sys

# the builtin SHA-256 spares every command hashlib's OpenSSL load
try:
    from _sha256 import sha256  # Python 3.11 and earlier
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        from hashlib import sha256


class DocumentError(ValueError):
    """A workbench document does not match the shipped schema."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(f"invalid document: {message}")


def _loader(kind: str):
    """A loader of one kind of document whose refusals of content the schema
    admits read like the schema's own: ``invalid document: <message>``."""
    def wrap(build):
        @functools.wraps(build)
        def load(doc):
            _expect(doc["kind"] == kind, f"expected a {kind} document, got kind={doc['kind']!r}")
            try:
                return build(doc)
            except DocumentError:
                raise
            except (ValueError, KeyError) as exc:
                # str() of a KeyError is the repr of its message
                message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
                raise DocumentError(f"invalid document: {message}") from exc
        return load
    return wrap


def _is_int(value, minimum: int | None = None) -> bool:
    # booleans and integral floats are not integers in a document
    return type(value) is int and (minimum is None or value >= minimum)


def _is_name(value) -> bool:
    return isinstance(value, str) and value != ""


def _check_array(value, check_item, message: str) -> None:
    _expect(isinstance(value, list), message)
    for item in value:
        check_item(item)


def _check_generator_id(gid) -> None:
    if isinstance(gid, str):
        _expect(bool(gid), "generator ids must be non-empty")
        return
    _expect(isinstance(gid, dict) and set(gid) == {"theta", "indices"},
            "multi-index ids need exactly the keys theta and indices")
    _expect(_is_name(gid["theta"]), "theta must be a non-empty string")
    _expect(isinstance(gid["indices"], list) and all(_is_int(i, 0) for i in gid["indices"]),
            "indices must be non-negative integers")


def _check_monomial(mono) -> None:
    _expect(isinstance(mono, list), "monomials are arrays of [id, exponent] pairs")
    for pair in mono:
        _expect(isinstance(pair, list) and len(pair) == 2, "bad monomial entry")
        _check_generator_id(pair[0])
        _expect(_is_int(pair[1], 1), "exponents are positive integers")


def _check_polynomial(poly) -> None:
    _expect(isinstance(poly, list), "polynomials are arrays of terms")
    for term in poly:
        _expect(isinstance(term, dict) and set(term) == {"coefficient", "monomial"},
                "terms need exactly coefficient and monomial")
        _expect(_is_int(term["coefficient"]), "coefficients are integers")
        _check_monomial(term["monomial"])


def _check_algebra_generator(g) -> None:
    _expect(isinstance(g, dict) and set(g) == {"id", "weight", "layers"},
            "generators need exactly id, weight and layers")
    _check_generator_id(g["id"])
    _expect(_is_int(g["weight"], 2), "generator weights are integers >= 2")
    _check_array(g["layers"], _check_polynomial, "layers must be an array")


def _check_presentation_generator(g) -> None:
    _expect(isinstance(g, dict) and set(g) == {"theta", "degree"},
            "presentation generators need exactly theta and degree")
    _expect(_is_name(g["theta"]), "theta must be a non-empty string")
    _expect(_is_int(g["degree"], 2), "degrees are integers >= 2")


# the schema's layer-key pattern, matched as JSON Schema matches it (re.search)
_LAYER_KEY = re.compile(r"^[0-9]+$")


def _check_module_term(entry) -> None:
    _expect(isinstance(entry, dict) and set(entry) == {"coefficient", "symbol"},
            "module terms need exactly coefficient and symbol")
    _expect(_is_int(entry["coefficient"]), "coefficients are integers")
    _expect(_is_name(entry["symbol"]), "symbols are non-empty strings")


def _check_module_symbol(s) -> None:
    _expect(isinstance(s, dict) and set(s) == {"id", "weight", "layers"},
            "symbols need exactly id, weight and layers")
    _expect(_is_name(s["id"]), "symbol ids are non-empty strings")
    _expect(_is_int(s["weight"], 0), "symbol weights are integers >= 0")
    _expect(isinstance(s["layers"], dict), "layers are an index-keyed object")
    for key, modelem in s["layers"].items():
        _expect(isinstance(key, str) and _LAYER_KEY.search(key) is not None,
                "layer keys are stringified indices")
        _check_array(modelem, _check_module_term, "module elements are term arrays")


def validate_document(doc: dict) -> dict:
    """Check ``doc`` against the shipped schema and return it.

    These checks follow ``schema/workbench.schema.json``, except that an
    integral float such as ``2.0`` is not an integer here; they decide
    validity and word every rejection.  The tests hold them to a JSON
    Schema validator as an oracle, and the schema to its meta-schema."""
    # an optional key is read with a valid default, so only a present key can fail
    _expect(isinstance(doc, dict), "document must be a JSON object")
    kind = doc.get("kind")
    _expect(kind in ("pre-psi-algebra", "presentation", "psi-module"),
            f"unknown kind {kind!r}")
    _expect(_is_int(doc.get("prime"), 2), "prime must be an integer >= 2")
    _expect(_is_int(doc.get("truncation"), 1), "truncation must be a positive integer")
    _expect(_is_int(doc.get("seed", 0)), "seed must be an integer")
    _expect(isinstance(doc.get("name", ""), str), "name must be a string")
    if kind == "pre-psi-algebra":
        _check_array(doc.get("generators"), _check_algebra_generator,
                     "generators must be an array")
        _check_array(doc.get("monomial_relations", []), _check_monomial,
                     "monomial_relations must be an array")
        _check_array(doc.get("graded_relations", []), _check_polynomial,
                     "graded_relations must be an array")
        _expect(isinstance(doc.get("presentation", {}), dict), "presentation must be an object")
        _expect(isinstance(doc.get("census", {}), dict), "census must be an object")
        _expect(_is_int(doc.get("k_max", 0)), "k_max must be an integer")
    elif kind == "presentation":
        _check_array(doc.get("generators"), _check_presentation_generator,
                     "generators must be an array")
        _check_array(doc.get("relations", []), _check_polynomial, "relations must be an array")
        _expect(_is_int(doc.get("max_zero_indices", 1), 0),
                "max_zero_indices must be an integer >= 0")
    else:
        _check_array(doc.get("symbols"), _check_module_symbol, "symbols must be an array")
    return doc


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise DocumentError("invalid document: JSON nested too deeply") from None
    return validate_document(doc)


def dump_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
        fh.write("\n")


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)


def document_digest(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return "sha256:" + sha256(payload).hexdigest()


# -- element expressions ----------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)(?:\[(?P<idx>[0-9,\s]*)\])?"
    r"|(?P<op>[-+*^]))")


def _literal(digits: str) -> int:
    """A decimal literal, refused above ``sys.get_int_max_str_digits()``."""
    if (limit := sys.get_int_max_str_digits()) and len(digits) > limit:
        raise ValueError(f"integer literal of {len(digits)} digits; Python reads at most "
                         f"sys.get_int_max_str_digits()={limit}")
    return int(digits)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse element expression at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("int") is not None:
            tokens.append(("int", _literal(m.group("int"))))
        elif m.group("name") is not None:
            idx = m.group("idx")
            indices = (tuple(_literal(s.strip()) for s in idx.split(",") if s.strip())
                       if idx is not None else ())
            tokens.append(("var", (m.group("name"), indices)))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def parse_element(ring: WeightedRing, text: str, mod: int | None = None) -> Element:
    """Parse expressions like ``2*x^3 + x[1,2] - 7``.  A term above the
    window 2D is refused before it is built, rather than dropped."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty element expression")
    total = ring.zero(mod)
    i = 0

    def parse_factor(i: int, weight: int):
        """The factor at token i, the weight of its term up to it, and the
        next index."""
        kind, val = tokens[i]
        if kind == "int":
            return ring.scalar(val, mod), weight, i + 1
        if kind != "var":
            raise ValueError(f"unexpected token {val!r} in element expression")
        symbol, exp, i = ring.symbol(*val), 1, i + 1
        if i + 1 < len(tokens) and tokens[i] == ("op", "^"):
            kind, exp = tokens[i + 1]
            if kind != "int":
                raise ValueError("exponent must be an integer literal")
            i += 2
        weight += symbol.weight * exp
        if weight > ring.max_weight:
            raise ValueError(f"element term of weight {weight} lies above the window "
                             f"2D={ring.max_weight}")
        return ring.var(symbol, mod) ** exp, weight, i

    sign = 1
    if tokens[0] == ("op", "-"):
        sign = -1
        i = 1
    elif tokens[0] == ("op", "+"):
        i = 1
    while i < len(tokens):
        term, weight, i = parse_factor(i, 0)
        while i < len(tokens) and tokens[i] == ("op", "*"):
            factor, weight, i = parse_factor(i + 1, weight)
            term = term * factor
        total = total + term * sign
        if i == len(tokens):
            break
        kind, op = tokens[i]
        if (kind, op) == ("op", "+"):
            sign = 1
        elif (kind, op) == ("op", "-"):
            sign = -1
        else:
            raise ValueError(f"expected + or - between terms, got {op!r}")
        i += 1
        if i == len(tokens):
            raise ValueError("element expression ends with an operator")
    return total


# -- pre-psi-algebra documents ---------------------------------------------------------


@_loader("pre-psi-algebra")
def algebra_from_document(doc: dict) -> PrePsiAlgebra:
    from .atiyah import PrePsiAlgebra
    from .rings import GeneratorSymbol, WeightedRing, id_from_json, poly_from_json
    p = doc["prime"]
    D = doc["truncation"]
    symbols = []
    for g in doc["generators"]:
        name, indices = id_from_json(g["id"])
        symbols.append(GeneratorSymbol(name, indices, g["weight"]))
    probe = WeightedRing(symbols, D)
    relations = [[(probe.symbol(*id_from_json(gid)), e) for gid, e in m]
                 for m in doc.get("monomial_relations", [])]
    ring = WeightedRing(symbols, D, relations)
    # a document writes sigma + 1 layers; the written top must equal the algebra's g^p
    psi_data, tops = {}, {}
    for sym, g in zip(symbols, doc["generators"]):
        layers = [poly_from_json(ring, layer) for layer in g["layers"]]
        _expect(len(layers) == sym.weight // 2 + 1, f"generator {sym} has weight {sym.weight}; "
                f"expected {sym.weight // 2 + 1} layers, got {len(layers)}")
        psi_data[sym.key], tops[sym] = layers[:-1], layers[-1]
    graded = [poly_from_json(ring, r, mod=p) for r in doc.get("graded_relations", [])]
    gb = None
    if any(graded):
        from .groebner import groebner_build
        gb = groebner_build(graded, p)
    algebra = PrePsiAlgebra(ring, p, psi_data, graded_gb=gb, name=doc.get("name", ""))
    for sym, top in tops.items():
        _expect(top == algebra.psi_data[sym.key][-1], f"top layer of {sym} must equal {sym}^{p}")
    return algebra


def algebra_to_document(algebra: PrePsiAlgebra) -> dict:
    return validate_document(_algebra_fields(algebra))


def _algebra_fields(algebra: PrePsiAlgebra) -> dict:
    from .rings import id_to_json, poly_to_json
    ring = algebra.ring
    doc = {
        "kind": "pre-psi-algebra",
        "prime": algebra.p,
        "truncation": ring.truncation,
        "generators": [
            {"id": id_to_json(g), "weight": g.weight,
             "layers": [poly_to_json(layer) for layer in algebra.psi_data[g.key]]}
            for g in ring.generators
        ],
    }
    if ring.monomial_relations:
        doc["monomial_relations"] = [
            [[id_to_json(g), e] for g, e in ring.symbol_pairs(m)]
            for m in ring.monomial_relations]
    if algebra.graded_gb is not None:
        doc["graded_relations"] = [poly_to_json(b) for b in algebra.graded_gb]
    if algebra.name:
        doc["name"] = algebra.name
    return doc


# -- presentation documents --------------------------------------------------------------


@_loader("presentation")
def presentation_from_document(doc: dict) -> UnstablePresentation:
    from .lift import UnstablePresentation
    generators = [(g["theta"], g["degree"]) for g in doc["generators"]]
    return UnstablePresentation(
        doc["prime"], generators, doc.get("relations", []), doc["truncation"],
        max_zeros=doc.get("max_zero_indices", 1),
        name=doc.get("name", ""))


def presentation_to_document(pres: UnstablePresentation) -> dict:
    return validate_document(_presentation_fields(pres))


def _presentation_fields(pres: UnstablePresentation) -> dict:
    from .rings import poly_to_json
    doc = {
        "kind": "presentation",
        "prime": pres.p,
        "truncation": pres.truncation,
        "generators": [{"theta": t, "degree": d} for t, d in pres.generators],
        "relations": [poly_to_json(r) for r in pres.relations],
        "max_zero_indices": pres.max_zeros,
    }
    if pres.name:
        doc["name"] = pres.name
    return doc


def lift_to_document(lift: Lift) -> dict:
    """A lift serializes as a pre-psi-algebra document (reloadable by the
    verify command) with the presentation and census attached; it is
    validated once, as a whole."""
    doc = _algebra_fields(lift.pi)
    doc["presentation"] = _presentation_fields(lift.presentation)
    doc["census"] = {str(k): v for k, v in sorted(lift.census.items())}
    doc["k_max"] = lift.k_max
    doc["name"] = lift.presentation.name or "lift"
    return validate_document(doc)


# -- psi-module documents ------------------------------------------------------------------


@_loader("psi-module")
def module_from_document(doc: dict) -> PsiModule:
    from .modules import ModuleSymbol, PsiModule
    symbols = [ModuleSymbol(s["id"], s["weight"]) for s in doc["symbols"]]
    layer_coords = {}
    for s in doc["symbols"]:
        q = s["weight"] // 2
        layers = [{} for _ in range(q + 1)]
        named: dict = {}
        for key, modelem in s["layers"].items():
            i = int(key)
            # the schema admits "1", "01" and "1\n" alike; one layer, one key
            _expect(i not in named, f"symbol {s['id']!r} names layer {i} twice, "
                                    f"as {named.get(i)!r} and {key!r}")
            named[i] = key
            _expect(i <= q, f"symbol {s['id']!r} at level {q} has a layer index {i}")
            coords: dict = {}
            for entry in modelem:
                coords[entry["symbol"]] = coords.get(entry["symbol"], 0) + entry["coefficient"]
            layers[i] = coords
        layer_coords[s["id"]] = layers
    return PsiModule(doc["prime"], doc["truncation"], symbols, layer_coords,
                     name=doc.get("name", ""))


def module_to_document(module: PsiModule) -> dict:
    """The document of a module, each symbol written as its band splitting
    at its own level (``PsiModule.decompose``)."""
    doc = {
        "kind": "psi-module",
        "prime": module.p,
        "truncation": module.truncation,
        "symbols": [],
    }
    for s in module.symbols:
        split = module.decompose(module.basis_element(s.name), s.weight // 2)
        layers = {str(i): [{"coefficient": c, "symbol": n} for n, c in sorted(layer.coords.items())]
                  for i, layer in enumerate(split) if layer}
        doc["symbols"].append({"id": s.name, "weight": s.weight, "layers": layers})
    if module.name:
        doc["name"] = module.name
    return validate_document(doc)
