"""Filtered abelian groups with a distinguished endomorphism psi, their
splittings into weighted layers, and the finite-generation closure check.

Module elements are integer combinations of basis symbols sitting in even
weights up to the window 2D.  A document writes each symbol's layers at its
own level; the module keeps only their weighted sum, psi of the symbol, so
two documents with one psi are one module.  The splitting of any element at
any level is the weight-band cut of its psi image (``arith.band_cut``), the
one rule ``atiyah_decompose`` applies to ring elements (no multiplicative top
layer here), and psi is the level-0 splitting; no ring code loads.  Generation
is decided weight by weight through exact membership in one sparse incremental
lattice over Z (``normalforms.Lattice``) whose columns are the symbol names.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import add_into, band_cut, validate_prime
from .normalforms import Lattice, in_lattice
from .verdicts import Verdict


class ModuleSymbol(namedtuple("ModuleSymbol", "name weight")):
    __slots__ = ()

    def __new__(cls, name, weight):
        if weight < 0 or weight % 2:
            raise ValueError(f"symbol weights are non-negative even integers, got {weight}")
        return super().__new__(cls, name, weight)


class ModuleElement:
    """An integer combination of module basis symbols."""

    __slots__ = ("module", "coords")

    def __init__(self, module: "PsiModule", coords: dict):
        self.module = module
        self.coords = {name: c for name, c in coords.items() if c}
        for name in self.coords:
            if name not in module._weights:
                raise KeyError(f"unknown module symbol {name!r}")

    @staticmethod
    def _clean(module: "PsiModule", coords: dict) -> "ModuleElement":
        """An element on nonzero coordinates of module symbols, unchecked."""
        self = object.__new__(ModuleElement)
        self.module = module
        self.coords = coords
        return self

    def __bool__(self):
        return bool(self.coords)

    def __eq__(self, other):
        return (isinstance(other, ModuleElement) and self.module is other.module
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.module), tuple(sorted(self.coords.items()))))

    def __add__(self, other):
        if self.module is not other.module:
            raise ValueError("elements live in different modules")
        coords = dict(self.coords)
        add_into(coords, other.coords.items())
        return ModuleElement._clean(self.module, coords)

    def __mul__(self, k: int):
        if k == 1:  # elements are never changed in place, so one can be shared
            return self
        coords = {n: c * k for n, c in self.coords.items()} if k else {}
        return ModuleElement._clean(self.module, coords)

    __rmul__ = __mul__

    def weight(self):
        if not self.coords:
            return float("inf")
        return min(self.module._weights[n] for n in self.coords)

    def __str__(self):
        if not self.coords:
            return "0"
        parts = []
        for name, c in sorted(self.coords.items()):
            parts.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(parts)

    __repr__ = __str__


class PsiModule:
    """Free filtered abelian group on weighted symbols with one psi image each.

    ``layers`` maps each symbol name to a splitting at level weight/2 (length
    weight/2 + 1, layer i of weight >= weight + 2i(p-1)); ``images`` keeps
    only its weighted sum, psi of the symbol.  Symbols lie in the window 2D
    and layers combine symbols, so nothing is clipped: psi is exact.
    """

    def __init__(self, p: int, truncation: int, symbols, layers: dict,
                 name: str = ""):
        self.p = validate_prime(p)
        if truncation <= 0:
            raise ValueError("truncation bound D must be positive")
        self.truncation = truncation
        self.name = name
        syms = sorted(symbols, key=lambda s: (s.weight, s.name))
        if len({s.name for s in syms}) != len(syms):
            raise ValueError("duplicate symbol names")
        for s in syms:
            if s.weight > 2 * truncation:
                raise ValueError(f"symbol {s.name} has weight {s.weight} beyond 2D")
        self.symbols = tuple(syms)
        self._weights = {s.name: s.weight for s in syms}
        self.images = {}
        for s in syms:
            q = s.weight // 2
            if s.name not in layers:
                raise ValueError(f"missing layer data for symbol {s.name}")
            # an empty layer fails neither check and adds nothing, so it is not built
            given = tuple(layers[s.name])
            built = [(i, ModuleElement(self, c)) for i, c in enumerate(given) if c]
            if len(given) != q + 1:
                raise ValueError(
                    f"symbol {s.name} at level {q} needs {q + 1} layers, got {len(given)}")
            image: dict = {}
            for i, layer in built:
                if (w := layer.weight()) < (low := s.weight + 2 * i * (p - 1)):
                    raise ValueError(f"layer {i} of {s.name} has weight {w}, below {low}")
                add_into(image, layer.coords.items(), p ** (q - i))
            self.images[s.name] = image

    def zero(self) -> ModuleElement:
        return ModuleElement._clean(self, {})

    def element(self, coords: dict) -> ModuleElement:
        return ModuleElement(self, coords)

    def basis_element(self, name: str) -> ModuleElement:
        return ModuleElement(self, {name: 1})

    def psi(self, e: ModuleElement) -> ModuleElement:
        """psi(e): the symbols' images added in symbol order."""
        coords: dict = {}
        for name, c in sorted(e.coords.items()):
            add_into(coords, self.images[name].items(), c)
        return ModuleElement._clean(self, coords)

    def decompose(self, e: ModuleElement, q: int) -> tuple:
        """The q + 1 layers of e at level q <= weight(e)/2: ``arith.band_cut``
        of psi(e), as ``atiyah_decompose`` cuts, with layer q the rest.  Band
        i holds only the layers j <= i of a symbol, each carrying
        p^(level-j), so its division by p^(q-i) is exact."""
        if 2 * q > e.weight():
            raise ValueError(f"element has weight {e.weight()}, below 2q={2 * q}")
        bands = band_cut(self.psi(e).coords.items(), self._weights.__getitem__,
                         q, self.p, q + 1, q)
        return tuple(ModuleElement._clean(self, band) for band in bands)


WitnessNode = namedtuple("WitnessNode", "depth element level")


class FgWitness(namedtuple("FgWitness", "nodes")):
    """The closure of the generators: ``nodes`` lists, round by round, the
    nodes that grew the lattice of their level."""

    __slots__ = ()


def closure_enumerate(module: PsiModule, gens, max_depth: int | None = None) -> FgWitness:
    """Depth rounds over one incremental ``Lattice`` per level.  Round 0 is
    the generators; round k splits the nodes that round k-1 kept, and layer
    j of a node at level q is kept at level q + j(p-1) only when inserting it
    grows that level's lattice.  Splitting at a fixed level is
    additive, so a layer inside the lattice is a combination of layers that
    the kept nodes produce: the span matches that of every node within the
    depth.  The rounds stop at ``max_depth`` (default D) or when one grows no
    lattice; each round that goes on strictly grows a sublattice of Z^n at
    one of finitely many levels, so they end without a node bound."""
    if max_depth is None:
        max_depth = max(module.truncation, 1)
    lattices: dict = {}
    nodes: list = []

    def grow(depth, element, level):
        if lattices.setdefault(level, Lattice()).add(element.coords):
            nodes.append(WitnessNode(depth, element, level))

    for g in gens:
        grow(0, module.basis_element(g), module._weights[g] // 2)
    done = 0
    for depth in range(1, max_depth + 1):
        frontier, done = nodes[done:], len(nodes)
        for node in frontier:
            for j, child in enumerate(module.decompose(node.element, node.level)):
                if child:
                    grow(depth, child, node.level + j * (module.p - 1))
        if len(nodes) == done:
            break
    return FgWitness(nodes)


class GenerationReport(namedtuple("GenerationReport", "per_weight verdict profile")):
    """Per-weight comparison of the closure span against the module;
    ``per_weight`` maps a weight to (generated_count, dimension)."""

    __slots__ = ()

    @property
    def generated(self) -> bool:
        return self.verdict.passed

    def to_dict(self) -> dict:
        return {
            "per_weight": {str(w): list(v) for w, v in sorted(self.per_weight.items())},
            "verdict": self.verdict.to_dict(),
            "abelian_generator_profile": [list(x) for x in self.profile],
        }


def is_fg_by(module: PsiModule, gens, max_depth: int | None = None) -> GenerationReport:
    """Decide whether the closure of the generators spans every weight
    component of the module (within the window), via membership of each
    symbol in the lattice all the closure's nodes span."""
    lattice = Lattice()
    for node in closure_enumerate(module, gens, max_depth).nodes:
        lattice.add(node.element.coords)
    per_weight: dict = {}
    witness = None
    for w in sorted({s.weight for s in module.symbols}):
        syms = [s for s in module.symbols if s.weight == w]
        got = 0
        for s in syms:
            if in_lattice(lattice, {s.name: 1}):
                got += 1
            elif witness is None:
                witness = {"weight": w, "symbol": s.name,
                           "rank": got, "needed": len(syms)}
        per_weight[w] = (got, len(syms))
    verdict = Verdict.decide("psi-finite-generation", len(module.symbols), 0, witness)
    return GenerationReport(per_weight, verdict, abelian_generator_profile(module))


def abelian_generator_profile(module: PsiModule) -> list:
    """Cumulative minimal abelian generator counts by weight cutoff.  The
    module is free abelian on its symbols, so the count at a cutoff is the
    number of symbols up to that weight, which changes only at symbol weights."""
    return [(w, sum(1 for s in module.symbols if s.weight <= w))
            for w in sorted({0} | {s.weight for s in module.symbols})]
