import math
import random
from collections import deque

import pytest
from dense_lattice import dense_closure, dense_hnf, dense_in_lattice, dense_vector, pivots
from splitting_calculus import horner

from psibench.models import power_tower_module
from psibench.modules import (ModuleElement, ModuleSymbol, PsiModule,
                              abelian_generator_profile, closure_enumerate, is_fg_by)
from psibench.normalforms import Lattice, hermite_normal_form, in_lattice, smith_normal_form


# -- integer normal forms ------------------------------------------------------------

def lattice_of(rows) -> Lattice:
    lattice = Lattice()
    for r in rows:
        lattice.add(dict(enumerate(r)))
    return lattice


def test_hnf_known_lattice():
    rows = [[2, 0], [0, 2], [1, 1]]
    assert hermite_normal_form(rows) == [[1, 1], [0, 2]]
    lattice = lattice_of(rows)
    assert in_lattice(lattice, {0: 1, 1: 1})
    assert in_lattice(lattice, {0: 2})
    assert in_lattice(lattice, {1: 2})
    assert not in_lattice(lattice, {0: 1})
    assert not in_lattice(lattice, {1: 1})


def test_hnf_empty_and_zero():
    assert hermite_normal_form([]) == []
    assert hermite_normal_form([[0, 0]]) == []
    assert in_lattice(Lattice(), {0: 0, 1: 0})
    assert not in_lattice(Lattice(), {0: 1, 1: 0})
    assert not Lattice().add({0: 0})


def test_hnf_pivots_positive_and_reduced():
    hnf = hermite_normal_form([[4, 2, 0], [6, 3, 9], [0, 0, 3]])
    for (i, j) in pivots(hnf):
        assert hnf[i][j] > 0
        for above in range(i):
            assert 0 <= hnf[above][j] < hnf[i][j]


def test_pivots_skip_leading_zero_columns():
    hnf = hermite_normal_form([[0, 2, 1], [0, 0, 3]])
    assert hnf == [[0, 2, 1], [0, 0, 3]]
    assert pivots(hnf) == [(0, 1), (1, 2)]


def test_smith_invariant_factors():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0]]) == []
    assert smith_normal_form([[6]]) == [6]
    fs = smith_normal_form([[2, 0, 0], [0, 6, 0], [0, 0, 15]])
    assert fs == [1, 6, 30]  # divisibility chain, product preserved
    for a, b in zip(fs, fs[1:]):
        assert b % a == 0


# -- psi-modules --------------------------------------------------------------------

class WrittenModule(PsiModule):
    """A module that also keeps the layers its data wrote, which the module
    itself reduces to one psi image per symbol: the oracles read them."""

    def __init__(self, p, D, symbols, layers):
        super().__init__(p, D, symbols, layers)
        self.written = {s.name: tuple(ModuleElement(self, c) for c in layers[s.name])
                        for s in self.symbols}


def weighted_sum(module, layers):
    """sum_i p^(q-i) * layers[i], q = len(layers) - 1."""
    return horner(layers, module.p, 0)[0]


def written_psi(module, e):
    """psi(e) from the written layers: the weighted sum of each symbol's."""
    out = module.zero()
    for name, c in e.coords.items():
        out = out + weighted_sum(module, module.written[name]) * c
    return out


def band_problems(module, e, layers):
    """Each clause of the band splitting of e at level q = len(layers) - 1
    that the layers break: their weighted sum is psi(e), layer i < q lies in
    weights [2q + 2i(p-1), 2q + 2(i+1)(p-1)) and layer q in weights
    >= 2q + 2q(p-1)."""
    p, q = module.p, len(layers) - 1
    out = []
    if weighted_sum(module, layers) != written_psi(module, e):
        out.append("weighted layer sum differs from psi(source)")
    for i, layer in enumerate(layers):
        low, high = 2 * q + 2 * i * (p - 1), 2 * q + 2 * (i + 1) * (p - 1)
        for name in sorted(layer.coords):
            w = module._weights[name]
            if w < low or (i < q and w >= high):
                out.append(f"layer {i} has {name} of weight {w}")
    return out


def fixed_point_module(p=3):
    """Single symbol m at weight 4 with psi(m) = p^2 * m: layers (m, 0, 0)."""
    sym = ModuleSymbol("m", 4)
    return WrittenModule(p, 4, [sym], {"m": [{"m": 1}, {}, {}]})


def test_module_psi_and_decompose():
    M = fixed_point_module()
    m = M.basis_element("m")
    assert M.psi(m) == m * 9
    layers = M.decompose(m * 5, 2)
    assert layers == (m * 5, M.zero(), M.zero())
    assert band_problems(M, m * 5, layers) == []
    shifted = M.decompose(m, 1)
    assert shifted == (m * 3, M.zero())  # band 0 at level 1 is [2, 6)
    assert band_problems(M, m, shifted) == []
    assert M.decompose(m, 0) == (M.psi(m),)


def test_module_problems_report_each_broken_contract():
    # psi(m) = 9m; each hand-built splitting breaks exactly one clause
    M = fixed_point_module()
    m, z = M.basis_element("m"), M.zero()
    assert band_problems(M, m, (m * 2, z, z)) == ["weighted layer sum differs from psi(source)"]
    assert band_problems(M, m, (z, m * 3, z)) == ["layer 1 has m of weight 4"]  # needs [8, 12)
    assert band_problems(M, m, (z, m * 9)) == ["layer 1 has m of weight 4"]  # a top at level 1 needs >= 6


def test_module_symbol_validation():
    for weight in (3, -2):
        with pytest.raises(ValueError, match="non-negative even"):
            ModuleSymbol("m", weight)
    assert ModuleSymbol("m", 0).weight == 0


def test_module_layer_validation():
    sym = ModuleSymbol("m", 4)
    with pytest.raises(ValueError, match=r"^symbol m at level 2 needs 3 layers, got 2$"):
        PsiModule(3, 4, [sym], {"m": [{}, {}]})
    # a nonempty layer is checked wherever it sits among empty ones
    with pytest.raises(ValueError, match=r"^layer 1 of m has weight 4, below 8$"):
        PsiModule(3, 4, [sym], {"m": [{}, {"m": 1}, {}]})
    with pytest.raises(ValueError, match="beyond 2D"):
        PsiModule(3, 1, [sym], {"m": [{}, {}, {}]})    # symbol beyond window
    with pytest.raises(KeyError):
        fixed_point_module().element({"zz": 1})
    # every symbol check comes before the count check and the weight checks
    with pytest.raises(KeyError, match="unknown module symbol 'zz'"):
        PsiModule(3, 4, [sym], {"m": [{}, {"m": 1}, {}, {"zz": 1}]})
    M = PsiModule(3, 4, [sym], {"m": [{"m": 1}, {"m": 0, "zz": 0}, {}]})  # zeros drop
    assert M.images == {"m": {"m": 9}}


def test_closure_fixed_point_is_singleton():
    M = fixed_point_module()
    wit = closure_enumerate(M, ["m"])
    assert [n.element for n in wit.nodes] == [M.basis_element("m")]


def test_closure_empty_generators():
    M = fixed_point_module()
    assert closure_enumerate(M, []).nodes == []


def test_power_tower_closure_and_generation():
    for p in (2, 3):
        D = p**3
        M = power_tower_module(p, D)
        wit = closure_enumerate(M, ["x"])
        names = [str(n.element) for n in wit.nodes]
        assert names == ["x"] + [f"x^{p ** n}" for n in range(1, 4)]
        report = is_fg_by(M, ["x"])
        assert report.generated
        assert all(got == dim for got, dim in report.per_weight.values())


def test_power_tower_not_generated_by_higher_power():
    for p in (2, 3):
        M = power_tower_module(p, p**3)
        report = is_fg_by(M, [f"x^{p}"])
        assert not report.generated
        assert report.verdict.witness == {
            "weight": 2, "symbol": "x", "rank": 0, "needed": 1}


def test_free_rank_one_generated_by_basis():
    M = fixed_point_module()
    assert is_fg_by(M, ["m"]).generated


def test_profile_counts_and_growth():
    for p in (2, 3):
        for D in (p, p**2, p**3, p**4):
            M = power_tower_module(p, D)
            profile = abelian_generator_profile(M)
            assert profile[-1][1] == math.floor(math.log(D, p)) + 1
        counts = [abelian_generator_profile(power_tower_module(p, p**k))[-1][1]
                  for k in range(1, 5)]
        assert counts == sorted(counts) and len(set(counts)) == 4


def test_generation_monotone_in_window():
    # a verdict at D implies the verdict at every smaller window
    p = 3
    for small, large in ((p, p**2), (p**2, p**4)):
        rep_small = is_fg_by(power_tower_module(p, small), ["x"])
        rep_large = is_fg_by(power_tower_module(p, large), ["x"])
        assert rep_large.generated and rep_small.generated
        for w, (got, dim) in rep_small.per_weight.items():
            assert rep_large.per_weight[w] == (got, dim)


def test_trivial_profile():
    sym = ModuleSymbol("m", 2)
    M = PsiModule(2, 3, [sym], {"m": [{}, {}]})
    profile = abelian_generator_profile(M)
    assert profile[0] == (0, 0) and profile[-1][1] == 1


def test_closure_terminates_on_scaling_chains():
    # psi(m) = 2 p^q m: the chain m, 2m, 4m, ... stays in the lattice that m
    # spans, so the first round grows nothing
    sym = ModuleSymbol("m", 4)
    M = PsiModule(3, 4, [sym], {"m": [{"m": 2}, {}, {}]})
    wit = closure_enumerate(M, ["m"], max_depth=5)
    assert [n.element for n in wit.nodes] == [M.basis_element("m")]
    assert is_fg_by(M, ["m"], max_depth=5).generated


# -- the lattice closure against the node closure -----------------------------------

def node_closure_per_weight(module, gens, max_depth=None):
    """Reference: expand every distinct (element, level) node breadth first
    up to the depth, then count per weight the unit vectors in the span of
    all nodes."""
    if max_depth is None:
        max_depth = max(module.truncation, 1)
    queue = deque()
    seen = set()
    for g in gens:
        e = module.basis_element(g)
        queue.append((0, e, e.weight() // 2))
        seen.add((str(e), e.weight() // 2))
    rows = []
    while queue:
        depth, e, level = queue.popleft()
        rows.append(dense_vector(e))
        if depth >= max_depth:
            continue
        for j, child in enumerate(module.decompose(e, level)):
            key = (str(child), level + j * (module.p - 1))
            if child and key not in seen:
                seen.add(key)
                queue.append((depth + 1, child, key[1]))
    hnf = dense_hnf(rows)
    per_weight = {}
    for s in module.symbols:
        unit = [int(t.name == s.name) for t in module.symbols]
        got, dim = per_weight.get(s.weight, (0, 0))
        per_weight[s.weight] = (got + dense_in_lattice(hnf, unit), dim + 1)
    return per_weight


def random_forest(seed, p, D, size, generated):
    """Roots r0 (weight 2) and r1 (weight 4); each further symbol hangs with
    a unit coefficient in a random layer of an earlier one.  Some layers also
    take a later symbol, so layers are sums and the graph is a DAG (the node
    closure stays finite); when not generated, one edge is scaled by 2 or p."""
    rng = random.Random(seed)
    weights = {"r0": 2, "r1": 4}
    layers = {"r0": {}, "r1": {}}
    order = ["r0", "r1"]
    while len(order) < size:
        parent = rng.choice(order)
        w = weights[parent]
        i = rng.randrange(min(w // 2, 3) + 1)
        child_weight = w + 2 * i * (p - 1)
        if i in layers[parent] or child_weight > 2 * D:
            continue
        child = f"s{len(order)}"
        weights[child], layers[child] = child_weight, {}
        layers[parent][i] = {child: rng.choice([-1, 1])}
        order.append(child)
    for n, parent in enumerate(order):
        for i, layer in layers[parent].items():
            floor = weights[parent] + 2 * i * (p - 1)
            later = [s for s in order[n + 1:] if weights[s] >= floor and s not in layer]
            if later and rng.random() < 0.3:
                layer[rng.choice(later)] = rng.choice([-2, -1, 1, 3])
    if not generated:
        parent, i = rng.choice([(s, i) for s in order for i in layers[s]])
        child = next(iter(layers[parent][i]))
        layers[parent][i][child] *= rng.choice([2, p])
    data = {s: [layers[s].get(i, {}) for i in range(weights[s] // 2 + 1)] for s in order}
    return WrittenModule(p, D, [ModuleSymbol(s, weights[s]) for s in order], data)


def two_level_module():
    """a is reached at level 1 (layer 0 of b) a round before level 2 (layer 0
    of d, from c).  Split at level 1, a yields only 2x + y; split at level 2
    it yields x and y, so a shared lattice for all levels would lose them."""
    symbols = [ModuleSymbol("b", 2), ModuleSymbol("c", 4), ModuleSymbol("d", 4),
               ModuleSymbol("a", 4), ModuleSymbol("x", 6), ModuleSymbol("y", 8)]
    layers = {"b": [{"a": 1}, {}], "c": [{"d": 1}, {}, {}], "d": [{"a": 1}, {}, {}],
              "a": [{}, {"x": 1}, {"y": 1}], "x": [{}] * 4, "y": [{}] * 5}
    return WrittenModule(2, 4, symbols, layers)


def oracle_cases():
    yield two_level_module(), ["b", "c"]
    for seed in range(4):
        for p, D in ((2, 12), (3, 15), (5, 20)):
            for generated in (True, False):
                yield random_forest(seed, p, D, 14, generated), ["r0", "r1"]
    for p in (2, 3, 5):
        tower = power_tower_module(p, p**3)
        yield tower, ["x"]
        yield tower, [f"x^{p}"]


def test_lattice_closure_matches_the_node_closure():
    verdicts = set()
    for module, gens in oracle_cases():
        for depth in (0, 1, 2, 4, None):
            want = node_closure_per_weight(module, gens, depth)
            report = is_fg_by(module, gens, depth)
            assert report.per_weight == want, (gens, depth)
            assert report.generated == all(got == dim for got, dim in want.values())
            verdicts.add(report.generated)
    assert verdicts == {True, False}


def breadth_first_forest(rng, p, D, size, generated):
    """The benchmark's module shape: breadth first from r0 (weight 2) and r1
    (weight 4), each symbol takes a child with a unit coefficient in layers 1
    and 2 while they fit; when not generated, one edge is scaled by 2 or p."""
    labels = iter(rng.sample(range(10 * size), size))
    weights = {"r0": 2, "r1": 4}
    layers = {"r0": {}, "r1": {}}
    queue = ["r0", "r1"]
    while queue and len(weights) < size:
        parent = queue.pop(0)
        w = weights[parent]
        for i in (1, 2):
            if len(weights) == size or i > w // 2 or w + 2 * i * (p - 1) > 2 * D:
                continue
            child = f"s{next(labels)}"
            weights[child], layers[child] = w + 2 * i * (p - 1), {}
            layers[parent][i] = {child: rng.choice([-1, 1])}
            queue.append(child)
    if not generated:
        parent, i = rng.choice(sorted((n, i) for n, ls in layers.items() for i in ls))
        child = next(iter(layers[parent][i]))
        layers[parent][i][child] *= rng.choice([2, p])
    data = {s: [layers[s].get(i, {}) for i in range(w // 2 + 1)] for s, w in weights.items()}
    return WrittenModule(p, D, [ModuleSymbol(s, w) for s, w in weights.items()], data)


def test_sparse_closure_keeps_the_nodes_of_the_dense_rebuild():
    # every kept node, in order, matches HNF membership rebuilt per node
    rng = random.Random(0)
    cases = kept = 0
    for n in range(40):
        for p, D, size in ((2, 12, 14), (3, 15, 18), (5, 20, 12)):
            module = breadth_first_forest(rng, p, D, size, n % 2 == 0)
            names = [s.name for s in module.symbols]
            for gens in (["r0", "r1"], rng.sample(names, 3)):
                for depth in (None, rng.randrange(4)):
                    got = closure_enumerate(module, gens, depth).nodes
                    assert got == dense_closure(module, gens, depth), (p, gens, depth)
                    cases += 1
                    kept += len(got)
    for module, gens in oracle_cases():  # layers that are sums, and the towers
        for depth in (0, 1, 2, None):
            assert closure_enumerate(module, gens, depth).nodes == dense_closure(
                module, gens, depth)
            cases += 1
    assert cases > 500 and kept > 4000


# -- the band splitting against the written layers ------------------------------------

def horner_layers(module, e, q):
    """Reference: each symbol's written layers moved down to level q by
    Horner's rule (layers q .. level merged, those below times
    p^(level-q)), scaled by its coordinate and added layerwise."""
    layers = [module.zero()] * (q + 1)
    for name, c in sorted(e.coords.items()):
        for i, layer in enumerate(horner(module.written[name], module.p, q)):
            layers[i] = layers[i] + layer * c
    return tuple(layers)


def written_tower(p, D):
    """``power_tower_module``'s data: x^(p^n) writes psi(x^(p^n)) =
    x^(p^(n+1)) as its top layer while that lies in the window."""
    powers = [p**n for n in range(D.bit_length()) if p**n <= D]
    name = {q: "x" if q == 1 else f"x^{q}" for q in powers}
    layers = {name[q]: [{} for _ in range(q)] + [{name[q * p]: 1} if q * p <= D else {}]
              for q in powers}
    return WrittenModule(p, D, [ModuleSymbol(name[q], 2 * q) for q in powers], layers)


def test_written_tower_is_the_model_tower():
    for p in (2, 3, 5):
        tower, model = written_tower(p, p**3), power_tower_module(p, p**3)
        assert tower.symbols == model.symbols and tower.images == model.images


def test_module_splitting_is_the_band_cut_of_psi():
    # on every module, element and level the layers add up to psi(e) and lie
    # in their bands; that splitting is unique, so wherever the Horner
    # layers lie in their bands they are the same.  A forest symbol split
    # below its own level moves its layers up the bands, as do layers that
    # take symbols of several weights; towers and forests split at their
    # own level keep their written layers
    rng = random.Random(0)
    mixed = [two_level_module()] + [random_forest(seed, p, D, 14, seed % 2 == 0)
                                    for seed in range(3)
                                    for p, D in ((2, 12), (3, 15), (5, 20))]
    forests = [breadth_first_forest(rng, p, D, size, n % 2 == 0)
               for n in range(2) for p, D, size in ((2, 12, 14), (3, 15, 18), (5, 20, 12))]
    towers = [written_tower(p, p**3) for p in (2, 3, 5)]
    checked = agreed = shaped = 0
    for module in mixed + forests + towers:
        names = [s.name for s in module.symbols]
        for _ in range(12):
            picked = rng.sample(names, rng.randint(1, min(4, len(names))))
            e = module.element({n: rng.choice([-6, -3, -1, 1, 2, 5]) for n in picked})
            for q in range(int(e.weight()) // 2 + 1):
                layers = module.decompose(e, q)
                assert band_problems(module, e, layers) == [], (names, e, q)
                reference = horner_layers(module, e, q)
                band_shaped = module in towers or (
                    module in forests and {module._weights[n] for n in picked} == {2 * q})
                if band_shaped or not band_problems(module, e, reference):
                    assert layers == reference, (names, e, q)
                    agreed += 1
                checked += 1
                shaped += band_shaped
    assert checked > 1000 and agreed > 800 and shaped > 250
