import math

import pytest

import psibench.modules
from psibench.models import power_tower_module
from psibench.modules import (ModuleSymbol, PsiModule, abelian_generator_profile,
                              closure_enumerate, is_fg_by)
from psibench.normalforms import (hermite_normal_form, in_lattice, pivots,
                                  smith_normal_form)


# -- integer normal forms ------------------------------------------------------------

def test_hnf_known_lattice():
    hnf = hermite_normal_form([[2, 0], [0, 2], [1, 1]])
    assert hnf == [[1, 1], [0, 2]]
    assert in_lattice(hnf, [1, 1])
    assert in_lattice(hnf, [2, 0])
    assert in_lattice(hnf, [0, 2])
    assert not in_lattice(hnf, [1, 0])
    assert not in_lattice(hnf, [0, 1])


def test_hnf_empty_and_zero():
    assert hermite_normal_form([]) == []
    assert hermite_normal_form([[0, 0]]) == []
    assert in_lattice([], [0, 0])
    assert not in_lattice([], [1, 0])


def test_hnf_pivots_positive_and_reduced():
    hnf = hermite_normal_form([[4, 2, 0], [6, 3, 9], [0, 0, 3]])
    for (i, j) in pivots(hnf):
        assert hnf[i][j] > 0
        for above in range(i):
            assert 0 <= hnf[above][j] < hnf[i][j]


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

def fixed_point_module(p=3):
    """Single symbol m at weight 4 with psi(m) = p^2 * m: layers (m, 0, 0)."""
    sym = ModuleSymbol("m", 4)
    return PsiModule(p, 4, [sym], {"m": [{"m": 1}, {}, {}]})


def test_module_psi_and_decompose():
    M = fixed_point_module()
    m = M.basis_element("m")
    assert M.psi(m) == m * 9
    d = M.decompose(m * 5, 2)
    assert d.weighted_sum() == M.psi(m * 5)
    assert d.problems() == []
    shifted = M.decompose(m, 1)
    assert shifted.weighted_sum() == M.psi(m)


def test_module_symbol_validation():
    for weight in (3, -2):
        with pytest.raises(ValueError, match="non-negative even"):
            ModuleSymbol("m", weight)
    assert ModuleSymbol("m", 0).weight == 0


def test_module_layer_validation():
    sym = ModuleSymbol("m", 4)
    with pytest.raises(ValueError):
        PsiModule(3, 4, [sym], {"m": [{}, {}]})        # wrong layer count
    with pytest.raises(ValueError):
        PsiModule(3, 4, [sym], {"m": [{}, {"m": 1}, {}]})  # layer weight too low
    with pytest.raises(ValueError):
        PsiModule(3, 1, [sym], {"m": [{}, {}, {}]})    # symbol beyond window
    with pytest.raises(KeyError):
        fixed_point_module().element({"zz": 1})


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
    # psi(m) = 2 p^q m: children keep producing new multiples; the depth cap
    # guarantees termination
    sym = ModuleSymbol("m", 4)
    M = PsiModule(3, 4, [sym], {"m": [{"m": 2}, {}, {}]})
    wit = closure_enumerate(M, ["m"], max_depth=5)
    assert len(wit.nodes) == 6
    assert is_fg_by(M, ["m"], max_depth=5).generated


def test_closure_holds_at_most_max_closure_nodes(monkeypatch):
    sym = ModuleSymbol("m", 4)
    M = PsiModule(3, 4, [sym], {"m": [{"m": 2}, {}, {}]})
    monkeypatch.setattr(psibench.modules, "MAX_CLOSURE_NODES", 10)
    wit = closure_enumerate(M, ["m"], max_depth=9)
    assert [n.depth for n in wit.nodes] == list(range(10))
    with pytest.raises(ValueError, match="MAX_CLOSURE_NODES=10 nodes"):
        closure_enumerate(M, ["m"], max_depth=10)
