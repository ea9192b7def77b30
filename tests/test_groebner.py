import random

import pytest

import psibench.groebner as groebner
from psibench.groebner import groebner_build, normal_form
from psibench.models import free_polynomial_presentation
from psibench.rings import GeneratorSymbol, WeightedRing, mono_divides, mono_div


@pytest.fixture
def ring():
    x = GeneratorSymbol("x", (), 2)
    y = GeneratorSymbol("y", (), 2)
    z = GeneratorSymbol("z", (), 4)
    return WeightedRing([x, y, z], 6)


def test_normal_form_kills_ideal_generator(ring):
    x = ring.gen("x", mod=3)
    gb = groebner_build([x**2], 3)
    assert not normal_form(x**2, gb)
    assert normal_form(x**2 + x, gb) == x


def test_inhomogeneous_relation_rejected(ring):
    x = ring.gen("x", mod=3)
    with pytest.raises(ValueError):
        groebner_build([x**2 + x], 3)


def test_normal_form_idempotent_and_homogeneous(ring):
    p = 3
    x, y, z = (ring.gen(n, mod=p) for n in "xyz")
    gb = groebner_build([x * y - z, y**2], p)
    rng = random.Random(0)
    monos = []
    for w in (2, 4, 6):
        monos.extend(ring.monomials_of_weight(w))
    for _ in range(40):
        e = ring.element({m: rng.randrange(p) for m in rng.sample(monos, 3)}, mod=p)
        nf = normal_form(e, gb)
        assert normal_form(nf, gb) == nf
        # homogeneous input stays homogeneous of the same weight
        for w in e.weights():
            comp = e.homogeneous_component(w)
            nfc = normal_form(comp, gb)
            assert (not nfc) or nfc.weights() == [w]


def test_membership_of_combinations(ring):
    p = 5
    x, y, z = (ring.gen(n, mod=p) for n in "xyz")
    rels = [x * y - z, x**2 - y**2]
    gb = groebner_build(rels, p)
    combo = rels[0] * x * 3 + rels[1] * y * 2
    assert gb.contains(combo)
    assert not gb.contains(z * x)


def exhaustive_normal_forms(e, gb):
    """All terminal results of one-step reductions in every possible order."""
    results = set()
    stack = [e]
    seen = set()
    while stack:
        cur = stack.pop()
        key = tuple(sorted(cur.terms.items(), key=lambda t: str(t[0])))
        if key in seen:
            continue
        seen.add(key)
        moves = []
        for mono in cur.terms:
            for b in gb.basis:
                lead, lc = b.leading()
                if mono_divides(lead, mono):
                    coeff = cur.terms[mono] * pow(lc, -1, gb.p) % gb.p
                    factor = cur.ring.element({mono_div(mono, lead): coeff}, mod=gb.p)
                    moves.append(cur - factor * b)
        if not moves:
            results.add(tuple(sorted(((m, c) for m, c in cur.terms.items()),
                                     key=lambda t: str(t[0]))))
        else:
            stack.extend(moves)
    return results


def test_confluence_against_exhaustive_reduction(ring):
    """Normal forms are order-independent: brute-force every reduction
    sequence on random small ideals and check a single terminal form."""
    p = 2
    rng = random.Random(7)
    monos2 = ring.monomials_of_weight(2)
    monos4 = ring.monomials_of_weight(4)
    for trial in range(12):
        rels = []
        for _ in range(rng.randrange(1, 4)):
            w = rng.choice([monos2, monos4])
            picks = rng.sample(w, min(len(w), rng.randrange(1, 3)))
            rel = ring.element({m: 1 for m in picks}, mod=p)
            if rel:
                rels.append(rel)
        if not rels:
            continue
        gb = groebner_build(rels, p)
        for _ in range(6):
            e = ring.element(
                {m: 1 for m in rng.sample(monos4, rng.randrange(1, 4))}, mod=p)
            nf = normal_form(e, gb)
            forms = exhaustive_normal_forms(e, gb)
            assert len(forms) == 1
            frozen = tuple(sorted(((m, c) for m, c in nf.terms.items()),
                                  key=lambda t: str(t[0])))
            assert forms == {frozen}


def test_reduced_basis_is_monic_and_interreduced(ring):
    p = 3
    x, y, z = (ring.gen(n, mod=p) for n in "xyz")
    gb = groebner_build([x**2 * 2, x**2 + y**2, z * 2], p)
    for b in gb:
        assert b.leading()[1] == 1
        for other in gb:
            if other is b:
                continue
            lead = other.leading()[0]
            assert not any(mono_divides(lead, m) for m in b.terms)


def _pair_update_reads(monkeypatch, relations, p):
    """Build a basis with every pair update logged.  Each update must read
    the lead it adds, the earlier leads sharing a generator with it, and the
    leads of the pending pairs its chain criterion tests: never a scan of
    every earlier lead.  The divisor search reads the lead index on its own
    and is not logged.  Returns the basis, the number of sharing leads and
    the number of earlier leads, summed over the updates."""
    log = {"on": False, "reads": set()}

    class Leads(list):
        def __getitem__(self, k):
            if log["on"]:
                log["reads"].add(k)
            return super().__getitem__(k)

        def __iter__(self):
            if log["on"]:
                log["reads"].update(range(len(self)))
            return super().__iter__()

    class Logged(groebner.GroebnerBasis):
        def __init__(self, *args):
            super().__init__(*args)
            self._leads = Leads(self._leads)

        def _divisors(self, exps):
            on, log["on"] = log["on"], False
            try:
                return iter(list(super()._divisors(exps)))
            finally:
                log["on"] = on

    real_update = groebner._update
    generators = []   # the generator set of each lead so far
    totals = {"shared": 0, "earlier": 0}

    def update(gb, h, pairs):
        t, lead = len(gb), h.leading()[0]
        mine = {g for g, _ in lead[1]}
        shared = {k for k, gens in enumerate(generators) if gens & mine}
        chain = {k for lcm, a, b in pairs if mono_divides(lead, lcm) for k in (a, b)}
        log["reads"].clear()
        log["on"] = True
        try:
            real_update(gb, h, pairs)
        finally:
            log["on"] = False
        generators.append(mine)
        reads = log["reads"] - {t}
        assert shared <= reads
        assert reads - chain == shared - chain
        totals["shared"] += len(shared)
        totals["earlier"] += t

    with monkeypatch.context() as m:
        m.setattr(groebner, "GroebnerBasis", Logged)
        m.setattr(groebner, "_update", update)
        gb = groebner.groebner_build(relations, p)
    return gb, totals["shared"], totals["earlier"]


def test_pair_update_reads_only_the_leads_sharing_a_generator(monkeypatch, ring):
    pres = free_polynomial_presentation(2, 10)
    relations = [r for r in pres.relations if r]
    gb, shared, earlier = _pair_update_reads(monkeypatch, relations, 2)
    assert [b.terms for b in gb] == [b.terms for b in pres.gb]
    # every lead is a new variable: no lead is read, where the scan of every
    # earlier lead read 824,970 over the 1,285 updates
    assert (len(relations), shared, earlier) == (1285, 0, 824970)

    x, y, z = (ring.gen(n, mod=3) for n in "xyz")
    relations = [x * y - z, x**2 - y**2 * 2, x * z + y * z, z**2 - x**2 * z]
    gb, shared, earlier = _pair_update_reads(monkeypatch, relations, 3)
    assert [b.terms for b in gb] == [b.terms for b in groebner_build(relations, 3)]
    assert 0 < shared < earlier
