"""Acceptance suite: golden behaviors reproduced exactly, one criterion per
test, each printing a single pass/fail line and enforcing its time budget.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import subprocess
import sys
import time


from psibench.atiyah import (atiyah_decompose, explicit_lift_decomposition,
                             graded_classes_agree, random_element,
                             verify_welldefined)
from psibench.documents import (dump_document, lift_to_document,
                                module_to_document, presentation_to_document)
from psibench.lift import build_lift
from psibench.models import (adem_failure_ring, dual_numbers_ring,
                             free_polynomial_presentation, power_tower_module,
                             projective_space_ring)
from psibench.modules import abelian_generator_profile, is_fg_by
from psibench.steenrod import (check_adem, check_p0_identity, classify, gr_class,
                               interesting_degrees, sample_classes, steenrod_P,
                               zero_class)
from psibench.verdicts import FAIL, PASS

import random


def _line(name, elapsed, budget=None):
    scope = f" ({elapsed:.2f}s" + (f" < {budget:.0f}s)" if budget else ")")
    print(f"\nACCEPTANCE {name}: PASS{scope}")


def _all_layer_classes(algebra, cls):
    """Classes of every representable layer of one splitting of the class."""
    q = cls.degree // 2
    out = {}
    if not cls:
        for i in range(q + 1):
            target = cls.degree + 2 * i * (algebra.p - 1)
            if algebra.ring.decidable(target):
                out[i] = zero_class(algebra, target)
        return out, None
    dr = atiyah_decompose(algebra, cls.lift(), q)
    for i in range(q + 1):
        target = cls.degree + 2 * i * (algebra.p - 1)
        if not algebra.ring.decidable(target):
            continue
        out[i] = gr_class(algebra, dr.layer(i), target)
    return out, dr


def test_criterion_1_dual_numbers_golden():
    """P0 = k on the weight-4 class: identity iff k = 1 mod p; Adem always."""
    worst = 0.0
    for p in (2, 3, 5):
        for k in (1, 2, p + 1):
            t0 = time.perf_counter()
            A = dual_numbers_ring(p, k)
            result = classify(A, trials=4, seed=0)
            p0 = result.verdict("p0-identity")
            adem = result.verdict("adem")
            assert (p0.status == PASS) == ((k - 1) % p == 0), (p, k, p0.describe())
            assert adem.status == PASS, (p, k, adem.describe())
            e = A.ring.gen("e")
            c = gr_class(A, e, 4)
            assert steenrod_P(A, 0, c) == gr_class(A, e * k, 4)
            worst = max(worst, time.perf_counter() - t0)
    assert worst < 1.0
    _line("1 (P0 scaling on dual numbers)", worst, 1.0)


def test_criterion_2_broken_adem_golden():
    """P^i x = x^(i+1) except P^1 x = 0; the i=j=1 relation fails on x."""
    t0 = time.perf_counter()
    for p in (3, 5):
        A = adem_failure_ring(p, D=3 * p)
        x = A.ring.gen("x")
        c = gr_class(A, x, 2 * (p - 1))
        for i in range(p):
            target = 2 * (p - 1) * (i + 1)
            if target > A.ring.max_weight:
                continue
            got = steenrod_P(A, i, c)
            if i == 1:
                assert not got
            else:
                assert got.rep == (x ** (i + 1)).reduce_mod(p), (p, i)
        # P1 P1 x = 0 but 2 P2 x = 2 x^3
        p1p1 = steenrod_P(A, 1, steenrod_P(A, 1, c))
        two_p2 = steenrod_P(A, 2, c) * 2
        assert not p1p1
        assert two_p2.rep == (x**3 * 2).reduce_mod(p)
        v = check_adem(A, 2 * (p - 1))
        assert v.status == FAIL
        assert (v.witness["class"], v.witness["i"], v.witness["j"]) == ("x", 1, 1)
        degrees = interesting_degrees(A, 2)
        assert check_p0_identity(A, degrees).status == PASS
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line("2 (Adem failure witness (x,1,1))", elapsed, 5.0)


def test_criterion_3_operation_property_suite():
    """Additivity, top power, vanishing and Cartan on >= 100 sampled pairs
    per degree; every splitting produced is exact."""
    t0 = time.perf_counter()
    rigs = [dual_numbers_ring(3, 2), dual_numbers_ring(2, 3),
            adem_failure_ring(3), adem_failure_ring(5),
            projective_space_ring(2, 6), projective_space_ring(3, 6)]
    rng = random.Random(0)
    for A in rigs:
        p = A.p
        degrees = [d for d in interesting_degrees(A, 2)]
        for degree in degrees:
            q = degree // 2
            pool = sample_classes(A, degree, rng, 12)
            if not pool:
                continue
            # splittings are exact integer identities
            for cls in pool[:6]:
                if not cls:
                    continue
                d = atiyah_decompose(A, cls.lift(), q)
                assert d.problems() == [], (A.name, degree)
            layer_cache = {}

            def layers_of(cls):
                if cls not in layer_cache:
                    layer_cache[cls] = _all_layer_classes(A, cls)[0]
                return layer_cache[cls]

            pairs = list(itertools.islice(itertools.cycle(
                itertools.product(pool, pool)), 100))
            assert len(pairs) >= 100
            for a, b in pairs:
                la, lb, lab = layers_of(a), layers_of(b), layers_of(a + b)
                for i, got in lab.items():
                    assert got == la[i] + lb[i], (A.name, degree, i)
                # top power
                if q in la and A.ring.decidable(degree * p):
                    assert la[q] == a.pth_power()
                # vanishing above the level
                assert not steenrod_P(A, q + 1, a)
                assert not steenrod_P(A, q + 3, b)
                # Cartan, within the window
                if not A.ring.decidable(2 * degree):
                    continue
                ab = a * b
                labl = layers_of(ab) if ab.degree == 2 * degree else {}
                for i, got in labl.items():
                    rhs = zero_class(A, 2 * degree + 2 * i * (p - 1))
                    for l in range(i + 1):
                        if l in la and (i - l) in lb:
                            rhs = rhs + la[l] * lb[i - l]
                    assert got == rhs, (A.name, degree, i)
            # bind the cached route to the public operation
            probe = pool[0]
            for i, got in layers_of(probe).items():
                assert steenrod_P(A, i, probe) == got
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line("3 (operation property suite, 100 pairs/degree)", elapsed, 60.0)


def test_criterion_4_well_definedness_suite():
    """>= 50 randomized alternative lifts per golden ring reproduce the layer
    classes; the explicit construction matches the engine layer-by-layer."""
    t0 = time.perf_counter()
    golden = [(dual_numbers_ring(3, 2), "e"), (dual_numbers_ring(2, 3), "e"),
              (adem_failure_ring(3), "x"), (adem_failure_ring(5), "x")]
    for A, gen in golden:
        e = A.ring.gen(gen)
        q = A.ring.symbol(gen).weight // 2
        v = verify_welldefined(A, e, q, trials=50, seed=2026)
        assert v.witness is None, v.describe()
        assert v.checked >= 50
        # direct explicit-construction comparison
        rng = random.Random(99)
        dr = atiyah_decompose(A, e, q)
        for _ in range(10):
            h = random_element(A, rng, min_weight=2 * q)
            f = random_element(A, rng, min_weight=2 * q + 2)
            dx = explicit_lift_decomposition(A, e, dr, h, f)
            s = e + h * A.p + f
            assert dx.weighted_sum() == A.apply_psi(s)
            ds = atiyah_decompose(A, s, q)
            for i in range(q + 1):
                w = 2 * q + 2 * i * (A.p - 1)
                if w <= A.ring.max_weight:
                    assert graded_classes_agree(A, dx.layers[i], ds.layers[i], w) is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _line("4 (well-definedness, 50 lifts/ring + explicit oracle)", elapsed, 30.0)


def test_criterion_5_projective_space_binomial_oracle():
    """P^i(t^q) = binom(q,i) t^(q+i(p-1)), against math.comb directly."""
    t0 = time.perf_counter()
    for p in (2, 3):
        for n in range(1, 7):
            A = projective_space_ring(p, n)
            t = A.ring.gen("t")
            for q in range(1, n + 1):
                c = gr_class(A, t**q, 2 * q)
                for i in range(q + 1):
                    got = steenrod_P(A, i, c)
                    coeff = math.comb(q, i) % p
                    power = q + i * (p - 1)
                    if power > n or coeff == 0:
                        assert not got, (p, n, q, i)
                    else:
                        assert got.rep == (t**power * coeff).reduce_mod(p), (p, n, q, i)
    elapsed = time.perf_counter() - t0
    _line("5 (projective-space binomial oracle)", elapsed)


def test_criterion_6_lift_construction(rename_generator):
    """Lift of Z/p[x] at D = 6: axiom suite, the table operations against
    the derived ones, vanishing of psi-iterates of the relations, and the
    relabelled lift against the renamed one."""
    t0 = time.perf_counter()
    for p in (2, 3):
        pres = free_polynomial_presentation(p, 6)
        lift = build_lift(pres)
        # full axiom suite on the graded quotient, via the derived operations
        result = classify(lift.pi, trials=3, seed=0)
        assert result.label == "psi-p-algebra", result.to_dict()
        assert all(v.status != FAIL for v in result.verdicts)
        # the presentation's table P^i is the P^i derived from the lift's psi
        for degree in interesting_degrees(lift.graded, 0):
            for cls in lift.basis(degree):
                for i in range(degree // 2 + 1):
                    if degree + 2 * i * (p - 1) <= 2 * pres.truncation:
                        assert steenrod_P(lift.graded, i, cls) == steenrod_P(lift.pi, i, cls)
        # psi-iterates of the relations die in the graded quotient
        for k in range(1, lift.k_max + 1):
            for f0, fk in zip(lift.ideal_generators[0], lift.ideal_generators[k]):
                if fk:
                    assert not fk.homogeneous_component(f0.weight()).reduce_mod(p)
        # relabelling x as y transports the whole serialized lift
        other = build_lift(free_polynomial_presentation(p, 6, theta="y"))
        assert lift_to_document(other) == rename_generator(lift_to_document(lift), "x", "y")
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line("6 (canonical lift of Z/p[x], D=6)", elapsed, 120.0)


def test_criterion_7_power_tower_counterexample(tmp_path):
    """fingen passes everywhere for {x} while the abelian rank keeps growing;
    {x^p} misses weight 2 with an explicit rank deficit."""
    t0 = time.perf_counter()
    for p in (2, 3):
        D = p**4
        M = power_tower_module(p, D)
        doc_path = tmp_path / f"tower-{p}.json"
        dump_document(module_to_document(M), str(doc_path))
        proc = subprocess.run(
            [sys.executable, "-m", "psibench", "fingen", "--doc", str(doc_path),
             "--generators", "x", "--format", "json"], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["status"] == PASS
        assert all(got == dim for got, dim in report["per_weight"].values())
        profile = abelian_generator_profile(M)
        assert profile[-1][1] == math.floor(math.log(D, p)) + 1 == 5
        counts = [abelian_generator_profile(power_tower_module(p, p**k))[-1][1]
                  for k in (1, 2, 3, 4)]
        assert counts == [2, 3, 4, 5]
        bad = is_fg_by(M, [f"x^{p}"])
        assert not bad.generated
        assert bad.verdict.witness == {"weight": 2, "symbol": "x",
                                       "rank": 0, "needed": 1}
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line("7 (psi-fg module of unbounded abelian rank)", elapsed, 10.0)


def test_criterion_8_deterministic_reports(tmp_path):
    """Identical (document, seed) yields byte-identical reports."""
    t0 = time.perf_counter()
    from psibench.documents import algebra_to_document
    docs = {
        "dual": algebra_to_document(dual_numbers_ring(3, 2)),
        "tower": module_to_document(power_tower_module(2, 16)),
        "pres": presentation_to_document(free_polynomial_presentation(2, 4)),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_document(doc, paths[name])
    commands = [
        ["verify", "--doc", paths["dual"], "--seed", "11", "--trials", "4",
         "--format", "json"],
        ["verify", "--doc", paths["dual"], "--seed", "11", "--trials", "4",
         "--format", "text"],
        ["fingen", "--doc", paths["tower"], "--generators", "x", "--format", "json"],
        ["lift", "--doc", paths["pres"], "--format", "json"],
        ["atiyah", "--doc", paths["dual"], "--element", "2*e", "--format", "json"],
        ["steenrod", "--doc", paths["dual"], "-i", "0", "--element", "e",
         "--format", "json"],
    ]
    for args in commands:
        runs = [subprocess.run([sys.executable, "-m", "psibench", *args],
                               capture_output=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, args
        assert runs[0].returncode == runs[1].returncode
    elapsed = time.perf_counter() - t0
    _line("8 (byte-identical reports)", elapsed)
