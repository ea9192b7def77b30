"""The sparse lattice kernel against a dense HNF rebuilt from scratch and
against sympy's HNF (those comparisons skip when sympy is absent).

psibench reduces rows and sympy reduces columns, and each orders its
echelon differently, so sympy's entries are not compared.  The lattices are:
sympy's column-style HNF is unique for a lattice, so the row lattices of two
matrices agree exactly when sympy maps their transposes to the same matrix.
The row-style HNF is unique too, so the kernel's rows and the dense rebuild
are compared entry for entry.
"""

import random

import pytest
from dense_lattice import dense_hnf, dense_in_lattice, pivots

from psibench.normalforms import Lattice, hermite_normal_form, in_lattice


def _sympy():
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
    return sympy, sympy_hnf


def _random_matrix(rng):
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3 and nrows > 1:  # force a rank drop
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1 % nrows])]
    return rows


def _insert_sequence(rng):
    """Rows for one lattice: sparse negative and positive entries, zero rows,
    and rows that are combinations of earlier ones (rank drops)."""
    ncols = rng.randint(1, 7)
    rows = []
    for _ in range(rng.randint(1, 10)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * ncols)
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([x * s + y * t for s, t in zip(a, b)])
        else:
            rows.append([rng.choice([0, 0, rng.randint(-12, 12)]) for _ in range(ncols)])
    return ncols, rows


def _dense(lattice, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for _, row in sorted(lattice.rows.items())]


def assert_hermite_shape(hnf):
    """Echelon, positive pivots, entries above each pivot in [0, pivot)."""
    piv = pivots(hnf)
    assert len(piv) == len(hnf)
    for i, j in piv:
        assert hnf[i][j] > 0
        assert not any(hnf[i][:j])
        for above in range(i):
            assert 0 <= hnf[above][j] < hnf[i][j]


@pytest.mark.parametrize("seed", range(150))
def test_incremental_inserts_match_a_from_scratch_build(seed):
    rng = random.Random(seed)
    ncols, rows = _insert_sequence(rng)
    lattice = Lattice()
    for k, row in enumerate(rows):
        before = dense_hnf(rows[:k])
        grew = lattice.add({j: a for j, a in enumerate(row) if a})
        want = dense_hnf(rows[:k + 1])
        assert grew == (want != before)
        # the kernel keeps the HNF itself, each row under its pivot column
        for col, kept in lattice.rows.items():
            assert min(kept) == col and all(kept.values())
        assert _dense(lattice, ncols) == want
    hnf = hermite_normal_form(rows)
    assert hnf == dense_hnf(rows)
    assert_hermite_shape(hnf)


def test_membership_agrees_with_the_rebuilt_hnf():
    answers = []
    for seed in range(60):
        rng = random.Random(seed)
        ncols, rows = _insert_sequence(rng)
        lattice = Lattice()
        for row in rows:
            lattice.add(dict(enumerate(row)))
        hnf = dense_hnf(rows)
        for _ in range(30):
            if rng.random() < 0.5:  # a combination of the rows: inside
                vec = [0] * ncols
                for row in rows:
                    c = rng.randint(-2, 2)
                    vec = [a + c * b for a, b in zip(vec, row)]
            else:
                vec = [rng.choice([0, rng.randint(-6, 6)]) for _ in range(ncols)]
            member = in_lattice(lattice, dict(enumerate(vec)))
            assert member == dense_in_lattice(hnf, vec), (rows, vec)
            answers.append(member)
    assert 300 < answers.count(True) < 1500


def test_columns_may_be_names():
    # a lattice over symbol names is the one over their positions
    names = ["a", "b", "c", "d"]
    rng = random.Random(7)
    for _ in range(40):
        ncols, rows = _insert_sequence(rng)
        ncols = min(ncols, 4)
        by_name, by_position = Lattice(), Lattice()
        for row in rows:
            assert (by_name.add({names[j]: a for j, a in enumerate(row[:ncols])})
                    == by_position.add(dict(enumerate(row[:ncols]))))
        assert by_name.rows == {names[c]: {names[j]: a for j, a in row.items()}
                                for c, row in by_position.rows.items()}


@pytest.mark.parametrize("seed", range(40))
def test_row_lattice_matches_sympy(seed):
    sympy, sympy_hnf = _sympy()
    rng = random.Random(seed)
    rows = _random_matrix(rng)
    hnf = hermite_normal_form(rows)
    if not any(any(r) for r in rows):
        assert hnf == []
        return
    assert hnf and len(hnf) == sympy.Matrix(rows).rank()
    assert sympy_hnf(sympy.Matrix(hnf).T) == sympy_hnf(sympy.Matrix(rows).T)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_lattice_matches_sympy(seed):
    sympy, sympy_hnf = _sympy()
    ncols, rows = _insert_sequence(random.Random(1000 + seed))
    if not any(any(r) for r in rows):
        return
    lattice = Lattice()
    for row in rows:
        lattice.add(dict(enumerate(row)))
    kept = _dense(lattice, ncols)
    assert len(kept) == sympy.Matrix(rows).rank()
    assert sympy_hnf(sympy.Matrix(kept).T) == sympy_hnf(sympy.Matrix(rows).T)
