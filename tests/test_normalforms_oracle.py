"""Hermite normal forms against sympy's (skipped when sympy is absent).

psibench reduces rows and sympy reduces columns, and each orders its
echelon differently, so the entries are not compared.  The lattices are:
sympy's column-style HNF is unique for a lattice, so the row lattices of the
input and of psibench's HNF agree exactly when sympy maps the transposes of
both to the same matrix.
"""

import random

import pytest

from psibench.normalforms import hermite_normal_form

sympy = pytest.importorskip("sympy", exc_type=ImportError)
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf  # noqa: E402


def _random_matrix(rng):
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3 and nrows > 1:  # force a rank drop
        rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1 % nrows])]
    return rows


@pytest.mark.parametrize("seed", range(40))
def test_row_lattice_matches_sympy(seed):
    rng = random.Random(seed)
    rows = _random_matrix(rng)
    hnf = hermite_normal_form(rows)
    if not any(any(r) for r in rows):
        assert hnf == []
        return
    assert hnf and len(hnf) == sympy.Matrix(rows).rank()
    assert sympy_hnf(sympy.Matrix(hnf).T) == sympy_hnf(sympy.Matrix(rows).T)
