"""Exact integer lattices: one sparse incremental row-style Hermite normal
form over Z, the dense ``hermite_normal_form`` built on it, and Smith
normal form."""

from __future__ import annotations

from .arith import add_into


class Lattice:
    """A sublattice of Z^n in row-style Hermite normal form, kept sparse:
    ``rows`` maps each pivot column to its row, a {column: entry} dict
    without zeros whose smallest column is that pivot, with a positive entry
    there, and every other row's entry in that column lies in [0, pivot).
    Columns are any keys of one total order: matrix positions, or module
    symbol names."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    def add(self, vec: dict) -> bool:
        """Insert a {column: entry} vector; True exactly when the lattice
        grew.  Where the reduced vector stops on a pivot that does not divide
        it, its remainder is the smaller pivot (a Euclid step) and the row it
        replaces is reduced again.  Then entries above the pivots are reduced
        where a changed pivot or a changed row may have left them out of range."""
        v = _reduce(self.rows, vec)
        if not v:
            return False
        changed = set()
        while v:
            c = min(v)
            changed.add(c)
            row = self.rows.get(c)
            if row is None:
                self.rows[c] = v if v[c] > 0 else {k: -a for k, a in v.items()}
                break
            self.rows[c] = v
            v = _reduce(self.rows, row)
        dirty = set(changed)
        for c in sorted(self.rows):
            row = self.rows[c]
            for above in self.rows if c in changed else dirty:
                if above < c and (q := self.rows[above].get(c, 0) // row[c]):
                    add_into(self.rows[above], row.items(), -q)
                    dirty.add(above)
        return True


def _reduce(rows: dict, vec: dict) -> dict:
    """vec minus multiples of the rows, column by column, until it is zero
    (it lies in the lattice) or its leading entry is no multiple of a pivot."""
    v = {c: a for c, a in vec.items() if a}
    while v:
        c = min(v)
        row = rows.get(c)
        if row is None:
            break
        q, r = divmod(v[c], row[c])
        if q:
            add_into(v, row.items(), -q)
        if r:
            break
    return v


def in_lattice(lattice: Lattice, vec: dict) -> bool:
    """Membership of a {column: entry} vector in the lattice."""
    return not _reduce(lattice.rows, vec)


def hermite_normal_form(rows) -> list:
    """Row-style HNF of the lattice spanned by the given integer rows:
    echelon shape, positive pivots, entries above each pivot reduced into
    [0, pivot).  The rows are inserted into one ``Lattice``."""
    mat = [r for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    lattice = Lattice()
    for r in mat:
        lattice.add({j: a for j, a in enumerate(r) if a})
    return [[lattice.rows[c].get(j, 0) for j in range(ncols)] for c in sorted(lattice.rows)]


def smith_normal_form(rows) -> list:
    """Invariant factors (positive, each dividing the next) of an integer
    matrix; zeros are not reported."""
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    factors = []
    t = 0
    while t < len(mat) and t < ncols:
        best = None
        for i in range(t, len(mat)):
            for j in range(t, ncols):
                if mat[i][j] and (best is None or abs(mat[i][j]) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[t], mat[bi] = mat[bi], mat[t]
        for r in mat:
            r[t], r[bj] = r[bj], r[t]
        dirty = False
        for i in range(t + 1, len(mat)):
            if mat[i][t]:
                q = mat[i][t] // mat[t][t]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[t])]
                if mat[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if mat[t][j]:
                q = mat[t][j] // mat[t][t]
                for r in mat:
                    r[j] -= q * r[t]
                if mat[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of later entries by the pivot
        d = abs(mat[t][t])
        offender = None
        for i in range(t + 1, len(mat)):
            for j in range(t + 1, ncols):
                if mat[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            mat[t] = [a + b for a, b in zip(mat[t], mat[offender])]
            continue
        factors.append(d)
        t += 1
    return factors
