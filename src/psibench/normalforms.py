"""Exact integer matrix normal forms: Hermite (row style) and Smith."""

from __future__ import annotations


def hermite_normal_form(rows) -> list:
    """Row-style HNF of the lattice spanned by the given integer rows:
    echelon shape, positive pivots, entries above each pivot reduced into
    [0, pivot)."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    if any(len(r) != ncols for r in mat):
        raise ValueError("ragged matrix")
    top = 0
    for col in range(ncols):
        live = [i for i in range(top, len(mat)) if mat[i][col]]
        if not live:
            continue
        # Euclid on the column until a single nonzero entry remains
        while len(live) > 1:
            live.sort(key=lambda i: abs(mat[i][col]))
            piv = live[0]
            for i in live[1:]:
                q = mat[i][col] // mat[piv][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[piv])]
            live = [i for i in live if mat[i][col]]
        piv = live[0]
        mat[top], mat[piv] = mat[piv], mat[top]
        if mat[top][col] < 0:
            mat[top] = [-a for a in mat[top]]
        for i in range(top):
            q = mat[i][col] // mat[top][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
        top += 1
    return [r for r in mat[:top]]


def pivots(hnf) -> list:
    """(row, column) positions of the HNF pivots.  The rows are in echelon
    form, so each row's scan starts one column after the pivot above it."""
    out, start = [], 0
    for i, row in enumerate(hnf):
        for j in range(start, len(row)):
            if row[j]:
                out.append((i, j))
                start = j + 1
                break
    return out


def in_lattice(hnf, vec) -> bool:
    """Membership of an integer vector in the row span of an HNF matrix."""
    if not hnf:
        return not any(vec)
    v = list(vec)
    piv = {col: row for row, col in pivots(hnf)}
    for col in range(len(v)):
        if not v[col]:
            continue
        row = piv.get(col)
        if row is None:
            return False
        q, r = divmod(v[col], hnf[row][col])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, hnf[row])]
    return not any(v)


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
