"""Dense reference for the sparse lattice kernel: a Hermite normal form
rebuilt from scratch over list rows, its pivots, membership by reduction
against it, and the closure that rebuilds it for every node it keeps.  The
oracle tests hold ``psibench.normalforms`` and ``closure_enumerate`` to
these."""

from psibench.modules import WitnessNode


def dense_hnf(rows) -> list:
    """Row-style HNF: echelon shape, positive pivots, entries above each
    pivot reduced into [0, pivot)."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    top = 0
    for col in range(len(mat[0])):
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
    return mat[:top]


def pivots(hnf) -> list:
    """(row, column) positions of the pivots of an echelon matrix."""
    out, start = [], 0
    for i, row in enumerate(hnf):
        for j in range(start, len(row)):
            if row[j]:
                out.append((i, j))
                start = j + 1
                break
    return out


def dense_in_lattice(hnf, vec) -> bool:
    """Membership of an integer vector in the row span of an HNF matrix."""
    v = list(vec)
    piv = {col: row for row, col in pivots(hnf)}
    for col in range(len(v)):
        if not v[col]:
            continue
        row = piv.get(col)
        if row is None or v[col] % hnf[row][col]:
            return False
        q = v[col] // hnf[row][col]
        v = [a - q * b for a, b in zip(v, hnf[row])]
    return True


def dense_vector(element) -> list:
    """An element's coordinates on its module's symbols, in their order."""
    return [element.coords.get(s.name, 0) for s in element.module.symbols]


def dense_closure(module, gens, max_depth=None) -> list:
    """Depth rounds that keep a layer when it lies outside its level's
    lattice, rebuilding that level's HNF with it: (depth, element, level)
    per kept node."""
    if max_depth is None:
        max_depth = max(module.truncation, 1)
    lattices: dict = {}
    nodes: list = []

    def grow(depth, element, level):
        hnf = lattices.get(level, [])
        v = dense_vector(element)
        if not dense_in_lattice(hnf, v):
            lattices[level] = dense_hnf(hnf + [v])
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
    return nodes
