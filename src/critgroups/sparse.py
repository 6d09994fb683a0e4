"""The sparse kernel for reduced Laplacians: fraction-free elimination in
a minimum-degree order, straight from a graph's edge list, with lazy
scaling per entry. `linalg._factor_laplacian` runs it on a sparse L."""

from __future__ import annotations

from typing import Callable, Sequence


def _sparse_factor(n: int, edges: Sequence[tuple[tuple[int, int], int]],
                   q: int) -> tuple[int, Callable[[Sequence[int]], list[int]] | None]:
    """Fraction-free elimination of the Laplacian reduced at q of the
    multigraph on n vertices with the given edge items, in a minimum-degree
    order: (det, solve) as `linalg._factor_laplacian` gives them, and
    (0, None) at a zero pivot.

    L is symmetric positive semidefinite, and definite iff the graph is
    connected, so in any symmetric order every pivot, a principal minor,
    is positive, and a zero pivot proves det L = 0: no row is ever swapped.
    Each step takes a vertex of least degree in the elimination graph from
    a bucket queue, and its update (Bareiss's, as in `linalg._eliminate`)
    touches only the entries among its neighbours, which become a clique
    (Rose, Tarjan and Lueker, SIAM J. Comput. 5, 1976; Amestoy, Davis and
    Duff, SIAM J. Matrix Anal. Appl. 17, 1996). Every other entry would only be scaled
    by pivot/previous pivot, and those factors telescope, so an entry
    keeps the stage it was written at and is brought up to date when read:
    at stage t, an entry x of stage s is x D_t / D_s, exactly, where D_t is
    the pivot of step t - 1 and D_0 = 1 (Lee and Saunders, J. Symbolic
    Comput. 19, 1995). A hub that every step touches is thus never
    rescaled as a whole.

    The rows of the steps are kept: a solve runs b through the same steps
    with the same lazy scaling, then substitutes back, as `linalg._solve`
    and `linalg._back` do, in O(n + fill) operations.
    """
    m = n - 1
    rows: dict[int, dict[int, tuple[int, int]]] = {v: {} for v in range(n) if v != q}
    degree = dict.fromkeys(rows, 0)
    for (u, v), mult in edges:
        if u != q:
            degree[u] += mult
        if v != q:
            degree[v] += mult
            if u != q:
                rows[u][v] = rows[v][u] = (-mult, 0)
    diag = {v: (d, 0) for v, d in degree.items()}  # entry (v, v) and the stage it was written at
    buckets: dict[int, set[int]] = {}  # the vertices left, by degree
    for v, r in rows.items():
        buckets.setdefault(len(r), set()).add(v)
    deg = 0  # no vertex left has a smaller degree
    D = [1]  # D[t]: the pivot of step t - 1
    steps: list[tuple[int, int, list[tuple[int, int]]]] = []  # (vertex, pivot, its row's entries)
    t = 0
    while rows:
        while not buckets.get(deg):
            deg += 1
        k = buckets[deg].pop()
        row = rows.pop(k)
        prev = D[t]
        x, s = diag.pop(k)
        p = x if s == t else x * prev // D[s]
        if p == 0:
            return 0, None
        f = []  # (neighbour u, entry (k, u) now, u's row, u's degree left)
        for u, (x, s) in row.items():
            ru = rows[u]
            del ru[k]
            f.append((u, x if s == t else x * prev // D[s], ru, len(ru)))
        for i, (u, fu, ru, _) in enumerate(f):
            x, s = diag[u]
            if s != t:
                x = x * prev // D[s]
            diag[u] = ((x * p - fu * fu) // prev, t + 1)
            for w, fw, rw, _ in f[i + 1:]:
                e = ru.get(w)
                if e is None:
                    x = -fu * fw // prev
                else:
                    x, s = e
                    if s != t:
                        x = x * prev // D[s]
                    x = (x * p - fu * fw) // prev
                ru[w] = rw[u] = (x, t + 1)
        for u, _, ru, d in f:
            if len(ru) != d + 1:  # u leaves the bucket of its degree before the step
                buckets[d + 1].remove(u)
                buckets.setdefault(len(ru), set()).add(u)
        D.append(p)
        steps.append((k, p, [(u, fu) for u, fu, _, _ in f]))
        t += 1
        # a neighbour of k now meets its deg - 1 others, and no other degree moved
        deg = max(deg - 1, 0)
    det = D[-1]

    def solve(b: Sequence[int]) -> list[int]:
        if len(b) != m:
            raise ValueError(f"right-hand side has {len(b)} entries, expected {m}")
        y = list(b)
        y.insert(q, 0)
        stage = [0] * n
        for t, (k, p, f) in enumerate(steps):
            yk = y[k]
            if yk:  # else step t only scales the entries, which stay lazy
                prev, s = D[t], stage[k]
                if s != t:
                    yk = y[k] = yk * prev // D[s]
                for u, fu in f:
                    x, s = y[u], stage[u]
                    if s != t:
                        x = x * prev // D[s]
                    y[u] = (x * p - fu * yk) // prev
                    stage[u] = t + 1
        # entry k now holds b eliminated to step k, and the last entry is adj(L) b's
        for k, p, f in reversed(steps[:-1]):
            x = det * y[k]
            for u, fu in f:
                x -= fu * y[u]
            y[k] = x // p
        del y[q]
        return y

    return det, solve
