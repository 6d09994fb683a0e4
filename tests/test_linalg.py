import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from critgroups import (
    IntMatrix,
    Multigraph,
    complete_graph,
    cycle_graph,
    determinant,
    enumerate_connected_simple_graphs,
    polygon_stack,
    random_connected_multigraph,
    reduced_laplacian,
    smith_normal_form,
    smith_rows_mod,
    solve_image_membership,
)
from critgroups import linalg, sparse
from critgroups.linalg import _adjugate, _eliminate, _smith_mod, _solve


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_intmatrix_shape_checks():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [1, 2, 3])
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.at(1, 0) == 3
    assert (a @ IntMatrix.identity(2)) == a
    with pytest.raises(ValueError):
        a @ IntMatrix.identity(3)


def test_determinant_examples():
    assert determinant(IntMatrix.identity(3)) == 1
    house = polygon_stack((3, 4)).graph
    assert determinant(reduced_laplacian(house, 4)) == 11
    # C_4: brute enumeration gives 4 spanning trees
    assert determinant(reduced_laplacian(cycle_graph(4), 0)) == 4
    assert determinant(IntMatrix(0, 0, [])) == 1
    with pytest.raises(ValueError):
        determinant(IntMatrix(2, 3, [0] * 6))


def test_determinant_against_cofactor_expansion():
    # exhaustive on 2x2 over a small window, seeded samples at 3x3 and 4x4
    for entries in itertools.product(range(-2, 3), repeat=4):
        a = IntMatrix(2, 2, list(entries))
        assert determinant(a) == cofactor_det(a.to_rows())
    rng = random.Random(42)
    for _ in range(250):
        n = rng.choice((3, 4))
        a = IntMatrix(n, n, [rng.randint(-5, 5) for _ in range(n * n)])
        assert determinant(a) == cofactor_det(a.to_rows())


def _kernel_cases():
    """Seeded square matrices with right-hand sides, plus the edge cases:
    1x1, a zero leading entry (one row swap, so the sign flips), and a
    singular matrix. The eliminations that end symmetric, mostly of 1x1
    matrices, also have their adjugate and right-hand sides read off the
    triangle."""
    rng = random.Random(606)
    cases = [
        ([[7]], [[2, -3]]),
        ([[0, 2, 1], [3, 1, 0], [1, 0, 4]], [[1, 0], [0, 1], [5, -2]]),
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [[1], [1], [1]]),
    ]
    for _ in range(120):
        n, k = rng.randint(1, 5), rng.randint(0, 3)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            rows[rng.randrange(n)] = [0] * n  # singular
        cases.append((rows, [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n)]))
    return cases


def _sympy_rows(m):
    return [[int(x) for x in m.row(i)] for i in range(m.rows)]


def test_bareiss_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    det, tri, symmetric = _eliminate([])
    assert (det, tri, symmetric) == (1, [], True)
    assert _adjugate(tri, symmetric) == [] == _solve(tri, symmetric, [])
    swaps = singular = symmetric_count = 0
    for rows, b in _kernel_cases():
        n, k = len(rows), len(b[0])
        ref = sympy.Matrix(rows)
        det, tri, symmetric = _eliminate([list(r) for r in rows])
        assert det == ref.det()
        singular += det == 0
        swaps += det != 0 and rows[0][0] == 0
        if symmetric:
            symmetric_count += 1
            assert _adjugate(tri, symmetric) == _sympy_rows(ref.adjugate())
            want = ref.adjugate() * sympy.Matrix(n, k, [x for r in b for x in r])
            assert [_solve(tri, symmetric, col) for col in zip(*b)] == _sympy_rows(want.T)
    assert swaps and singular and symmetric_count


def _symmetric_cases():
    """Symmetric matrices whose elimination meets a zero pivot: the swap
    matrix, a zero diagonal, a rank-one singular matrix, and seeded random
    ones up to 6x6 with some diagonal entries zeroed."""
    rng = random.Random(909)
    cases = [[[0, 1], [1, 0]], [[0, 1, 2], [1, 0, 3], [2, 3, 0]], [[1, 2, 3], [2, 4, 6], [3, 6, 9]]]
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            if rng.random() < 0.4:
                rows[i][i] = 0
        cases.append(rows)
    return cases


def test_symmetric_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(910)
    zero_pivots = singular = singular_symmetric = 0
    for rows in _symmetric_cases():
        n = len(rows)
        b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(n)]
        # step k pivots on the leading (k+1)-minor while no row has moved
        zero_pivot = any(cofactor_det([r[:k] for r in rows[:k]]) == 0 for k in range(1, n))
        zero_pivots += zero_pivot
        ref = sympy.Matrix(rows)
        det, tri, symmetric = _eliminate([list(r) for r in rows])
        assert det == ref.det()
        singular += det == 0
        assert symmetric is not zero_pivot
        if symmetric:
            # a singular one has only its last pivot zero, which is never a divisor
            singular_symmetric += det == 0
            assert _adjugate(tri, symmetric) == _sympy_rows(ref.adjugate())
            want = ref.adjugate() * sympy.Matrix(b)
            assert [_solve(tri, symmetric, col) for col in zip(*b)] == _sympy_rows(want.T)
        else:
            with pytest.raises(ValueError, match="row swaps"):
                _adjugate(tri, symmetric)
    assert zero_pivots > 10 and singular and singular_symmetric


def test_symmetric_kernel_matches_full_elimination_on_laplacians():
    """Adding row 1 to row 0 of L keeps det L but breaks the symmetry, so
    the copy is eliminated over full rows."""
    rng = random.Random(313)
    graphs = [g for g in enumerate_connected_simple_graphs(5) if g.n > 2]
    graphs += [random_connected_multigraph(rng, 12, 6) for _ in range(60)]

    for g in graphs:
        a = reduced_laplacian(g, g.n - 1).to_rows()
        if len(a) < 2:
            continue
        full = [[x + y for x, y in zip(a[0], a[1])]] + a[1:]
        assert full != [list(c) for c in zip(*full)]
        det, _, symmetric = _eliminate([list(r) for r in a])
        assert symmetric
        assert _eliminate([list(r) for r in full])[::2] == (det, False)


def _leading_pivots(rows):
    """The pivots of Gaussian elimination without swaps over the rationals,
    up to and including the first zero one: pivot k is the ratio of the
    leading minors of orders k + 1 and k."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for k in range(len(a)):
        pivots.append(p := a[k][k])
        if p == 0:
            break
        for r in a[k + 1:]:
            f = r[k] / p
            r[k:] = [x - f * y for x, y in zip(r[k:], a[k][k:])]
    return pivots


def _triple_zero_pivot_cases():
    """Symmetric matrices of 4 to 9 rows whose elimination meets a triple
    of pivots k, k + 1, k + 2 (k a multiple of 3, with a row left below)
    whose first pivot is nonzero and whose second or third is zero, each
    as (rows, k, 1 or 2 for the zero's position in the triple): one small
    example of each position, then seeded ones with small entries."""
    yield [[1, 1, 1, 0], [1, 1, 2, 0], [1, 2, 1, 0], [0, 0, 0, 1]], 0, 1
    yield [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], 0, 2
    rng = random.Random(1968)
    for _ in range(1000):
        n = rng.randint(4, 9)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        pivots = _leading_pivots(rows)
        z = len(pivots) - 1
        if pivots[-1] == 0 and z % 3 and z - z % 3 + 3 < n:
            yield rows, z - z % 3, z % 3


def test_three_step_zero_pivot_matches_sympy():
    """A zero second or third pivot of a triple leaves a zero pivot before
    the last for the single step, so each of these eliminations swaps rows
    or stops singular, and its triangle has no adjugate to read. Covered:
    either position, at the first triple and a later one, and every n
    mod 3, checked against sympy's det."""
    sympy = pytest.importorskip("sympy")
    kinds = set()
    later_triple = nonsingular = 0
    for rows, k, position in _triple_zero_pivot_cases():
        kinds.add((len(rows) % 3, position))
        later_triple += k > 0
        det, tri, symmetric = _eliminate([list(r) for r in rows])
        assert det == sympy.Matrix(rows).det()
        nonsingular += det != 0
        assert not symmetric
        with pytest.raises(ValueError, match="row swaps"):
            _adjugate(tri, symmetric)
    assert kinds == {(r, p) for r in range(3) for p in (1, 2)} and later_triple > 0 and nonsingular > 0


def _single_step(rows):
    """The plain Bareiss elimination, one pivot a step over full rows,
    with no swap: the reference for the upper triangle of `_eliminate`."""
    m = [list(r) for r in rows]
    prev = 1
    for k in range(len(m) - 1):
        p = m[k][k]
        for r in m[k + 1:]:
            f = r[k]
            r[k + 1:] = [(x * p - f * y) // prev for x, y in zip(r[k + 1:], m[k][k + 1:])]
        prev = p
    return m


def test_three_step_triangle_matches_single_steps_on_laplacians():
    """Every entry of the triangle, which `_solve`, `_back` and `_adjugate`
    read as multipliers, is the single-step elimination's, on Laplacians of
    every n mod 3, where the passes end in tails of one to three single
    steps."""
    rng = random.Random(1022)
    sizes = set()
    for _ in range(60):
        g = random_connected_multigraph(rng, 40, 20)
        a = reduced_laplacian(g, rng.randrange(g.n)).to_rows()
        det, tri, symmetric = _eliminate([list(r) for r in a])
        ref = _single_step(a)
        assert symmetric and det == (ref[-1][-1] if ref else 1)
        assert [r[i:] for i, r in enumerate(tri)] == [r[i:] for i, r in enumerate(ref)]
        sizes.add(len(a) % 3)
    assert sizes == {0, 1, 2}


def test_triangle_solve_matches_kernel_and_sympy():
    """Columns solved off the triangle of an elimination equal the
    adjugate read off the same triangle times the right-hand side, and
    the sympy adjugate on the smaller Laplacians."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1006)
    graphs = [complete_graph(n) for n in (2, 3, 6, 9)]
    graphs += [random_connected_multigraph(rng, 16, 6) for _ in range(40)]
    for g in graphs:
        a = reduced_laplacian(g, rng.randrange(g.n))
        b = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(a.rows)]
        det, tri, symmetric = _eliminate(a.to_rows())
        assert symmetric and det == determinant(a)
        adj = _adjugate(tri, symmetric)
        solved = [_solve(tri, symmetric, col) for col in zip(*b)]
        assert solved == [[sum(x * y for x, y in zip(row, col)) for row in adj] for col in zip(*b)]
        # e_c starts the forward pass at c, as its first c entries are zero
        units = [[int(i == c) for i in range(a.rows)] for c in range(a.rows)]
        assert [_solve(tri, symmetric, e) for e in units] == [list(c) for c in zip(*adj)]
        if a.rows <= 8:
            ref = sympy.Matrix(a.to_rows()).adjugate()
            assert adj == _sympy_rows(ref)
            assert solved == _sympy_rows((ref * sympy.Matrix(b)).T)


def test_triangle_solve_refuses_swapped_triangle():
    for rows in ([[0, 1], [1, 0]], [[1, 1, 1], [1, 1, 2], [1, 2, 1]], [[1, 2], [3, 4]]):
        det, tri, symmetric = _eliminate([list(r) for r in rows])
        assert det != 0 and not symmetric
        with pytest.raises(ValueError, match="row swaps"):
            _solve(tri, symmetric, [1] * len(rows))
        with pytest.raises(ValueError, match="row swaps"):
            _adjugate(tri, symmetric)
    _, tri, symmetric = _eliminate([[2, -1], [-1, 2]])
    with pytest.raises(ValueError, match="3 entries"):
        _solve(tri, symmetric, [1, 2, 3])


def _random_stack(rng, levels):
    """A seeded polygon stack, with random attach positions half the time."""
    ks = tuple(rng.randint(2, 6) for _ in range(levels))
    positions = [rng.randrange(ks[0] if i == 0 else ks[i] - 1) for i in range(len(ks) - 1)]
    return polygon_stack(ks, positions if rng.random() < 0.5 else None).graph


def _path_with_chords(rng, n):
    edges = {(i, i + 1): 1 for i in range(n - 1)}
    for _ in range(n // 5 + 1):
        u, v = sorted(rng.sample(range(n), 2))
        edges[u, v] = edges.get((u, v), 0) + 1
    return Multigraph(n, edges)


def _spanning_tree_plus_edges(rng, n, degree):
    """A random spanning tree on n vertices plus random simple edges, up to
    an average degree of about `degree`."""
    edges = {tuple(sorted((v, rng.randrange(v)))): 1 for v in range(1, n)}
    while len(edges) < n * degree // 2:
        edges[tuple(sorted(rng.sample(range(n), 2)))] = 1
    return Multigraph(n, edges)


def test_sparse_kernel_matches_dense_and_sympy():
    """det L and adj(L) b of the minimum-degree kernel equal those of the
    dense `_eliminate` and `_solve` at several q, and sympy's on the
    smaller Laplacians, on sparse graphs (stacks, paths with chords), on
    dense ones, and on 60-vertex graphs of average degree 8 to 20, whose
    elimination fills nearly completely."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1995)
    graphs = [_random_stack(rng, rng.randint(1, 10)) for _ in range(30)]
    graphs += [_path_with_chords(rng, n) for n in (2, 5, 12, 30)]
    graphs += [random_connected_multigraph(rng, 14, 4) for _ in range(30)]
    graphs += [complete_graph(n) for n in (2, 5, 9)] + [cycle_graph(n) for n in (2, 7)]
    graphs += [_spanning_tree_plus_edges(rng, 60, d) for d in (8, 12, 16, 20)]
    for g in graphs:
        for q in sorted({0, rng.randrange(g.n), g.n - 1}):
            a = reduced_laplacian(g, q)
            det, tri, symmetric = _eliminate(a.to_rows())
            sparse_det, solve = sparse._sparse_factor(g.n, g.edge_items(), q)
            assert sparse_det == det > 0
            b = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(a.rows)]
            solved = [solve(col) for col in zip(*b)]
            assert solved == [_solve(tri, symmetric, col) for col in zip(*b)]
            if a.rows <= 6:
                ref = sympy.Matrix(a.to_rows())
                assert sparse_det == ref.det()
                assert solved == _sympy_rows((ref.adjugate() * sympy.Matrix(b)).T)
            with pytest.raises(ValueError, match="expected"):
                solve([1] * (a.rows + 1))


def test_sparse_kernel_stops_at_a_zero_pivot():
    """A disconnected graph with as many distinct edges as a spanning tree
    passes the edge-count refusal. Its Laplacian is positive semidefinite
    and singular, so some pivot is 0, and both the kernel and the entry
    give det 0 and no solve, at every q."""
    k4_and_triangle = Multigraph(7, [*itertools.combinations(range(4), 2), (4, 5), (5, 6), (4, 6)])
    seven_cycle = {(7 + i, 7 + (i + 1) % 7): 1 for i in range(7)}
    stack_and_cycle = Multigraph(14, {**polygon_stack((4, 4, 3)).graph.edge_dict(), **seven_cycle})
    k5_and_isolated = Multigraph(6, itertools.combinations(range(5), 2))
    for g in (k4_and_triangle, stack_and_cycle, k5_and_isolated):
        assert len(g.edge_items()) >= g.n - 1
        for q in range(g.n):
            assert determinant(IntMatrix.from_rows(linalg._laplacian(g.n, g._edges, q))) == 0
            assert sparse._sparse_factor(g.n, g.edge_items(), q) == (0, None)
            assert linalg._factor_laplacian(g, q) == (0, None)


def test_kernel_dispatch_by_work_estimate(monkeypatch):
    """`_factor_laplacian` chooses the kernel from the edge count alone.
    Random multigraphs of 20 to 48 vertices, as dense as the benchmark's,
    never reach the sparse kernel and run densely; polygon stacks of 16 or
    more vertices, and paths with chords, reach it and run it to the end.
    The entry gives the same det either way."""
    def refuse(*args):
        raise AssertionError("the sparse kernel ran")

    monkeypatch.setattr(linalg, "_sparse_factor", refuse)
    rng = random.Random(7)
    dense = 0
    while dense < 60:
        g = random_connected_multigraph(rng, 60, 30)
        if 20 <= g.n <= 48:
            dense += 1
            assert linalg._factor_laplacian(g, g.n - 1)[0] == determinant(reduced_laplacian(g, g.n - 1))
    ran = []

    def spy(n, edges, q):
        ran.append(n)
        return sparse._sparse_factor(n, edges, q)

    monkeypatch.setattr(linalg, "_sparse_factor", spy)
    graphs = [_random_stack(rng, rng.randint(6, 40)) for _ in range(60)]
    graphs += [polygon_stack((4,) * m).graph for m in (7, 20, 100)]
    graphs += [_path_with_chords(rng, n) for n in (16, 50, 200)]
    for g in graphs:
        if g.n >= 16:
            det, solve = linalg._factor_laplacian(g, g.n - 1)
            assert ran.pop() == g.n and solve is not None
            assert det == determinant(IntMatrix.from_rows(linalg._laplacian(g.n, g._edges, g.n - 1)))


def test_determinant_on_laplacians():
    # Cayley: K_n has n^(n-2) spanning trees
    for n in range(2, 13):
        assert determinant(reduced_laplacian(complete_graph(n), n - 1)) == n ** (n - 2)
    for g in enumerate_connected_simple_graphs(5):
        if g.n > 1:
            a = reduced_laplacian(g, g.n - 1)
            assert determinant(a) == cofactor_det(a.to_rows())


def test_snf_examples():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert dec.diagonal() == [1, 6]
    k4 = reduced_laplacian(complete_graph(4), 3)
    assert smith_normal_form(k4).diagonal() == [1, 4, 4]
    zero = smith_normal_form(IntMatrix(2, 2, [0, 0, 0, 0]))
    assert zero.diagonal() == [0, 0]
    assert zero.u == IntMatrix.identity(2)
    assert zero.v == IntMatrix.identity(2)
    # pivots that do not divide the rest: diag(6, 10, 15) folds in more than
    # one row, and the 3x4 case folds a row above a trailing zero row
    six = IntMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    assert _check_snf(six).diagonal() == [1, 30, 30]
    wide = IntMatrix.from_rows([[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 0]])
    assert _check_snf(wide).diagonal() == [1, 6, 0]


def _check_snf(a):
    dec = smith_normal_form(a)
    assert (dec.u @ a @ dec.v) == dec.d
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero  # zeros trail
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return dec


def test_snf_random_properties():
    rng = random.Random(2024)
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        a = IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        dec = _check_snf(a)
        if r == c:
            prod = 1
            for d in dec.diagonal():
                prod *= d
            assert abs(determinant(a)) == prod


def test_snf_permutation_invariance():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        a_rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        a = IntMatrix.from_rows(a_rows)
        perm_r = rng.sample(range(n), n)
        perm_c = rng.sample(range(n), n)
        b = IntMatrix.from_rows([[a_rows[i][j] for j in perm_c] for i in perm_r])
        assert smith_normal_form(a).diagonal() == smith_normal_form(b).diagonal()


def _spy(monkeypatch, name, real):
    """Record the arguments of every call `linalg` makes to `name`."""
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, spy, raising=False)
    return calls


def test_modular_smith_matches_reference(monkeypatch):
    """`_smith_mod` on seeded wide, tall and square matrices mod D: its
    pivots are gcd(D, d) over the integer Smith form's diagonal, padded
    with D, one for each input row; each rebuilt row of U, times the
    matrix, vanishes mod its pivot; and the rows of U together are
    invertible mod D. Scaled matrices and D sharing their factors leave
    non-unit pivots and rows left zero. Matrices shaped like the
    certificates of `critical_group`, 1 to 8 rows of 20 to 48 residues of
    D = f times a 64-bit number that all share a prime of f with D, have
    no unit entry, so every pivot is a non-unit or is made by a fold, as
    are those of three fixed blocks where no single entry has gcd(D,
    block).

    Small blocks mix the kinds of pivot, and `steps` shows the path each
    takes: a fold step is a nonzero t returned by the fold's search
    `_least_t`, seen by a profile hook; pow(x, -1, D) inverts a unit pivot
    x, pow(x/g, -1, D/g) a non-unit one, and a pivot x equal to g needs
    no pow."""
    rng = random.Random(97)
    seen = set()

    def check(a, D):
        rows = a.to_rows()
        pivots, u_row = _smith_mod(rows, D)
        assert rows == a.to_rows()  # the input is left as it was
        diagonal = smith_normal_form(a).diagonal()
        s = [gcd(D, d) for d in diagonal] + [D] * (a.rows - len(diagonal))
        assert [p for _, p in pivots] == s
        assert sorted(label for label, _ in pivots) == list(range(a.rows))
        u = [u_row(label) for label, _ in pivots]
        for (_, p), row in zip(pivots, u):
            assert all(sum(x * y for x, y in zip(row, col)) % p == 0 for col in zip(*rows))
        assert gcd(determinant(IntMatrix.from_rows(u)), D) == 1
        seen.update("unit" if p == 1 else "zero" if p == D else "non-unit" for p in s)

    for _ in range(25):
        for r, c in ((2, 6), (3, 8), (6, 2), (7, 3), (1, 1), (4, 4), (6, 6)):
            scale = rng.choice((1, 2, 6, 10))
            a = IntMatrix(r, c, [scale * rng.randint(-9, 9) for _ in range(r * c)])
            check(a, rng.choice((1, 5, 7, 11)) * 2 ** rng.randint(0, 5) * 3 ** rng.randint(0, 3))
    for rows, D in (([[2, 0], [0, 3]], 6), ([[6, 10, 15]], 30), ([[6], [10], [15]], 30)):
        check(IntMatrix.from_rows(rows), D)
    assert seen == {"unit", "non-unit", "zero"}
    seen.clear()
    for case in range(16):
        r, c = rng.randint(1, 8), rng.randint(20, 48)
        f = rng.choice((4, 6, 12, 30, 72, 210))
        primes = [p for p in (2, 3, 5, 7) if f % p == 0]
        D = f * rng.getrandbits(64)
        if case % 2:  # each entry a multiple of some prime of f
            rows = [[rng.choice(primes) * rng.randrange(D) % D for _ in range(c)] for _ in range(r)]
        else:  # combinations of up to r rows, all multiples of one prime of f
            g = rng.choice(primes)
            base = [[g * rng.randrange(D) % D for _ in range(c)] for _ in range(rng.randint(1, r))]
            coef = [[rng.randint(-3, 3) for _ in base] for _ in range(r)]
            rows = [[sum(k * b[j] for k, b in zip(ks, base)) % D for j in range(c)] for ks in coef]
        assert all(gcd(x, D) > 1 for row in rows for x in row)
        check(IntMatrix.from_rows(rows), D)
    assert seen == {"unit", "non-unit", "zero"}

    def steps(rows, D):
        events = []

        def invert(x, e, m):
            events.append("unit" if m == D else "non-unit")
            return pow(x, e, m)

        def hook(frame, event, t):
            if event == "return" and frame.f_code.co_name == "_least_t" and t:
                events.append("fold")

        with monkeypatch.context() as m:
            m.setattr(linalg, "pow", invert, raising=False)
            profile = sys.getprofile()
            sys.setprofile(hook)
            try:
                pivots, _ = _smith_mod(rows, D)
            finally:
                sys.setprofile(profile)
        check(IntMatrix.from_rows(rows), D)
        return events, [s for _, s in pivots]

    # no entry is prime to 6, but gcd(6, 2, 3) = 1: row 0 += row 1 folds
    # the pivot 2 into 5, a unit, whose step clears its column; the entry
    # left, -13, is a unit pivot after it
    assert steps([[2, 3], [3, 2]], 6) == (["fold", "unit", "unit"], [1, 1])
    # the same, and then the rows of the second unit step, left unreduced,
    # meet the non-unit pivot 10 = 2 * 5, inverted as 5 mod 6
    assert steps([[2, 3, 4], [3, 2, 0], [4, 0, 6]], 12) == (["fold", "unit", "unit", "non-unit"], [1, 1, 2])
    # column 0 holds no unit, and the smallest residue, 2, is not one, so
    # the first unit, 5 in row 2, is the pivot; the 2 x 2 block left has no
    # unit, and row 0 += row 1 folds its 4 into 7, 1 mod 6, which needs no
    # pow; the entry left, -13, is a unit pivot after it
    assert steps([[2, 3, 2], [3, 4, 0], [0, 6, 5]], 6) == (["unit", "fold", "unit"], [1, 1, 1])
    # the unit step on the pivot 1 leaves the rows [-2, 4] and [4, 2], with
    # no unit left; g = 2 and the smallest residues are 2 = g, so no pivot
    # needs a pow
    assert steps([[1, 5, 5], [1, 3, 9], [1, 9, 7]], 12) == ([], [1, 2, 2])
    # gcd(6, column 0) = 2: column 0 += column 1 takes it to 1, and then
    # row 0 += row 1 takes the entry 2 to the unit 5
    assert steps([[2, 0], [0, 3]], 6) == (["fold", "fold", "unit"], [1, 6])


def test_modular_smith_call_budget(monkeypatch):
    """`smith_rows_mod` on K_30 and K_60, whose n - 2 invariant factors are
    all n: pow is called twice, for the first pivot, a unit, and for the
    second, whose smallest residue has gcd n with D; every later pivot is
    n = gcd(D, block) itself and needs no inverse. Once D and the block
    share a factor, as they do after the first pivot, no unit is left and
    the search for one stops: gcd is called twice a pivot, for g and for
    the smallest residue, where a search that never stops calls it 463 and
    1,828 times."""
    for m in (30, 60):
        a = reduced_laplacian(complete_graph(m), m - 1)
        det = determinant(a)
        with monkeypatch.context() as mp:
            pows, gcds = _spy(mp, "pow", pow), _spy(mp, "gcd", gcd)
            assert smith_rows_mod(a, det)[0] == [m] * (m - 2)
        assert len(pows) <= 4
        assert len(gcds) <= 3 * m


def test_image_membership():
    assert solve_image_membership(IntMatrix.from_rows([[2]]), [4])
    assert not solve_image_membership(IntMatrix.from_rows([[2]]), [3])
    # 3 * delta is principal on a triangle: enumerating firing vectors z in a
    # small box finds L* z = (3, 0)
    lap = reduced_laplacian(cycle_graph(3), 2)
    rows = lap.to_rows()
    found = any(
        [sum(rows[i][k] * z[k] for k in range(2)) for i in range(2)] == [3, 0]
        for z in itertools.product(range(-4, 5), repeat=2)
    )
    assert found
    assert solve_image_membership(lap, [3, 0])
    assert not solve_image_membership(lap, [1, 0])
    with pytest.raises(ValueError):
        solve_image_membership(lap, [1, 0, 0])


def test_membership_matches_enumeration():
    rng = random.Random(77)
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        a = IntMatrix(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        rows = a.to_rows()
        reachable = set()
        for z in itertools.product(range(-4, 5), repeat=c):
            reachable.add(tuple(sum(rows[i][k] * z[k] for k in range(c)) for i in range(r)))
        for _ in range(15):
            b = [rng.randint(-2, 2) for _ in range(r)]
            if tuple(b) in reachable:
                assert solve_image_membership(a, b)
