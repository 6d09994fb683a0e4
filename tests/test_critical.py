import itertools
import random
import re
from collections import deque
from math import gcd, lcm, prod

import pytest

import critgroups.critical as critical
import critgroups.linalg as linalg
import critgroups.sparse as sparse
from critgroups import (
    CriticalGroup,
    IntMatrix,
    Multigraph,
    add_path,
    are_equivalent,
    complete_graph,
    configuration_order,
    critical_group,
    cycle_graph,
    delta_config,
    determinant,
    direct_sum_factors,
    find_generating_pairs,
    fire,
    is_cyclic,
    pair_report,
    polygon_stack,
    random_connected_multigraph,
    reduce_to_pair,
    reduced_laplacian,
    smith_normal_form,
    smith_rows_mod,
    solve_image_membership,
    tree_count,
    wedge_sum,
)


def paw_graph():
    # triangle on 1, 2, 3 with a pendant edge to 0
    return Multigraph(4, {(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})


def wedge_3_5():
    return wedge_sum(cycle_graph(3), 0, cycle_graph(5), 0)


def wedge_3_5_7():
    return wedge_sum(wedge_3_5(), 0, cycle_graph(7), 0)


def test_reduced_laplacian_examples():
    assert reduced_laplacian(cycle_graph(3), 2).to_rows() == [[2, -1], [-1, 2]]
    assert reduced_laplacian(cycle_graph(2), 1).to_rows() == [[2]]
    house = polygon_stack((3, 4)).graph
    assert determinant(reduced_laplacian(house, 4)) == 11
    with pytest.raises(ValueError):
        reduced_laplacian(Multigraph(1), 0)
    disconnected = Multigraph(4, {(0, 1): 1, (2, 3): 1})
    with pytest.raises(ValueError):
        reduced_laplacian(disconnected, 0)


def test_reduced_laplacian_determinant_independent_of_q():
    for g in (cycle_graph(5), complete_graph(4), paw_graph(), polygon_stack((3, 4)).graph):
        dets = {abs(determinant(reduced_laplacian(g, q))) for q in range(g.n)}
        assert len(dets) == 1


def test_critical_group_examples():
    assert critical_group(wedge_3_5()).invariant_factors == [15]
    assert critical_group(complete_graph(5)).invariant_factors == [5, 5, 5]
    path6 = Multigraph(6, {(i, i + 1): 1 for i in range(5)})
    kg = critical_group(path6)
    assert kg.invariant_factors == [] and kg.order == 1
    single = critical_group(Multigraph(1))
    assert single == CriticalGroup([], 1, 0, 1, [])
    with pytest.raises(ValueError, match="vertex 1 out of range for n=1"):
        critical_group(Multigraph(1), 1)
    with pytest.raises(ValueError, match="graph has no vertices"):
        critical_group(Multigraph(0))
    with pytest.raises(ValueError):
        critical_group(Multigraph(4, {(0, 1): 1, (2, 3): 1}))


def test_order_is_tree_count():
    from critgroups import brute_spanning_trees

    rng = random.Random(9)
    for _ in range(25):
        g = random_connected_multigraph(rng, 5, 2)
        if g.edge_count() <= 20:
            assert critical_group(g).order == brute_spanning_trees(g)


def test_delta_config():
    c4 = cycle_graph(4)
    assert delta_config(c4, 0, 1) == [1, -1, 0, 0]
    assert delta_config(c4, 1, 0) == [-x for x in delta_config(c4, 0, 1)]
    assert sum(delta_config(c4, 2, 0)) == 0
    with pytest.raises(ValueError):
        delta_config(c4, 1, 1)


def test_configuration_orders_on_wedge():
    g = wedge_3_5()
    kg = critical_group(g)
    # adjacent pairs sit on a 3-cycle or a 5-cycle: order 3 or 5
    for (x, y), _ in g.edge_items():
        assert configuration_order(kg, delta_config(g, x, y)) in (3, 5)
    # vertex 1 on the triangle, vertex 4 two steps around the pentagon
    assert configuration_order(kg, delta_config(g, 1, 4)) == 15
    assert configuration_order(kg, [0] * g.n) == 1
    with pytest.raises(ValueError):
        configuration_order(kg, [1] + [0] * (g.n - 1))


def test_configuration_order_divides_group_order():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_multigraph(rng, 6, 2)
        kg = critical_group(g)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                o = configuration_order(kg, delta_config(g, x, y))
                assert kg.order % o == 0
                assert o == configuration_order(kg, delta_config(g, y, x))


def test_are_equivalent_paw():
    g = paw_graph()
    kg = critical_group(g)
    assert are_equivalent(kg, [0, 4, -1, -1], [1, 1, 0, 0])
    assert not are_equivalent(kg, [0, 0, 0, 0], [1, 0, 0, 0])  # degrees differ
    rng = random.Random(1)
    for _ in range(20):
        c = [rng.randint(-3, 3) for _ in range(4)]
        v = rng.randrange(4)
        assert are_equivalent(kg, c, fire(g, c, v, rng.randint(-2, 2)))


def _equivalence_oracle_set(g, radius):
    """All values of L* z for integer firing vectors z in a box."""
    kg = critical_group(g)
    rows = reduced_laplacian(g, kg.deleted_vertex).to_rows()
    m = len(rows)
    out = set()
    for z in itertools.product(range(-radius, radius + 1), repeat=m):
        out.add(tuple(sum(rows[i][k] * z[k] for k in range(m)) for i in range(m)))
    return kg, out


def test_equivalence_against_firing_vector_enumeration():
    path3 = Multigraph(3, {(0, 1): 1, (1, 2): 1})
    cases = [
        (cycle_graph(3), 2),
        (path3, 2),
        (cycle_graph(4), 2),
        (paw_graph(), 2),
        (cycle_graph(5), 1),
    ]
    for g, width in cases:
        kg, reachable = _equivalence_oracle_set(g, radius=8)
        q = kg.deleted_vertex
        for c in itertools.product(range(-width, width + 1), repeat=g.n):
            if sum(c) != 0:
                continue
            b = tuple(x for i, x in enumerate(c) if i != q)
            assert are_equivalent(kg, list(c), [0] * g.n) == (b in reachable)


def _bfs_reaches_zero(g, c, box=6, max_states=100000):
    start = tuple(c)
    target = (0,) * g.n
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == target:
            return True
        for v in range(g.n):
            for step in (1, -1):
                nxt = tuple(fire(g, list(state), v, step))
                if all(abs(x) <= box for x in nxt) and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        assert len(seen) <= max_states
    return False


def test_equivalence_against_move_search():
    path3 = Multigraph(3, {(0, 1): 1, (1, 2): 1})
    for g in (cycle_graph(3), path3):
        kg = critical_group(g)
        for c in itertools.product(range(-2, 3), repeat=3):
            if sum(c) != 0:
                continue
            assert _bfs_reaches_zero(g, c) == are_equivalent(kg, list(c), [0, 0, 0])


def test_generating_pairs_on_cycles():
    for n in (5, 6, 8):
        for rep in find_generating_pairs(cycle_graph(n)):
            assert rep.generates == (gcd(rep.x - rep.y, n) == 1)


def test_cyclic_group_without_generating_pair():
    g = wedge_3_5_7()
    kg = critical_group(g)
    assert kg.invariant_factors == [105]
    reports = find_generating_pairs(g)
    assert len(reports) == g.n * (g.n - 1) // 2
    assert not any(r.generates for r in reports)
    assert {r.element_order for r in reports} <= {3, 5, 7, 15, 21, 35}


def test_house_generating_pair():
    sg = polygon_stack((3, 4))
    kg = critical_group(sg.graph)
    # the middle pair of the added path
    assert pair_report(kg, 3, 4).generates


def test_trivial_group_pairs_generate():
    path4 = Multigraph(4, {(i, i + 1): 1 for i in range(3)})
    for rep in find_generating_pairs(path4):
        assert rep.element_order == 1 and rep.generates


def test_is_cyclic():
    assert is_cyclic(critical_group(polygon_stack((3, 4)).graph))
    assert not is_cyclic(critical_group(complete_graph(4)))
    tree = Multigraph(3, {(0, 1): 1, (1, 2): 1})
    assert is_cyclic(critical_group(tree))


def test_direct_sum_factors():
    assert direct_sum_factors([3], [5]) == [15]
    assert direct_sum_factors([4, 4], []) == [4, 4]
    assert direct_sum_factors([2], [4]) == [2, 4]
    assert direct_sum_factors([6], [4]) == [2, 12]
    assert direct_sum_factors([], []) == []
    p, q = 2**31 - 1, 2147483629  # both prime: trial division would not finish
    assert direct_sum_factors([6 * p * q], [4 * p]) == [2 * p, 12 * p * q]
    assert direct_sum_factors([p * q], [3]) == [3 * p * q]
    assert direct_sum_factors([1, 1], [3]) == [3]  # trivial factors are dropped
    for fs1, fs2, least in (([-2], [4], -2), ([0], [4], 0), ([4], [6, 0], 0), ([3, -1], [-5], -5)):
        with pytest.raises(ValueError, match=f"invariant factor {least} is below 1"):
            direct_sum_factors(fs1, fs2)
    with pytest.raises(TypeError, match=re.escape("fs2[0] is 2.5, not an integer")):
        direct_sum_factors([3], [2.5])


def test_wedge_lemma():
    rng = random.Random(55)
    for _ in range(40):
        g1 = random_connected_multigraph(rng, 5, 2)
        g2 = random_connected_multigraph(rng, 5, 2)
        v1, v2 = rng.randrange(g1.n), rng.randrange(g2.n)
        kw = critical_group(wedge_sum(g1, v1, g2, v2))
        k1, k2 = critical_group(g1), critical_group(g2)
        assert kw.order == k1.order * k2.order
        assert kw.invariant_factors == direct_sum_factors(
            k1.invariant_factors, k2.invariant_factors
        )


def test_path_addition_theorem_small():
    rng = random.Random(14)
    bases = 0
    while bases < 10:
        g = random_connected_multigraph(rng, 5, 1)
        generating = [r for r in find_generating_pairs(g) if r.generates]
        if not generating:
            continue
        bases += 1
        x, y = generating[0].x, generating[0].y
        for ell in (1, 2, 3, 4):
            extended = add_path(g, x, y, ell)
            kg = critical_group(extended)
            chain = [x] + list(range(g.n, g.n + ell - 1)) + [y]
            for a, b in zip(chain, chain[1:]):
                assert pair_report(kg, a, b).generates


def test_queries_match_snf_reference():
    """Every query against U and D of the full SNF, for several deleted vertices."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(23)
    for _ in range(200):
        g = random_connected_multigraph(rng, 7, 3)
        n = g.n
        oracle = invariant_factors(sympy.Matrix(reduced_laplacian(g, 0).to_rows()), domain=sympy.ZZ)
        factors = [int(f) for f in oracle if f != 1]
        for q in sorted({0, n // 2, n - 1}):
            kg = critical_group(g, q)
            assert (kg.deleted_vertex, kg.invariant_factors) == (q, factors)
            a = reduced_laplacian(g, q)
            dec = smith_normal_form(a)

            def restrict(c):
                return [x for i, x in enumerate(c) if i != q]

            def ref_order(c):
                w = dec.u.mult_vector(restrict(c))
                return lcm(*(d // gcd(d, wi) for d, wi in zip(dec.diagonal(), w)))

            orders = {}
            for x in range(n):
                for y in range(x + 1, n):
                    rep = pair_report(kg, x, y)
                    orders[x, y] = ref_order(delta_config(g, x, y))
                    assert (rep.element_order, rep.generates) == (orders[x, y], orders[x, y] == kg.order)
            c1 = [rng.randint(-3, 3) for _ in range(n)]
            c1[rng.randrange(n)] -= sum(c1)
            (x, y), o = rng.choice(sorted(orders.items()))
            c_multiple = [ci + o * di for ci, di in zip(c1, delta_config(g, x, y))]
            c_fired = fire(g, c1, rng.randrange(n), rng.randint(-2, 2))
            c_random = [rng.randint(-3, 3) for _ in range(n)]
            c_random[rng.randrange(n)] -= sum(c_random)
            for c2 in (c_multiple, c_fired, c_random):
                diff = [u - v for u, v in zip(c1, c2)]
                assert configuration_order(kg, diff) == ref_order(diff)
                assert are_equivalent(kg, c1, c2) == solve_image_membership(a, restrict(diff))
            assert are_equivalent(kg, c1, c_multiple) and are_equivalent(kg, c1, c_fired)


def _spy_smith_rows_mod(monkeypatch):
    """Count the calls `critical_group` makes to `smith_rows_mod`."""
    calls = []

    def spy(a, det):
        calls.append(det)
        return smith_rows_mod(a, det)

    monkeypatch.setattr(critical, "smith_rows_mod", spy)
    return calls


def test_cyclic_certificate_rows(monkeypatch):
    """A certified group has factors in the chain order that multiply to
    |K|, and for each factor d a row that vanishes mod d on every column of
    L and has gcd 1 with d; a cyclic one has the one factor |K|."""
    calls = _spy_smith_rows_mod(monkeypatch)
    rng = random.Random(61)
    cyclic = non_cyclic = 0
    for _ in range(200):
        g = random_connected_multigraph(rng, 12, 4)
        before = len(calls)
        kg = critical_group(g)
        if len(calls) > before or kg.order == 1:
            continue
        d, q = kg.order, kg.deleted_vertex
        factors = kg.invariant_factors
        assert prod(factors) == d and all(b % a == 0 for a, b in zip(factors, factors[1:]))
        cyclic += factors == [d]
        non_cyclic += len(factors) > 1
        cols = list(zip(*reduced_laplacian(g, q).to_rows()))
        for f, full in zip(factors, kg.rows):
            row = [x for i, x in enumerate(full) if i != q]
            for col in cols:
                assert sum(u * x for u, x in zip(row, col)) % f == 0
            assert gcd(f, *row) == 1
    assert cyclic > 100 and non_cyclic > 10


def test_certificate_rows_match_the_paper_reduction(monkeypatch):
    """The paper's reduction is an oracle for the certificate of a polygon
    stack, whose group K is cyclic of order T = tree_count(ks):
    `reduce_to_pair` takes e_v - e_q onto a_v delta(x, y) for a pair (x, y)
    of consecutive top-path vertices, and delta(x, y) generates K. So the
    certificate row, which maps e_v - e_q to row[v], is v -> a_v mod T
    times the one unit row[x] - row[y]. Seeded stacks of at most 40
    vertices, half with random attach positions, most of them large enough
    for `critical_group` to factor L sparsely, which a spy on the sparse
    kernel counts."""
    rng = random.Random(1985)
    went_sparse, sizes = [], []

    def spy(n, edges, q):
        went_sparse.append(n)
        return sparse._sparse_factor(n, edges, q)

    monkeypatch.setattr(linalg, "_sparse_factor", spy)
    for _ in range(40):
        ks = [rng.randint(3, 6)]
        n, cap = ks[0], rng.randint(6, 40)
        while n + (k := rng.randint(2, 6)) - 2 <= cap:
            ks.append(k)
            n += k - 2
        ks = tuple(ks)
        positions = [rng.randrange(ks[0] if i == 0 else ks[i] - 1) for i in range(len(ks) - 1)]
        sg = polygon_stack(ks, positions if rng.random() < 0.5 else None)
        g = sg.graph
        assert g.n == n <= 40
        sizes.append(n)
        kg = critical_group(g)
        t, q = kg.order, kg.deleted_vertex
        assert t == tree_count(ks) and kg.invariant_factors == ([t] if t > 1 else [])
        top = sg.paths[-1]
        pos = rng.randrange(len(top) if len(sg.paths) == 1 else len(top) - 1)
        x, y = top[pos], top[(pos + 1) % len(top)]
        chips = []
        for v in range(g.n):
            c = [0] * g.n
            c[v] += 1
            c[q] -= 1
            out, _ = reduce_to_pair(sg, c, pos)
            assert all(out[u] == 0 for u in range(g.n) if u not in (x, y))
            chips.append(out[x] % t)
        row = kg.rows[0] if kg.rows else [0] * g.n
        unit = (row[x] - row[y]) % t
        assert gcd(unit, t) == 1
        assert [r % t for r in row] == [unit * a % t for a in chips]
    assert len(went_sparse) > 30 and min(sizes) < 16 and max(sizes) > 35


def test_cyclic_groups_need_no_second_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("second elimination")

    passes = []

    def count(g, q):
        passes.append(g.n - 1)
        return linalg._factor_laplacian(g, q)

    monkeypatch.setattr(critical, "smith_rows_mod", refuse)
    monkeypatch.setattr(linalg, "determinant", refuse)
    # nor the reference Smith form, for the certified non-cyclic K_5 too
    monkeypatch.setattr(critical, "smith_normal_form", refuse, raising=False)
    monkeypatch.setattr(linalg, "smith_normal_form", refuse)
    monkeypatch.setattr(critical, "_factor_laplacian", count)
    assert critical_group(wedge_3_5()).invariant_factors == [15]
    kg = critical_group(polygon_stack((3, 5, 6, 4)).graph)
    assert kg.invariant_factors == [kg.order] and kg.order > 1
    assert critical_group(complete_graph(5)).invariant_factors == [5, 5, 5]
    assert passes == [6, 11, 4]


def test_cyclic_groups_read_the_image_where_h_stalls_or_reaches_1(monkeypatch):
    """A cyclic K on a polygon stack takes one solve and no Smith step: the
    first column, e_{n-2}, maps K onto Z/|K| by the class of
    delta(n - 2, n - 1), a pair on the top path, and is K's row as it
    stands. Past one column, `_certify` reads the image where h = gcd(|K|,
    columns) reaches 1: on a wedge at the second column, and on a seeded
    random multigraph whose |K| = 5209414040 takes four columns, at the
    fourth, after a read at the third, which leaves h unchanged at 2."""
    cases = [wedge_3_5(), polygon_stack((4,) * 5).graph, random_connected_multigraph(random.Random(20), 12, 4)]
    want = [[d for d in smith_normal_form(reduced_laplacian(g, g.n - 1)).diagonal() if d > 1] for g in cases]
    assert [len(f) for f in want] == [1, 1, 1] and want[2] == [5209414040]

    def refuse(*args):
        raise AssertionError("Smith step on L")

    solved, certified, smith_steps = [], [], []

    def count(g, q):
        det, solve = linalg._factor_laplacian(g, q)
        return det, lambda b: solved.append(solve(b)) or solved[-1]

    def certify(d, cols):
        certified.append(len(cols))
        return real_certify(d, cols)

    def smith_mod(a, d):
        smith_steps.append(len(a))
        return real_smith_mod(a, d)

    real_certify, real_smith_mod = critical._certify, critical._smith_mod
    monkeypatch.setattr(critical, "_certify", certify)
    monkeypatch.setattr(critical, "_smith_mod", smith_mod)
    monkeypatch.setattr(critical, "smith_rows_mod", refuse)
    monkeypatch.setattr(critical, "_factor_laplacian", count)
    counts, reads = [], []
    for g, factors in zip(cases, want):
        solved.clear()
        certified.clear()
        kg = critical_group(g)
        counts.append(len(solved))
        reads.append(certified[:])
        assert kg.invariant_factors == factors
        row = kg.rows[0][:-1]  # the deleted vertex q = n - 1 comes last
        assert gcd(kg.order, *row) == 1
        cols = list(zip(*reduced_laplacian(g, g.n - 1).to_rows()))
        assert all(sum(u * x for u, x in zip(row, col)) % kg.order == 0 for col in cols)
    assert counts == [2, 1, 4]
    assert [gcd(kg.order, *(x for u in solved[:j] for x in u)) for j in range(1, 5)] == [40, 2, 2, 1]
    assert reads == [[2], [], [3, 4]] and smith_steps == [2, 3, 4]


def _graphs_by_rank():
    """Graphs whose groups have rank 0 to 3 (two with unequal factors) and
    5 (K_7), keyed by the rank."""
    return {
        0: [Multigraph(4, {(0, 1): 1, (1, 2): 1, (1, 3): 1})],
        1: [wedge_3_5_7(), polygon_stack((3, 5, 6, 4)).graph, cycle_graph(8)],
        2: [complete_graph(4), wedge_sum(cycle_graph(2), 0, cycle_graph(4), 1)],
        3: [complete_graph(5), wedge_sum(wedge_sum(cycle_graph(2), 0, cycle_graph(4), 0), 3, cycle_graph(6), 0)],
        5: [complete_graph(7)],
    }


def test_pair_scan_matches_pair_report():
    """The scan of `find_generating_pairs`, which takes one coordinate row
    at a time and stops early, against `pair_report`, which takes the lcm
    of the orders in each Z/d_i, at two deleted vertices, on groups of rank
    0 to 3 (two with unequal factors, scaled into Z/e) and K_7 (rank 5)."""
    cases = _graphs_by_rank()
    for rank, graphs in cases.items():
        for g in graphs:
            for q in (0, g.n - 1):
                kg = critical_group(g, q)
                assert len(kg.invariant_factors) == rank
                want = [pair_report(kg, x, y) for x in range(g.n) for y in range(x + 1, g.n)]
                assert critical._pair_reports(kg) == want
            assert find_generating_pairs(g) == want
    assert critical_group(cases[3][1]).invariant_factors == [2, 2, 12]


def test_queries_match_smith_rows_by_rank():
    """`configuration_order` against the U rows of `smith_normal_form` and
    `are_equivalent` against `solve_image_membership`, on the graphs of
    `_graphs_by_rank` at both deleted vertices. Each seeded degree-zero c1
    is compared with c1 fired at a vertex, with c1 plus k delta(x, y) for k
    from 0 to the order of delta(x, y), and with a seeded configuration.
    On K_7, with five coordinates, some pairs that are not equivalent have
    a first coordinate that d_1 divides, so `are_equivalent` stops at a
    later one."""
    rng = random.Random(2015)
    late_exits = 0
    for rank, graphs in _graphs_by_rank().items():
        for g in graphs:
            n = g.n
            for q in (0, n - 1):
                kg = critical_group(g, q)
                a = reduced_laplacian(g, q)
                dec = smith_normal_form(a)
                assert [d for d in dec.diagonal() if d > 1] == kg.invariant_factors and len(kg.rows) == rank

                def restrict(c):
                    return [x for i, x in enumerate(c) if i != q]

                def ref_order(c):
                    w = dec.u.mult_vector(restrict(c))
                    return lcm(*(d // gcd(d, wi) for d, wi in zip(dec.diagonal(), w)))

                for _ in range(6):
                    c1 = [rng.randint(-4, 4) for _ in range(n)]
                    c1[rng.randrange(n)] -= sum(c1)
                    x, y = rng.sample(range(n), 2)
                    delta = delta_config(g, x, y)
                    o = ref_order(delta)
                    c_random = [rng.randint(-4, 4) for _ in range(n)]
                    c_random[rng.randrange(n)] -= sum(c_random)
                    c_fired = fire(g, c1, rng.randrange(n), rng.randint(-2, 2))
                    shifted = [[ci + k * di for ci, di in zip(c1, delta)] for k in range(o + 1)]
                    for c2 in [c_fired, c_random] + shifted:
                        diff = [u - v for u, v in zip(c1, c2)]
                        assert configuration_order(kg, diff) == ref_order(diff)
                        equivalent = solve_image_membership(a, restrict(diff))
                        assert are_equivalent(kg, c1, c2) == are_equivalent(kg, c2, c1) == equivalent
                        if rank == 5 and not equivalent:
                            late_exits += sum(r * x for r, x in zip(kg.rows[0], diff)) % kg.invariant_factors[0] == 0
                    assert are_equivalent(kg, c1, c_fired) and are_equivalent(kg, c1, shifted[o])
                    assert [are_equivalent(kg, c1, c2) for c2 in shifted[:o]] == [True] + [False] * (o - 1)
    assert late_exits > 0


def test_certificate_falls_back_to_smith_rows(monkeypatch):
    calls = _spy_smith_rows_mod(monkeypatch)
    solves = []

    def count(g, q):
        det, solve = linalg._factor_laplacian(g, q)

        def counted(b):
            solves.append(1)
            return solve(b)

        return det, counted

    def certify(d, cols):
        read.append(len(cols))
        return real_certify(d, cols)

    real_certify, read = critical._certify, []
    monkeypatch.setattr(critical, "_factor_laplacian", count)
    monkeypatch.setattr(critical, "_certify", certify)
    # K_11 has rank 9: four columns give four factors short of |K|, and
    # no more are solved
    assert critical_group(complete_graph(11)).invariant_factors == [11] * 9
    assert calls == [11**9] and len(solves) == 4
    # seeded columns that are all even leave only Z/3 of C_6 (Z/6) in the
    # image, however many of them are solved; each column after the first
    # leaves h = 2 and is read once, the last one too
    g = cycle_graph(6)
    want = find_generating_pairs(g)
    certified = critical_group(g)
    assert len(calls) == 1
    columns = critical._certificate_columns
    monkeypatch.setattr(critical, "_certificate_columns", lambda n: [[2 * x for x in c] for c in columns(n)])
    solves.clear()
    read.clear()
    kg = critical_group(g)
    assert calls == [11**9, 6] and len(solves) == critical._CERTIFICATE_COLUMNS
    assert read == [2, 3, 4, 5, 6, 7, 8]
    assert (kg.invariant_factors, kg.order) == (certified.invariant_factors, certified.order) == ([6], 6)
    assert find_generating_pairs(g) == want
    # Z/2 + Z/4: the first seven columns map K onto Z/2 + Z/2, and the last
    # one, which lowers the combined column's gcd with |K| = 8, completes
    # the image; all eight are read at it, with no fallback
    a, b, c = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]
    monkeypatch.setattr(critical, "_certificate_columns", lambda n: [a, b] * 3 + [a, c])
    solves.clear()
    read.clear()
    assert critical_group(wedge_sum(cycle_graph(2), 0, cycle_graph(4), 1)).invariant_factors == [2, 4]
    assert calls == [11**9, 6, 6] and len(solves) == critical._CERTIFICATE_COLUMNS
    assert read == [2, 3, 4, 5, 6, 7, 8]


def _modular_cases():
    """K_2..K_12 (from K_3 on, every pivot after the first is a non-unit),
    a tree (|K| = 1), the two-vertex double edge, wedges and polygon stacks,
    and ten seeded random multigraphs on 20 to 30 vertices (|K| of 14 to
    108 bits, two of them non-cyclic)."""
    yield from (complete_graph(m) for m in range(2, 13))
    yield Multigraph(7, {(0, 1): 1, (1, 2): 1, (1, 3): 1, (3, 4): 1, (4, 5): 1, (4, 6): 1})
    yield cycle_graph(2)
    yield wedge_3_5()
    yield wedge_3_5_7()
    for spec in ((3, 4), (4, 4, 4), (3, 5, 6, 4), (6, 6, 3), (5,) * 6):
        yield polygon_stack(spec).graph
    rng = random.Random(41)
    found = 0
    while found < 10:
        g = random_connected_multigraph(rng, 30, 20)
        if g.n >= 20:
            found += 1
            yield g


def test_modular_rows_match_references():
    """The rows computed mod |K| against sympy's invariant factors and
    against pair and configuration orders read off U and D of the integer
    SNF. smith_rows_mod raises ArithmeticError when its factors do not
    multiply to the determinant, so reaching the asserts means it did not."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for g, q in ((g, q) for g in _modular_cases() for q in sorted({0, g.n - 1})):
        n = g.n
        a = reduced_laplacian(g, q)
        det = determinant(a)
        factors, rows = smith_rows_mod(a, det)
        oracle = invariant_factors(sympy.Matrix(a.to_rows()), domain=sympy.ZZ)
        assert factors == [int(f) for f in oracle if f != 1]
        # each row of U, mod its factor, vanishes on the columns of a
        cols = list(zip(*a.to_rows()))
        for d, row in zip(factors, rows):
            assert all(sum(u * x for u, x in zip(row, col)) % d == 0 for col in cols)
        kg = critical_group(g, q)
        assert (kg.invariant_factors, kg.order) == (factors, det)

        dec = smith_normal_form(a)
        ref = [(d, u) for d, u in zip(dec.diagonal(), dec.u.to_rows()) if d > 1]

        def ref_order(c):
            b = [x for i, x in enumerate(c) if i != q]
            return lcm(*(d // gcd(d, sum(ui * bi for ui, bi in zip(u, b))) for d, u in ref))

        for x in range(n):
            for y in range(x + 1, n):
                assert pair_report(kg, x, y).element_order == ref_order(delta_config(g, x, y))
        for _ in range(5):
            c = [rng.randint(-5, 5) for _ in range(n)]
            c[rng.randrange(n)] -= sum(c)
            assert configuration_order(kg, c) == ref_order(c)


def test_modular_rows_refuse_bad_input():
    a = reduced_laplacian(complete_graph(4), 3)
    assert smith_rows_mod(a, 16)[0] == [4, 4]
    with pytest.raises(ArithmeticError):  # a multiple of |K|: the factors multiply to 16
        smith_rows_mod(a, 32)
    with pytest.raises(ValueError):
        smith_rows_mod(a, 0)
    with pytest.raises(ValueError):
        smith_rows_mod(IntMatrix.from_rows([[1, 2]]), 1)
    # the error names bit lengths: a D of 5,001 digits is past Python's
    # int-to-str limit, and printing it would raise ValueError instead
    x = 10**5000 + 1
    with pytest.raises(ArithmeticError, match="bits"):
        smith_rows_mod(IntMatrix.from_rows([[x]]), 2 * x)


def test_certify_errors_name_bit_lengths(monkeypatch):
    """Forged pivots of `_smith_mod` trip each check of `_certify` on a |K|
    of 5,001 digits, past Python's int-to-str limit: a factor s that does
    not divide |K|, and factors whose product does not. Both raise
    ArithmeticError, as their messages name bit lengths."""
    d = 2 * 10**5000
    for pivots in ([(0, 3)], [(0, 1), (1, 1)]):
        monkeypatch.setattr(critical, "_smith_mod", lambda cols, D, p=pivots: (p, lambda label: [1, 0]))
        with pytest.raises(ArithmeticError, match="bits"):
            critical._certify(d, [[1], [1]])


def _certificate_cases():
    """Seeded multigraphs on 20 to 48 vertices, whose groups are mostly
    cyclic or of rank 2, and wedges of three or more small ones with at
    least 20 vertices, whose groups are direct sums of larger rank."""
    rng = random.Random(2048)
    found = 0
    while found < 16:
        g = random_connected_multigraph(rng, 48, 20)
        if g.n >= 20:
            found += 1
            yield g
    for parts in (3, 3, 4, 4, 5):
        g = random_connected_multigraph(rng, 12, 4)
        while g.n < 20 or parts > 1:
            h = random_connected_multigraph(rng, 12, 4)
            g = wedge_sum(g, rng.randrange(g.n), h, rng.randrange(h.n))
            parts -= 1
        yield g


def test_certificate_matches_references(monkeypatch):
    """Factors against the integer Smith form, and every pair report
    against rows computed mod |K| by `smith_rows_mod`, for groups certified
    cyclic, certified of rank 2 and 3, and left to the fallback."""
    calls = _spy_smith_rows_mod(monkeypatch)
    seen = set()
    for g in _certificate_cases():
        q = g.n - 1
        before = len(calls)
        kg = critical_group(g, q)
        a = reduced_laplacian(g, q)
        assert kg.invariant_factors == [d for d in smith_normal_form(a).diagonal() if d > 1]
        factors, rows = smith_rows_mod(a, kg.order)
        ref = CriticalGroup(factors, kg.order, q, g.n, [r + [0] for r in rows])
        assert critical._pair_reports(kg) == critical._pair_reports(ref)
        rank = len(kg.invariant_factors)
        seen.add("fallback" if len(calls) > before else f"rank {rank}")
    assert seen >= {"rank 1", "rank 2", "rank 3", "fallback"}


def test_critical_group_property():
    """Factor product against the networkx spanning-tree count, the
    divisibility chain, and every pair order against U and D of the
    integer Smith form, on hypothesis multigraphs."""
    hypothesis = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    from test_verify import _connected_multigraphs

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_connected_multigraphs())
    def check(g):
        kg = critical_group(g)
        factors = kg.invariant_factors
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(range(g.n))
        for (u, v), m in g.edge_items():
            nxg.add_edges_from([(u, v)] * m)
        assert prod(factors) == kg.order == round(nx.number_of_spanning_trees(nxg))
        assert all(f > 1 for f in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))
        dec = smith_normal_form(reduced_laplacian(g, kg.deleted_vertex))
        ref = [(d, u) for d, u in zip(dec.diagonal(), dec.u.to_rows()) if d > 1]
        assert [d for d, _ in ref] == factors
        for x in range(g.n):
            for y in range(x + 1, g.n):
                b = delta_config(g, x, y)[:-1]
                want = lcm(*(d // gcd(d, sum(ui * bi for ui, bi in zip(u, b))) for d, u in ref))
                assert pair_report(kg, x, y).element_order == want

    check()
