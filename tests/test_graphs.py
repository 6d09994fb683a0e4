import itertools
import random
import re
import tracemalloc

import pytest

from critgroups import (
    IntMatrix,
    Multigraph,
    QuadraticNumber,
    add_path,
    alternating_tables,
    are_equivalent,
    brute_spanning_forests,
    brute_spanning_trees,
    complete_graph,
    configuration_order,
    constant_k_closed_form,
    constant_k_table,
    critical_group,
    cycle_graph,
    delete_edges,
    delta_config,
    fire,
    format_graph,
    house_closed_form,
    is_connected,
    pair_report,
    parse_graph,
    parse_stack_spec,
    polygon_stack,
    reduce_to_pair,
    reduced_laplacian,
    replay_log,
    tree_count,
    wedge_sum,
)
from critgroups import graphs, verify


def test_multigraph_invariants():
    g = Multigraph(3, {(0, 1): 2, (1, 2): 1})
    assert g.multiplicity(1, 0) == 2
    assert g.degree(1) == 3
    assert g.edge_count() == 3
    with pytest.raises(ValueError):
        Multigraph(3, {(1, 1): 1})
    with pytest.raises(ValueError):
        Multigraph(3, {(0, 3): 1})
    with pytest.raises(ValueError):
        Multigraph(3, {(0, 1): 0})


def test_cycle_graph():
    c4 = cycle_graph(4)
    assert c4.n == 4 and c4.edge_count() == 4
    c2 = cycle_graph(2)
    assert c2.n == 2 and c2.edge_items() == [((0, 1), 2)]
    c5 = cycle_graph(5)
    assert all(c5.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle_graph(1)


def test_complete_graph():
    assert complete_graph(4).edge_count() == 6
    k1 = complete_graph(1)
    assert k1.n == 1 and k1.edge_count() == 0
    assert complete_graph(3) == cycle_graph(3)
    with pytest.raises(ValueError):
        complete_graph(0)


def test_wedge_sum_counts():
    c3, c5 = cycle_graph(3), cycle_graph(5)
    w = wedge_sum(c3, 1, c5, 2)
    assert w.n == 7
    assert w.edge_count() == 8
    with pytest.raises(ValueError):
        wedge_sum(c3, 3, c5, 0)


def test_wedge_with_single_vertex_is_identity():
    k1 = Multigraph(1)
    g = cycle_graph(4)
    assert wedge_sum(k1, 0, g, 0) == g
    # other attachment vertices relabel but preserve the structure
    w = wedge_sum(k1, 0, g, 2)
    assert w.n == g.n and w.edge_count() == g.edge_count()
    assert sorted(w.degree(v) for v in range(w.n)) == sorted(g.degree(v) for v in range(g.n))


def test_add_path():
    c3 = cycle_graph(3)
    house = add_path(c3, 0, 1, 3)
    assert house.n == 5 and house.edge_count() == 6
    # length 1 bumps multiplicity
    g = add_path(cycle_graph(4), 0, 1, 1)
    assert g.multiplicity(0, 1) == 2
    with pytest.raises(ValueError):
        add_path(c3, 0, 0, 2)
    with pytest.raises(ValueError):
        add_path(c3, 0, 5, 2)
    with pytest.raises(ValueError):
        add_path(c3, 0, 1, 0)


def test_add_path_doubled_edge_tree_count():
    from critgroups import brute_spanning_trees

    g = add_path(cycle_graph(4), 0, 1, 1)
    assert brute_spanning_trees(g) == 7
    assert brute_spanning_trees(cycle_graph(4)) == 4


def test_polygon_stack_house():
    sg = polygon_stack((3, 4))
    assert sg.graph.n == 5 and sg.graph.edge_count() == 6
    assert sg.level_edges == [(0, 1)]
    assert sg.active_pair == (0, 3)
    # (4,3) is isomorphic to the house: same counts, degrees and tree count
    other = polygon_stack((4, 3))
    assert (other.graph.n, other.graph.edge_count()) == (5, 6)
    assert sorted(other.graph.degree(v) for v in range(5)) == sorted(
        sg.graph.degree(v) for v in range(5)
    )
    assert critical_group(other.graph).order == critical_group(sg.graph).order == 11


def test_polygon_stack_multiedge_shapes():
    sg = polygon_stack((2, 2, 4, 2, 2))
    assert sg.graph.n == 4
    mults = sorted(m for _, m in sg.graph.edge_items())
    assert mults == [1, 1, 3, 3]
    assert polygon_stack((5, 4, 3)).graph.n == 8


def test_polygon_stack_single_and_empty():
    for k in range(2, 8):
        assert polygon_stack((k,)).graph == cycle_graph(k)
    empty = polygon_stack(())
    assert empty.graph.n == 1 and empty.graph.edge_count() == 0
    assert empty.active_pair is None
    with pytest.raises(ValueError):
        polygon_stack((3, 1))


def test_polygon_stack_counts_formula():
    rng = random.Random(7)
    for _ in range(40):
        spec = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 5)))
        sg = polygon_stack(spec)
        assert sg.graph.n == spec[0] + sum(k - 2 for k in spec[1:])
        assert sg.graph.edge_count() == sum(spec) - (len(spec) - 1)
        assert is_connected(sg.graph)
        for (u, v) in sg.level_edges:
            assert sg.graph.multiplicity(u, v) >= 1
        a, b = sg.active_pair
        assert sg.graph.multiplicity(a, b) >= 1


def test_alternate_attachments_same_invariant_factors():
    for spec in [(3, 4, 4), (4, 3, 5), (3, 3, 3), (2, 4, 3)]:
        base = critical_group(polygon_stack(spec).graph).invariant_factors
        npos = [spec[0]] + [max(k - 1, 1) for k in spec[1:-1]]
        for pos in itertools.product(*(range(p) for p in npos)):
            alt = polygon_stack(spec, attach_positions=pos)
            assert critical_group(alt.graph).invariant_factors == base


def test_is_connected():
    assert is_connected(cycle_graph(5))
    two_triangles = Multigraph(6, {(0, 1): 1, (1, 2): 1, (0, 2): 1,
                                   (3, 4): 1, (4, 5): 1, (3, 5): 1})
    assert not is_connected(two_triangles)
    assert is_connected(Multigraph(1))


def test_connected_matches_networkx():
    """Union-find connectivity on an edge table against networkx, on seeded
    tables with n from 1 to 12: random subsets of K_n's pairs of every size,
    and random trees before and after one key is moved. So tables with no
    edges, with isolated vertices, with several components and none
    isolated, and with exactly n - 1 keys, spanning or not, all occur."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    kinds = set()
    for n in range(1, 13):
        pairs = list(itertools.combinations(range(n), 2))
        tables = [rng.sample(pairs, rng.randint(0, len(pairs))) for _ in range(40)]
        for _ in range(10):
            label = rng.sample(range(n), n)
            tree = [graphs._key(label[v], label[rng.randrange(v)]) for v in range(1, n)]
            tables.append(tree)
            if tree:
                tree = tree[1:] + [rng.choice(pairs)]
                tables.append(list(dict.fromkeys(tree)))
        for keys in tables:
            table = dict.fromkeys(keys, 1)
            h = nx.Graph(list(table))
            h.add_nodes_from(range(n))
            want = nx.is_connected(h)
            assert graphs._connected(n, table) is want
            assert is_connected(Multigraph(n, table)) is want
            components = nx.number_connected_components(h)
            isolated = any(d == 0 for _, d in h.degree())
            kinds.add("empty" if not table and n > 1 else
                      "isolated" if isolated else
                      "components" if components > 1 else "connected")
            if n > 1 and len(table) == n - 1:
                kinds.add(("n - 1 keys", want))
    assert kinds == {"empty", "isolated", "components", "connected", ("n - 1 keys", True), ("n - 1 keys", False)}


def test_add_path_preserves_connectivity():
    rng = random.Random(3)
    from critgroups import random_connected_multigraph

    for _ in range(25):
        g = random_connected_multigraph(rng, 6, 2)
        x, y = rng.sample(range(g.n), 2)
        assert is_connected(add_path(g, x, y, rng.randint(1, 4)))


def test_delete_edges():
    g = Multigraph(2, {(0, 1): 3})
    assert delete_edges(g, 0, 1, 1).multiplicity(0, 1) == 2
    assert delete_edges(g, 0, 1).edge_count() == 0
    with pytest.raises(ValueError):
        delete_edges(g, 0, 1, 4)
    with pytest.raises(ValueError, match=re.escape("vertices (0,7) out of range for n=4")):
        delete_edges(cycle_graph(4), 0, 7)
    with pytest.raises(ValueError, match="edge endpoints must be distinct"):
        delete_edges(cycle_graph(4), 1, 1)


def test_graph_text_roundtrip():
    sg = polygon_stack((2, 2, 4))
    text = format_graph(sg.graph)
    assert parse_graph(text) == sg.graph
    parsed = parse_graph("# comment\nn 3\ne 0 1\ne 1 2 2\ne 0 1\n")
    assert parsed.multiplicity(0, 1) == 2
    assert parsed.multiplicity(1, 2) == 2
    with pytest.raises(ValueError):
        parse_graph("e 0 1\n")
    with pytest.raises(ValueError):
        parse_graph("n 2\nx 0 1\n")
    for text, message in (
        ("n 3\ne 0 1\ne 1 5\n", "line 3: edge (1,5) out of range"),
        ("n 3\n\ne 2 2\n", "line 3: self-loop at vertex 2"),
        ("e 0 1 0\nn 3\n", "line 1: edge (0,1) has multiplicity 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_graph(text)


def test_storage_grows_with_edges_not_n():
    """A one-edge graph on 10^6 vertices is refused, or counted as having
    no spanning tree, without a dense row of its Laplacian."""
    tracemalloc.start()
    try:
        g = parse_graph("n 1000000\ne 0 1\n")
        with pytest.raises(ValueError, match="graph must be connected"):
            critical_group(g)
        with pytest.raises(ValueError, match="graph must be connected"):
            verify.lorenzini_check(g, 0, 1)
        assert verify._tree_count(g) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert g.degree(0) == 1 and g.neighbors(1) == [0] and g.incident(0) == [(1, 1)]
    assert g.degree(7) == 0 and g.neighbors(7) == [] and g.incident(7) == []


def test_adjacency_is_built_once_on_first_use(monkeypatch):
    """The constructor fills the edge table and the degrees only;
    is_connected reads the edge table, and neighbors builds the adjacency
    on first use, once."""
    calls = []
    build = graphs._adjacency
    monkeypatch.setattr(graphs, "_adjacency", lambda edges: calls.append(edges) or build(edges))
    g = cycle_graph(5)
    assert g.degree(0) == 2 and calls == []
    assert is_connected(g) and is_connected(g)
    assert g.neighbors(0) == [1, 4] and g.incident(0) == [(1, 1), (4, 1)]
    assert len(calls) == 1


@pytest.mark.parametrize("edges, message", [
    ([(0,)], "edge entry (0,) is not (u, v) or (u, v, multiplicity)"),
    ([(0, 1, 1, 5)], "edge entry (0, 1, 1, 5) is not (u, v) or (u, v, multiplicity)"),
    ([5], "edge entry 5 is not (u, v) or (u, v, multiplicity)"),
    ({0: 1}, "edge key 0 is not a vertex pair (u, v)"),
], ids=["short", "long", "int", "int-key"])
def test_malformed_edge_entries_are_named(edges, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        Multigraph(3, edges)


def _stack_with_edge(ks, edge, mult):
    g = polygon_stack(ks).graph
    return Multigraph(g.n, {**g.edge_dict(), edge: mult})


@pytest.mark.parametrize("build, message", [
    (lambda: Multigraph(3, {(0, 1): 1.5, (1, 2): 1, (0, 2): 1}), "edge (0,1) with multiplicity 1.5"),
    (lambda: _stack_with_edge((4,) * 10, (0, 1), 1.5), "edge (0,1) with multiplicity 1.5"),
    (lambda: Multigraph(3, {(0.0, 1): 1}), "edge (0.0,1) with multiplicity 1"),
    (lambda: IntMatrix(1, 1, [2.9]), "entry 0 is 2.9"),
    (lambda: tree_count((3.7, 4)), "stack entry 0 is 3.7"),
    (lambda: polygon_stack((3.9,)), "stack entry 0 is 3.9"),
    (lambda: polygon_stack((3, 4, 4), [0, 1.0]), "attach position 1 is 1.0"),
    (lambda: fire(cycle_graph(3), [1.5, -1.5, 0], 0), "chip count at vertex 0 is 1.5"),
    (lambda: fire(cycle_graph(3), [1, -1, 0], 0, 1.5), "move (0, 1.5)"),
    (lambda: replay_log(cycle_graph(3), [1, -1, 0], [(1.0, 1)]), "move (1.0, 1)"),
    (lambda: reduce_to_pair(polygon_stack((3, 4)), [0, 0, 0, 0.5, -0.5], 0), "chip count at vertex 3 is 0.5"),
    (lambda: QuadraticNumber(1, 1, 2.5), "discriminant is 2.5"),
    (lambda: constant_k_table(4.5, 3), "polygon size is 4.5"),
    (lambda: alternating_tables(3, 4.5, 2), "polygon size is 4.5"),
    (lambda: delete_edges(cycle_graph(3), 0, 1, 1.0), "count is 1.0"),
    (lambda: brute_spanning_trees(cycle_graph(3), 20.5), "limit is 20.5"),
    (lambda: brute_spanning_forests(cycle_graph(3), 0, 1, 20.5), "limit is 20.5"),
    (lambda: verify.lorenzini_check(cycle_graph(3), 0.0, 1), "x is 0.0"),
    (lambda: verify.lorenzini_check(cycle_graph(3), 0, 1.0), "y is 1.0"),
    (lambda: verify.lorenzini_path_check(cycle_graph(3), 0, 1, 2.0), "length is 2.0"),
    (lambda: reduced_laplacian(cycle_graph(4), 1.5), "q is 1.5"),
    (lambda: critical_group(cycle_graph(4), 1.0), "q is 1.0"),
    (lambda: pair_report(critical_group(cycle_graph(4)), 0.0, 1), "x is 0.0, not an integer"),
    (lambda: delta_config(cycle_graph(4), 0, 1.0), "y is 1.0, not an integer"),
    (lambda: are_equivalent(critical_group(cycle_graph(4)), [0.5, 0, 0, 0], [0] * 4), "c1 at vertex 0 is 0.5"),
    (lambda: are_equivalent(critical_group(cycle_graph(4)), [0] * 4, [1, -1.0, 0, 0]), "c2 at vertex 1 is -1.0"),
    (lambda: configuration_order(critical_group(cycle_graph(4)), [0.0] * 4), "c at vertex 0 is 0.0"),
    (lambda: configuration_order(critical_group(cycle_graph(4)), [1, -1, 0.5, -0.5]), "c at vertex 2 is 0.5"),
    (lambda: brute_spanning_forests(cycle_graph(3), 2.0, 1), "x is 2.0"),
    (lambda: constant_k_closed_form(4, 2.0), "n is 2.0"),
    (lambda: house_closed_form(3.0), "n is 3.0"),
    (lambda: constant_k_table(4, 3.0), "n_max is 3.0"),
    (lambda: alternating_tables(3, 4, 2.0), "n_max is 2.0"),
    (lambda: cycle_graph(4.0), "m is 4.0"),
    (lambda: complete_graph(3.0), "m is 3.0"),
    (lambda: add_path(cycle_graph(4), 0, 2, 3.0), "length is 3.0"),
    (lambda: reduce_to_pair(polygon_stack((3, 4)), [0] * 5, 0.0), "pos is 0.0"),
    (lambda: delete_edges(cycle_graph(4), 0.5, 1), "x is 0.5"),
])
def test_non_integers_are_refused(build, message):
    """Every count, vertex, multiplicity, chip and matrix entry goes through
    operator.index: a float is refused by name, never truncated or compared."""
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


def test_bool_counts_as_one():
    assert critical_group(Multigraph(3, {(0, 1): True, (1, 2): 1, (0, 2): 1})).invariant_factors == [3]
    assert IntMatrix(1, 2, [True, 2]).entries == [1, 2]
    assert fire(cycle_graph(3), [0, 0, 0], 0, True) == [-2, 1, 1]


def test_parse_stack_spec():
    assert parse_stack_spec("3,4,4") == (3, 4, 4)
    assert parse_stack_spec("") == ()
    with pytest.raises(ValueError):
        parse_stack_spec("3,1")
    with pytest.raises(ValueError):
        parse_stack_spec("3,x")


def test_stack_tree_counts_match_recurrence():
    rng = random.Random(11)
    from critgroups import brute_spanning_trees

    for _ in range(20):
        spec = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3)))
        sg = polygon_stack(spec)
        if sg.graph.edge_count() <= 20:
            assert brute_spanning_trees(sg.graph) == tree_count(spec)


def _stack_by_add_path(spec, positions):
    # reference: one add_path per level, as the paper adds each polygon
    g = cycle_graph(spec[0])
    paths, level_edges, chosen = [list(range(spec[0]))], [], []
    for idx, k in enumerate(spec[1:]):
        prev = paths[-1]
        pos = 0 if positions is None else positions[idx]
        x, y = prev[pos], prev[(pos + 1) % len(prev)]
        base_n = g.n
        g = add_path(g, x, y, k - 1)
        paths.append([x, *range(base_n, g.n), y])
        level_edges.append((x, y))
        chosen.append(pos)
    return g, paths, chosen, level_edges, (paths[-1][0], paths[-1][1])


def test_polygon_stack_is_a_fold_of_add_path():
    rng = random.Random(919)
    for _ in range(300):
        spec = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 5)))
        positions = None
        if len(spec) > 1 and rng.random() < 0.5:
            positions = [rng.randrange(spec[0])] + [rng.randrange(k - 1) for k in spec[1:-1]]
        sg = polygon_stack(spec, positions)
        got = (sg.graph, sg.paths, sg.level_positions, sg.level_edges, sg.active_pair)
        assert got == _stack_by_add_path(spec, positions), (spec, positions)
