import hashlib
import random
import re
import sys
import tracemalloc
from math import gcd

import pytest

import critgroups
from critgroups import (
    Multigraph,
    SearchOutcome,
    add_path,
    brute_spanning_forests,
    brute_spanning_trees,
    complete_graph,
    critical_group,
    cycle_graph,
    delete_edges,
    enumerate_connected_simple_graphs,
    forest_count,
    is_connected,
    is_cyclic,
    lorenzini_check,
    lorenzini_path_check,
    polygon_stack,
    coprime_pair_search,
    random_connected_multigraph,
    reverify_outcome,
)


def test_brute_spanning_trees_examples():
    assert brute_spanning_trees(cycle_graph(4)) == 4
    assert brute_spanning_trees(polygon_stack((3, 4)).graph) == 11
    assert brute_spanning_trees(Multigraph(2, {(0, 1): 3})) == 3
    assert brute_spanning_trees(Multigraph(1)) == 1


def test_brute_spanning_trees_errors():
    with pytest.raises(ValueError):
        brute_spanning_trees(Multigraph(4, {(0, 1): 1, (2, 3): 1}))
    big = polygon_stack((6, 6, 6, 6)).graph  # 21 edge instances
    with pytest.raises(ValueError):
        brute_spanning_trees(big)
    assert brute_spanning_trees(big, limit=21) == 1189  # T(6,6,6,6)


def test_brute_limit_is_checked_before_edges_are_listed():
    """A million parallel edges are refused by their count, without a list
    of a million edge instances."""
    g = Multigraph(2, {(0, 1): 10**6})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1000000 edges exceeds enumeration limit 20"):
            brute_spanning_trees(g)
        with pytest.raises(ValueError, match="1000000 edges exceeds enumeration limit 20"):
            brute_spanning_forests(g, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_brute_spanning_forests_examples():
    assert brute_spanning_forests(cycle_graph(4), 0, 1) == 3
    assert brute_spanning_forests(polygon_stack((3, 4)).graph, 3, 4) == 8
    path3 = Multigraph(3, {(0, 1): 1, (1, 2): 1})
    assert brute_spanning_forests(path3, 0, 2) == 2
    with pytest.raises(ValueError):
        brute_spanning_forests(cycle_graph(4), 1, 1)


def test_brute_counts_match_group_order():
    rng = random.Random(6)
    for _ in range(30):
        g = random_connected_multigraph(rng, 5, 2)
        if g.edge_count() <= 20:
            assert brute_spanning_trees(g) == critical_group(g).order


def test_brute_forests_match_forest_count():
    import itertools

    for length in (1, 2, 3):
        for spec in itertools.product(range(2, 6), repeat=length):
            sg = polygon_stack(spec)
            x, y = sg.active_pair
            assert brute_spanning_forests(sg.graph, x, y) == forest_count(spec)


def test_lorenzini_check_triangle():
    rep = lorenzini_check(cycle_graph(3), 0, 1)
    assert rep.order_g == 3
    assert rep.order_g1 == 1  # deleting the edge leaves a path (a tree)
    assert rep.coprime and rep.cyclic_g and rep.g1_connected
    assert rep.pair_generates is True


def test_lorenzini_check_house_roof():
    g = polygon_stack((3, 4)).graph
    rep = lorenzini_check(g, 0, 1)  # shared edge of triangle and square
    assert rep.multiplicity == 1
    assert rep.order_g == 11
    recomputed = lorenzini_check(g, 0, 1)
    assert recomputed == rep


def test_lorenzini_check_disconnecting_edge():
    # deleting the bridge of a bowtie-with-bridge disconnects it
    g = Multigraph(4, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (2, 3): 1})
    rep = lorenzini_check(g, 2, 3)
    assert not rep.g1_connected
    assert rep.order_g1 == 0 and rep.coprime is False
    assert rep.pair_generates is None
    with pytest.raises(ValueError):
        lorenzini_check(g, 0, 3)  # no edge there
    # a tree: |K(G)| = 1 and gcd(1, 0) = 1, yet the deletion is not coprime
    rep = lorenzini_check(Multigraph(3, {(0, 1): 1, (1, 2): 1}), 0, 1)
    assert rep.order_g1 == 0 and rep.coprime is False


def _deletion_cases():
    rng = random.Random(12)
    multigraphs = [random_connected_multigraph(rng, 7, 3) for _ in range(200)]
    return list(enumerate_connected_simple_graphs(5)), multigraphs


def test_deletion_orders_match_snf_reference():
    simple, multigraphs = _deletion_cases()
    for g in simple + multigraphs:
        for (x, y), _ in g.edge_items():
            rep = lorenzini_check(g, x, y)
            g1 = delete_edges(g, x, y)
            if is_connected(g1):
                assert rep.order_g1 == critical_group(g1).order
            else:
                assert rep.order_g1 == 0 and rep.coprime is False


def test_deletion_orders_match_networkx():
    nx = pytest.importorskip("networkx")
    _, multigraphs = _deletion_cases()
    for g in multigraphs:
        for (x, y), _ in g.edge_items():
            g1 = nx.MultiGraph()
            g1.add_nodes_from(range(g.n))
            for (u, v), m in delete_edges(g, x, y).edge_items():
                g1.add_edges_from([(u, v)] * m)
            assert lorenzini_check(g, x, y).order_g1 == round(nx.number_of_spanning_trees(g1))


def test_lorenzini_coprime_implies_cyclic_on_small_graphs():
    for g in enumerate_connected_simple_graphs(4):
        for (x, y), _ in g.edge_items():
            rep = lorenzini_check(g, x, y)
            if rep.coprime:
                assert rep.cyclic_g


def test_lorenzini_path_check():
    rep = lorenzini_path_check(cycle_graph(3), 0, 1, 4)
    assert rep.cyclic_g_prime
    assert all(c.coprime_with_g1 for c in rep.chain)
    assert len(rep.chain) == 4
    one = lorenzini_path_check(cycle_graph(3), 0, 1, 1)
    assert one.cyclic_g_prime and len(one.chain) == 1
    # hypothesis violated: deleting the double edge of C_2 disconnects it
    with pytest.raises(ValueError):
        lorenzini_path_check(cycle_graph(2), 0, 1, 2)


def test_lorenzini_path_orders_match_tree_identities():
    """Each report against a dense elimination of G' itself, and against
    identities that hold for G and G'. Deleting one path edge of G' leaves
    G with pendant trees, so each chain order is |K(G)|. A spanning tree of
    G' either misses one of the l path edges and holds a spanning tree of
    G, or holds the whole path and a two-tree forest of G separating x and
    y, whose count is (|K(G)| - |K(G_1)|) / c by the deletion formula; so
    |K(G')| = l |K(G)| + (|K(G)| - |K(G_1)|) / c."""
    from critgroups.verify import _adjugate, _deletion_count, _is_cyclic

    small = list(enumerate_connected_simple_graphs(4))
    graphs = small + [random_connected_multigraph(random.Random(i), 8, 4) for i in range(100)]
    cases = [(g, (1, 2, 3)) for g in graphs] + [(g, (50,)) for g in small]
    reports = {1: 0, 2: 0, 3: 0, 50: 0}
    for g, lengths in cases:
        for (x, y), c in g.edge_items():
            if not lorenzini_check(g, x, y).coprime:
                continue
            for length in lengths:
                rep = lorenzini_path_check(g, x, y, length)
                gp = add_path(g, x, y, length)
                det, adj = _adjugate(gp.n, gp._edges)
                chain = [x, *range(g.n, g.n + length - 1), y]
                pairs = list(zip(chain, chain[1:]))
                assert rep.order_g_prime == det
                assert [check.pair for check in rep.chain] == pairs
                assert [check.order_g1_prime for check in rep.chain] == [
                    _deletion_count(det, adj, a, b, 1) for a, b in pairs]
                assert rep.cyclic_g_prime is _is_cyclic(adj) is is_cyclic(critical_group(gp))
                order_g, order_g1 = rep.base.order_g, rep.base.order_g1
                assert [check.order_g1_prime for check in rep.chain] == [order_g] * length
                assert (order_g - order_g1) % c == 0
                assert rep.order_g_prime == length * order_g + (order_g - order_g1) // c
                assert all(check.coprime_with_g1 for check in rep.chain)
                reports[length] += 1
    assert reports[50] == 75 and sum(reports.values()) - 75 > 900


def test_coprime_pair_search_determinism():
    a = coprime_pair_search(5, 2, trials=25, seed=7)
    b = coprime_pair_search(5, 2, trials=25, seed=7)
    assert a.examined == b.examined
    assert a.coprime_instances == b.coprime_instances
    assert [(g.edge_items(), pair) for g, pair in a.counterexamples] == [
        (g.edge_items(), pair) for g, pair in b.counterexamples
    ]
    batch = coprime_pair_search(9, 2, trials=80, seed=3)
    assert (batch.examined, batch.coprime_instances) == (774, 298)
    empty = coprime_pair_search(5, 2, trials=0, seed=7)
    assert empty.examined == 0 and empty.counterexamples == []


def test_random_search_draws_samples_as_it_scans(monkeypatch):
    """Each sample's edge table is drawn just before it is scanned, so no
    list of all `trials` graphs is held; the samples are those of one
    seeded stream."""
    import critgroups.verify as verify

    events = []
    draw, adjugate = verify._draw_sample, verify._adjugate
    monkeypatch.setattr(verify, "_draw_sample", lambda *a: events.append("draw") or draw(*a))
    monkeypatch.setattr(verify, "_adjugate", lambda n, edges: events.append("scan") or adjugate(n, edges))
    outcome = coprime_pair_search(6, 1, trials=4, seed=5)
    assert events == ["draw", "scan"] * 4
    rng = random.Random(5)
    samples = [random_connected_multigraph(rng, 6, 1) for _ in range(4)]
    assert outcome.examined == sum(len(g.edge_items()) for g in samples)


def test_scan_of_drawn_tables_matches_tree_counts_and_pair_reports():
    """The scan of each drawn edge table against independent answers: 300
    seeded samples on up to 9 vertices with up to 2 bumps, and 40 on up to
    20 vertices with up to 6. Its examined and coprime counts are those of
    the tree count of each deleted graph, `_delta_generates` is
    `pair_report` on the critical group for every coprime edge, and the
    sampler builds Multigraph(*draw) from the same stream as the draw."""
    import critgroups.verify as verify
    from critgroups import pair_report

    generating = 0
    for seed, (max_vertices, max_extra_edges, trials) in enumerate(((9, 2, 300), (20, 6, 40))):
        drawn, built = random.Random(seed), random.Random(seed)
        for _ in range(trials):
            n, edges = verify._draw_sample(drawn, max_vertices, max_extra_edges)
            g = random_connected_multigraph(built, max_vertices, max_extra_edges)
            assert g == Multigraph(n, edges) and drawn.getstate() == built.getstate()
            examined, coprime, bad = verify._scan(n, edges)
            order = verify._tree_count(g)
            coprime_edges = [(x, y) for (x, y), _ in g.edge_items()
                             if (t1 := verify._tree_count(delete_edges(g, x, y))) > 0 and gcd(order, t1) == 1]
            assert (examined, coprime, bad) == (len(g.edge_items()), len(coprime_edges), [])
            det, adj = verify._adjugate(n, edges)
            kg = critical_group(g)
            assert det == order == kg.order
            for x, y in coprime_edges:
                generates = verify._delta_generates(det, adj, x, y)
                assert generates is pair_report(kg, x, y).generates
                generating += generates
    assert generating > 1000


def test_coprime_pair_search_exhaustive_small(monkeypatch):
    """The labeled counts, from one adjugate per isomorphism class: the 31
    connected graphs on up to 5 vertices."""
    import critgroups.verify as verify

    scanned = []
    adjugate = verify._adjugate
    monkeypatch.setattr(verify, "_adjugate", lambda n, edges: scanned.append(n) or adjugate(n, edges))
    outcome = coprime_pair_search(5, exhaustive=True)
    assert (outcome.examined, outcome.coprime_instances) == (4294, 2265)
    assert len(scanned) == 31
    assert reverify_outcome(outcome)
    # reported counterexamples, if any, must re-verify; none are expected here
    assert outcome.counterexamples == []


def test_relabeling_classes():
    """One class per connected graph up to isomorphism (networkx's atlas
    lists every graph on up to 7 vertices), and orbit weights that together
    count every labeled connected graph."""
    import critgroups.verify as verify

    nx = pytest.importorskip("networkx")
    atlas = {}
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= 6 and nx.is_connected(h):
            atlas[h.number_of_nodes()] = atlas.get(h.number_of_nodes(), 0) + 1
    classes, labeled = {}, {}
    for g, weight in verify._relabeling_classes(6):
        classes[g.n] = classes.get(g.n, 0) + 1
        labeled[g.n] = labeled.get(g.n, 0) + weight
    assert classes == atlas == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    assert labeled == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def test_relabeling_classes_are_pinned():
    """The class walk's output up to 6 vertices, representatives and
    weights in yield order, as a digest of (repr(representative), weight)."""
    import critgroups.verify as verify

    classes = [(repr(g), w) for g, w in verify._relabeling_classes(6)]
    assert len(classes) == 143
    digest = hashlib.sha256(repr(classes).encode()).hexdigest()
    assert digest == "6f9fc984c4c2aef35a29df5f362c46004200d79e85725853779b1f7611cf0f7d"


def test_vertex_pairs_are_the_mask_bits():
    """Bit i of an edge mask stands for pair i of K_n, in lexicographic order."""
    import critgroups.verify as verify

    for n in range(9):
        pairs = verify._vertex_pairs(n)
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert all(verify._mask_edges(pairs, 1 << i) == {p: 1} for i, p in enumerate(pairs))


def test_exhaustive_reports_match_labeled_loop(monkeypatch):
    """With a generation predicate that fires, and that like the real one
    does not depend on the labels (the bracket b^T adj(L) b counts two-tree
    forests), the class scan reports each class representative's pairs:
    each report is one of a scan of every labeled graph, and the orbit
    weights of the reports sum to that scan's report count. A random search
    reports exactly what a direct scan of its seeded samples reports."""
    import critgroups.verify as verify

    def fake_generates(det, adj, x, y):
        return (adj[x][x] + adj[y][y] - 2 * adj[x][y]) % 3 != 0

    def labeled_scan(graphs):
        examined, coprime, reports = 0, 0, []
        for g in graphs:
            det, adj = verify._adjugate(g.n, g._edges)
            for (x, y), c in g.edge_items():
                examined += 1
                order_g1 = verify._deletion_count(det, adj, x, y, c)
                if order_g1 > 0 and gcd(det, order_g1) == 1:
                    coprime += 1
                    if not fake_generates(det, adj, x, y):
                        reports.append((g.edge_items(), (x, y)))
        return examined, coprime, reports

    monkeypatch.setattr(verify, "_delta_generates", fake_generates)
    for max_vertices, reports in ((4, 12), (5, 312)):
        examined, coprime, labeled = labeled_scan(enumerate_connected_simple_graphs(max_vertices))
        outcome = coprime_pair_search(max_vertices, exhaustive=True)
        assert (outcome.examined, outcome.coprime_instances) == (examined, coprime)
        weights = {repr(g): w for g, w in verify._relabeling_classes(max_vertices)}
        assert all((g.edge_items(), pair) in labeled for g, pair in outcome.counterexamples)
        assert sum(weights[repr(g)] for g, _ in outcome.counterexamples) == len(labeled) == reports

    rng = random.Random(3)
    examined, coprime, sampled = labeled_scan(random_connected_multigraph(rng, 9, 2) for _ in range(80))
    outcome = coprime_pair_search(9, 2, trials=80, seed=3)
    assert (outcome.examined, outcome.coprime_instances) == (examined, coprime)
    assert sampled and [(g.edge_items(), pair) for g, pair in outcome.counterexamples] == sampled


def _forbid(monkeypatch, *names):
    """Make each named package function raise if called: as bound in
    critgroups.verify, if it is, and in the module that defines it."""
    import critgroups.verify as verify

    for name in names:
        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} must not be called here")

        monkeypatch.setattr(verify, name, forbidden, raising=False)
        monkeypatch.setattr(sys.modules[getattr(critgroups, name).__module__], name, forbidden)


def test_search_routes_through_the_kernel(monkeypatch):
    """The search, the predicates and an empty re-check build no critical
    group, Smith form, deleted graph, graph with a path added or pair
    report."""
    _forbid(monkeypatch, "critical_group", "smith_normal_form", "delete_edges", "pair_report", "add_path")
    exhaustive = coprime_pair_search(4, exhaustive=True)
    assert (exhaustive.examined, exhaustive.coprime_instances, len(exhaustive.counterexamples)) == (154, 75, 0)
    batch = coprime_pair_search(9, 2, trials=80, seed=3)
    assert (batch.examined, batch.coprime_instances, len(batch.counterexamples)) == (774, 298, 0)
    assert reverify_outcome(exhaustive) and reverify_outcome(batch)
    assert lorenzini_check(cycle_graph(3), 0, 1).pair_generates is True
    assert lorenzini_path_check(cycle_graph(3), 0, 1, 4).cyclic_g_prime


def test_reverify_outcome_rejects_false_reports(monkeypatch):
    """Each fabricated report fails one defining condition. The re-check
    reads U and D of the integer SNF, never the search's critical group."""
    house, k4 = polygon_stack((3, 4)).graph, complete_graph(4)
    path3 = Multigraph(3, {(0, 1): 1, (1, 2): 1})
    rep = lorenzini_check(house, 3, 4)
    assert rep.coprime and rep.pair_generates
    rep = lorenzini_check(k4, 0, 1)
    assert (rep.order_g, rep.order_g1, rep.pair_generates) == (16, 8, False)

    _forbid(monkeypatch, "critical_group", "pair_report")
    for g, pair in [
        (house, (3, 4)),  # coprime orders, but delta(3, 4) generates
        (k4, (0, 1)),  # delta(0, 1) does not generate, but 16 and 8 are not coprime
        (house, (0, 4)),  # not an edge
        (path3, (0, 1)),  # the deletion disconnects the graph
    ]:
        assert not reverify_outcome(SearchOutcome(0, 0, [(g, pair)], None))
    assert reverify_outcome(SearchOutcome(0, 0, [], None))


def _digest(graphs) -> str:
    return hashlib.sha256("\n".join(map(repr, graphs)).encode()).hexdigest()


def test_enumerate_connected_simple_graphs():
    """The labeled connected graphs on up to 5 vertices: the count for each
    n, and the graphs themselves in yield order."""
    graphs = list(enumerate_connected_simple_graphs(5))
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # labeled connected graph counts: 1, 1, 4, 38, 728
    assert by_n == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
    assert _digest(graphs) == "65d443961cfc4630455269a2e32cd903522f302576d41e3c9d09dd40868724e1"
    with pytest.raises(ValueError, match="max_vertices"):
        next(enumerate_connected_simple_graphs(8))
    with pytest.raises(ValueError, match="max_vertices must be at least 1 for the labeled enumeration, got 0"):
        next(enumerate_connected_simple_graphs(0))


def test_random_connected_multigraph_seeded():
    rng1, rng2 = random.Random(3), random.Random(3)
    for _ in range(10):
        g1 = random_connected_multigraph(rng1, 6, 3)
        g2 = random_connected_multigraph(rng2, 6, 3)
        assert g1 == g2
        assert g1.n <= 6


@pytest.mark.parametrize("max_vertices, max_extra_edges, digest", [
    (9, 2, "35adac3c22ef145a39140a2da22fe49162b3d6dc3d3f4b55ee00b8205fbb4830"),
    (12, 5, "f69924402d193e63c6bef2d2936c03373f115e95fc6933b5cc10e5e9db02c4bb"),
], ids=["9-2", "12-5"])
def test_seeded_samples_are_pinned(max_vertices, max_extra_edges, digest):
    """300 samples of one seeded stream: the graphs and how much of the
    stream each one draws."""
    rng = random.Random(0)
    assert _digest(random_connected_multigraph(rng, max_vertices, max_extra_edges) for _ in range(300)) == digest


def test_generators_build_one_graph_per_result(monkeypatch):
    """Connectivity is decided on the drawn edge table, so a rejected
    candidate builds no graph, and the random search, which scans each
    sample's table, builds none at all when it reports nothing."""
    import critgroups.verify as verify

    builds = []

    class Counted(Multigraph):
        def __init__(self, *args):
            builds.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(verify, "Multigraph", Counted)
    assert len(list(enumerate_connected_simple_graphs(4))) == len(builds) == 44
    builds.clear()
    rng = random.Random(1)
    samples = [random_connected_multigraph(rng, 9, 2) for _ in range(40)]
    assert len(builds) == 40 and all(is_connected(g) for g in samples)
    builds.clear()
    assert coprime_pair_search(9, 2, trials=80, seed=3).examined == 774
    assert builds == []


def test_sampler_checks_its_own_bounds():
    """The sampler refuses the random search's out-of-range parameters
    before it draws anything: 10^5 vertices would mean 10^9 vertex pairs."""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="max_vertices must be at most 200 for the random search, got 100000"):
        random_connected_multigraph(rng, 10**5, 0)
    with pytest.raises(ValueError, match="max_extra_edges must be from 0 to 100000 for the random search, got -1"):
        random_connected_multigraph(rng, 9, -1)
    with pytest.raises(ValueError, match="max_vertices must be at least 2 for the random search, got 1"):
        random_connected_multigraph(rng, 1, 0)
    assert rng.getstate() == state


@pytest.mark.parametrize("kwargs, name", [
    ({"max_vertices": 9.0, "trials": 3}, "max_vertices is 9.0"),
    ({"max_vertices": 4.0, "exhaustive": True}, "max_vertices is 4.0"),
    ({"max_vertices": 5, "trials": 2.5}, "trials is 2.5"),
    ({"max_vertices": 5, "max_extra_edges": 1.5, "trials": 2}, "max_extra_edges is 1.5"),
], ids=["max_vertices", "max_vertices-exhaustive", "trials", "max_extra_edges"])
def test_search_refuses_float_counts(kwargs, name):
    with pytest.raises(TypeError, match=f"^{re.escape(name)}, not an integer$"):
        coprime_pair_search(**kwargs)


@pytest.mark.parametrize("kwargs, values", [
    ({"max_extra_edges": 1.5, "trials": -3, "seed": 9}, "1.5, -3 and 9"),
    ({"trials": 2}, "0, 2 and None"),
    ({"seed": 0}, "0, 0 and 0"),
], ids=["all-three", "trials", "seed-zero"])
def test_exhaustive_search_refuses_sample_parameters(kwargs, values):
    """An exhaustive search draws no samples, so a nonzero max_extra_edges
    or trials, or any seed, 0 included, is refused, naming all three."""
    with pytest.raises(ValueError, match="takes no max_extra_edges, trials or seed; got "
                                         f"{re.escape(values)}$"):
        coprime_pair_search(4, exhaustive=True, **kwargs)


def _connected_multigraphs():
    """Connected multigraphs on 2..7 vertices with multiplicities up to 3:
    a random spanning tree, then extra multiplicity on any pair. When the
    drawn multiplicity cap is 1 the graph is simple."""
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 7))
        cap = draw(st.integers(1, 3))
        edges = {}
        for v in range(1, n):
            edges[(draw(st.integers(0, v - 1)), v)] = 1
        for u in range(n):
            for v in range(u + 1, n):
                edges[(u, v)] = min(cap, edges.get((u, v), 0) + draw(st.integers(0, cap)))
        return Multigraph(n, {e: m for e, m in edges.items() if m})

    return build()


def test_adjugate_formulas_property():
    """det/adj formulas against independent counts: networkx spanning trees
    of every partial and full edge deletion, enumerated two-tree forests for
    the bracket, cyclicity from the invariant factors, and pair orders from
    U and D of the integer Smith form."""
    hypothesis = pytest.importorskip("hypothesis")
    nx = pytest.importorskip("networkx")
    from math import gcd, lcm

    from critgroups import delta_config, reduced_laplacian, smith_normal_form
    from critgroups.verify import _adjugate, _deletion_count, _is_cyclic

    kinds = set()

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_connected_multigraphs())
    def check(g):
        det, adj = _adjugate(g.n, g._edges)
        kg = critical_group(g)
        assert det == kg.order
        assert _is_cyclic(adj) is is_cyclic(kg)
        simple = all(m == 1 for _, m in g.edge_items())
        kinds.update({("simple", simple), ("cyclic", is_cyclic(kg))})
        for (x, y), c in g.edge_items():
            for k in range(1, c + 1):
                g1 = nx.MultiGraph()
                g1.add_nodes_from(range(g.n))
                for (u, v), m in delete_edges(g, x, y, count=k).edge_items():
                    g1.add_edges_from([(u, v)] * m)
                assert _deletion_count(det, adj, x, y, k) == round(nx.number_of_spanning_trees(g1))
        if simple and g.edge_count() <= 15:
            (x, y), _ = g.edge_items()[0]
            bracket = adj[x][x] + adj[y][y] - 2 * adj[x][y]
            assert bracket == brute_spanning_forests(g, x, y)
            kinds.add("forests")
        dec = smith_normal_form(reduced_laplacian(g, g.n - 1))
        diag = dec.diagonal()
        for x in range(g.n):
            for y in range(x + 1, g.n):
                w = dec.u.mult_vector(delta_config(g, x, y)[:-1])
                want = lcm(*(d // gcd(d, wi) for d, wi in zip(diag, w)))
                assert det // gcd(det, *(row[x] - row[y] for row in adj)) == want

    check()
    assert kinds == {(k, b) for k in ("simple", "cyclic") for b in (True, False)} | {"forests"}
