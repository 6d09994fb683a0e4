import hashlib
import random
import time

import pytest

from critgroups import (
    Multigraph,
    are_equivalent,
    critical_group,
    cycle_graph,
    degree,
    delta_config,
    fire,
    parse_configuration,
    polygon_stack,
    reduce_on_cycle,
    reduce_to_pair,
    replay_log,
)
from critgroups import firing


def paw_graph():
    # triangle on 1, 2, 3 with a pendant edge to 0
    return Multigraph(4, {(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})


def test_degree():
    assert degree([0, 4, -1, -1]) == 2
    assert degree([0, 0, 0]) == 0
    assert degree(delta_config(cycle_graph(4), 0, 2)) == 0


def test_parse_configuration():
    assert parse_configuration("0,4,-1,-1") == [0, 4, -1, -1]
    with pytest.raises(ValueError):
        parse_configuration("1,a")


def test_fire_paw():
    g = paw_graph()
    assert fire(g, [0, 4, -1, -1], 1) == [1, 1, 0, 0]
    c = [2, -1, 0, 3]
    assert fire(g, c, 2, 0) == c
    assert fire(g, fire(g, c, 2, 1), 2, -1) == c
    with pytest.raises(ValueError):
        fire(g, c, 4)


def test_fire_preserves_degree_and_multiplicity():
    g = cycle_graph(2)  # double edge: multiplicity shows up in the move
    out = fire(g, [0, 0], 0, 1)
    assert out == [-2, 2]
    rng = random.Random(8)
    for _ in range(30):
        c = [rng.randint(-4, 4) for _ in range(g.n)]
        assert degree(fire(g, c, rng.randrange(g.n), rng.randint(-3, 3))) == degree(c)


def test_firing_every_vertex_once_is_identity():
    rng = random.Random(21)
    from critgroups import random_connected_multigraph

    for _ in range(15):
        g = random_connected_multigraph(rng, 6, 2)
        c = [rng.randint(-3, 3) for _ in range(g.n)]
        order = list(range(g.n))
        rng.shuffle(order)
        out = c
        for v in order:
            out = fire(g, out, v, 1)
        assert out == c


def test_reduce_on_cycle_examples():
    c4 = cycle_graph(4)
    out, log = reduce_on_cycle(c4, [1, -1, 0, 0])
    assert out[0] == out[1] == 0
    assert out[2] == -out[3]
    assert replay_log(c4, [1, -1, 0, 0], log) == out
    m = out[2]
    kg = critical_group(c4)
    scaled = [0, 0, m, -m]
    assert are_equivalent(kg, [1, -1, 0, 0], scaled)

    zero_out, zero_log = reduce_on_cycle(cycle_graph(5), [0] * 5)
    assert zero_out == [0] * 5 and zero_log == []

    out5, _ = reduce_on_cycle(cycle_graph(5), [2, -1, -1, 0, 0])
    assert out5[0] == out5[1] == out5[2] == 0


def test_reduce_on_cycle_errors():
    with pytest.raises(ValueError):
        reduce_on_cycle(cycle_graph(4), [1, 0, 0, 0])  # degree 1
    not_cycle = Multigraph(4, {(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})
    with pytest.raises(ValueError):
        reduce_on_cycle(not_cycle, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        reduce_on_cycle(cycle_graph(2), [0, 0])


def test_reduce_on_cycle_refuses_by_edge_count(monkeypatch):
    """A one-edge graph on 10^6 vertices is refused by its edge count,
    without building the 10^6-cycle it would be compared with."""
    def refuse(m):
        raise AssertionError(f"cycle_graph({m}) was built")

    monkeypatch.setattr(firing, "cycle_graph", refuse)
    with pytest.raises(ValueError, match="canonical cycle"):
        reduce_on_cycle(Multigraph(10**6, {(0, 1): 1}), [1, -1])


def test_reduce_on_cycle_multiple_classifies_mod_n():
    # the residue of the returned multiple determines the class in Z/n
    for n in (4, 5, 6):
        g = cycle_graph(n)
        kg = critical_group(g)
        rng = random.Random(n)
        for _ in range(15):
            c1 = [rng.randint(-3, 3) for _ in range(n)]
            c1[-1] -= sum(c1)
            c2 = [rng.randint(-3, 3) for _ in range(n)]
            c2[-1] -= sum(c2)
            m1 = reduce_on_cycle(g, c1)[0][n - 2]
            m2 = reduce_on_cycle(g, c2)[0][n - 2]
            assert ((m1 - m2) % n == 0) == are_equivalent(kg, c1, c2)


def test_reduce_to_pair_house():
    sg = polygon_stack((3, 4))
    c = [1, 0, 0, -1, 0]
    out, log = reduce_to_pair(sg, c, 1)  # the middle pair (3, 4) of the added path
    assert all(out[v] == 0 for v in range(5) if v not in (3, 4))
    assert replay_log(sg.graph, c, log) == out
    assert are_equivalent(critical_group(sg.graph), c, out)


def test_reduce_to_pair_already_supported():
    sg = polygon_stack((3, 4))
    c = delta_config(sg.graph, 3, 4)
    out, log = reduce_to_pair(sg, c, 1)
    assert all(out[v] == 0 for v in range(5) if v not in (3, 4))
    assert are_equivalent(critical_group(sg.graph), c, out)


def test_reduce_to_pair_random_stacks():
    rng = random.Random(99)
    for _ in range(60):
        spec = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3)))
        sg = polygon_stack(spec)
        g = sg.graph
        c = [rng.randint(-3, 3) for _ in range(g.n)]
        c[-1] -= sum(c)
        top = sg.paths[-1]
        span = len(top) if len(sg.paths) == 1 else len(top) - 1
        pos = rng.randrange(span)
        out, log = reduce_to_pair(sg, c, pos)
        pair = {top[pos], top[(pos + 1) % len(top)]}
        assert all(out[v] == 0 for v in range(g.n) if v not in pair)
        assert replay_log(g, c, log) == out
        assert are_equivalent(critical_group(g), c, out)


def test_reduce_to_pair_errors():
    sg = polygon_stack((3, 4))
    with pytest.raises(ValueError):
        reduce_to_pair(sg, [1, 0, 0, 0, 0], 0)  # degree 1
    with pytest.raises(ValueError):
        reduce_to_pair(sg, [0, 0, 0, 0, 0], 3)  # position off the top path
    with pytest.raises(ValueError):
        reduce_to_pair(polygon_stack(()), [0], 0)


def test_move_logs_replay_exactly():
    rng = random.Random(123)
    for _ in range(30):
        spec = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        sg = polygon_stack(spec)
        c = [rng.randint(-2, 2) for _ in range(sg.graph.n)]
        c[0] -= sum(c)
        out, log = reduce_to_pair(sg, c, 0)
        assert replay_log(sg.graph, c, log) == out
        assert all(times != 0 for _, times in log)


def _seeded_reductions():
    """(out, log) of seeded reductions: onto every pair position of random
    stacks, half of them with random attachments, then on C_3..C_11."""
    rng = random.Random(2015)
    for _ in range(200):
        spec = tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 5)))
        positions = None
        if len(spec) > 1 and rng.random() < 0.5:
            positions = [rng.randrange(spec[0])] + [rng.randrange(k - 1) for k in spec[1:-1]]
        sg = polygon_stack(spec, positions)
        c = [rng.randint(-4, 4) for _ in range(sg.graph.n)]
        c[rng.randrange(len(c))] -= sum(c)
        span = spec[0] if len(spec) == 1 else spec[-1] - 1
        for pos in range(span):
            yield reduce_to_pair(sg, c, pos)
    for n in range(3, 12):
        for _ in range(5):
            c = [rng.randint(-6, 6) for _ in range(n)]
            c[rng.randrange(n)] -= sum(c)
            yield reduce_on_cycle(cycle_graph(n), c)


def test_reductions_digest():
    # pins every output and move log byte for byte, as the base cycle's own
    # sweep computed them before the cycle was swept as a path
    h = hashlib.sha256()
    count = 0
    for out, log in _seeded_reductions():
        h.update(repr((out, log)).encode())
        count += 1
    assert (count, h.hexdigest()) == (674, "a04afe903a638fb668c4dbe9bb2f3c0277151485e623947f466654a53df8f3c6")


def test_replay_log_checks_each_entry():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="vertex 4 out of range for n=4"):
        replay_log(g, [1, -1, 0, 0], [(0, 1), (4, -1)])
    with pytest.raises(ValueError, match="configuration length 3 != n=4"):
        replay_log(g, [1, -1, 0], [(0, 1)])
    assert replay_log(g, [1, -1, 0], []) == [1, -1, 0]


def test_replay_log_reports_the_vertex_before_the_length():
    # within one entry: the types, then the vertex range, then the length
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="vertex 4 out of range for n=4"):
        replay_log(g, [1, -1, 0], [(4, 1)])
    with pytest.raises(TypeError, match=r"move \(1.0, 1\) needs an integer vertex and count"):
        replay_log(g, [1, -1, 0], [(1.0, 1)])
    # a bool is not a plain int, and goes through operator.index
    assert replay_log(g, [1, -1, 0, 0], [(True, 1)]) == fire(g, [1, -1, 0, 0], 1) == [2, -3, 1, 0]


def test_moves_at_a_vertex_without_edges_change_nothing():
    # vertex 2 has no edges, so it is in neither the degree nor the adjacency table
    g = Multigraph(3, {(0, 1): 1})
    c = [1, -1, 5]
    assert fire(g, c, 2) == fire(g, c, 2, -3) == c
    assert replay_log(g, c, [(2, 4), (0, 1), (2, -1)]) == [0, 0, 5]


def test_large_stack_builds_and_replays_in_linear_time():
    start = time.perf_counter()
    sg = polygon_stack((4,) * 3000)
    assert time.perf_counter() - start < 1.0
    assert sg.graph.n == 6002

    cases = []
    for levels in (300, 3000):
        sg = polygon_stack((4,) * levels)
        rng = random.Random(levels)
        c = [rng.randint(-3, 3) for _ in range(sg.graph.n)]
        c[0] -= sum(c)
        out, log = reduce_to_pair(sg, c, 0)
        cases.append((sg.graph, c, log, out))
    # The two sizes' replays alternate, so a slow spell of the host reaches
    # both, and each keeps its best of 9 per move.
    best = [float("inf")] * 2
    for _ in range(9):
        for k, (g, c, log, out) in enumerate(cases):
            start = time.perf_counter()
            assert replay_log(g, c, log) == out
            best[k] = min(best[k], (time.perf_counter() - start) / len(log))

    # a replay that copied the configuration per move would cost ten times
    # as much per move on the stack ten times as large
    assert best[1] < 4 * best[0]
