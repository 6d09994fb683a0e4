"""Independent oracles and consistency harnesses: brute-force spanning
structure counts, the edge-deletion coprimality predicates, and the seeded
search for generating-pair counterexamples. Every edge deletion goes through
one report, whose |K(G_1)| is the matrix-tree determinant of the reduced
Laplacian; only the base graph gets a critical group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, lcm, prod
from typing import Iterator

from .critical import (
    CriticalGroup,
    _laplacian,
    critical_group,
    delta_config,
    is_cyclic,
    pair_report,
    reduced_laplacian,
)
from .graphs import Multigraph, add_path, delete_edges, is_connected
from .linalg import determinant, smith_normal_form


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge; False when a and b were already joined (cycle)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _edge_instances(g: Multigraph, limit: int) -> list[tuple[int, int]]:
    """Edges of a connected g, parallel ones repeated; at most `limit` of them."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    out = [e for e, m in g.edge_items() for _ in range(m)]
    if len(out) > limit:
        raise ValueError(f"{len(out)} edges exceeds enumeration limit {limit}")
    return out


def brute_spanning_trees(g: Multigraph, limit: int = 20) -> int:
    """Count spanning trees by enumerating edge-instance subsets.

    Parallel edges count as distinct instances, matching the matrix-tree
    determinant. Refuses graphs with more than `limit` edge instances.
    """
    instances = _edge_instances(g, limit)
    if g.n == 1:
        return 1
    count = 0
    for subset in combinations(instances, g.n - 1):
        uf = _UnionFind(g.n)
        if all(uf.union(u, v) for u, v in subset):
            count += 1
    return count


def brute_spanning_forests(g: Multigraph, x: int, y: int, limit: int = 20) -> int:
    """Count two-tree spanning forests separating roots x and y."""
    instances = _edge_instances(g, limit)
    if x == y:
        raise ValueError("roots must be distinct")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"roots ({x},{y}) out of range for n={g.n}")
    count = 0
    for subset in combinations(instances, g.n - 2):
        uf = _UnionFind(g.n)
        if all(uf.union(u, v) for u, v in subset) and uf.find(x) != uf.find(y):
            count += 1
    return count


# ----------------------------------------------------------------------------
# Edge-deletion coprimality predicates


@dataclass
class LorenziniReport:
    """Coprimality data for a vertex pair joined by c > 0 edges.

    order_g1 is the matrix-tree determinant of the graph with the x-y edges
    deleted. When the deletion disconnects the graph it is 0, coprime is
    False, and pair_generates is None (not applicable).
    """

    x: int
    y: int
    multiplicity: int
    order_g: int
    order_g1: int
    coprime: bool
    cyclic_g: bool
    pair_generates: bool | None
    g1_connected: bool


def _tree_count(g: Multigraph) -> int:
    """Spanning-tree count: the reduced-Laplacian determinant, 0 when the
    graph is disconnected and 1 for a single vertex."""
    if g.n == 1:
        return 1
    a = _laplacian(g, g.n - 1)
    return 0 if a is None else determinant(a)


def _deletion_report(g: Multigraph, kg: CriticalGroup, x: int, y: int) -> LorenziniReport:
    """Report for deleting every x-y edge of g, whose critical group is kg."""
    order_g1 = _tree_count(delete_edges(g, x, y))
    connected = order_g1 > 0
    return LorenziniReport(
        x=x,
        y=y,
        multiplicity=g.multiplicity(x, y),
        order_g=kg.order,
        order_g1=order_g1,
        coprime=connected and gcd(kg.order, order_g1) == 1,
        cyclic_g=is_cyclic(kg),
        pair_generates=pair_report(kg, x, y).generates if connected else None,
        g1_connected=connected,
    )


def lorenzini_check(g: Multigraph, x: int, y: int) -> LorenziniReport:
    if g.multiplicity(x, y) <= 0:
        raise ValueError(f"vertices {x} and {y} must be joined by at least one edge")
    return _deletion_report(g, critical_group(g), x, y)


@dataclass
class ChainCheck:
    pair: tuple[int, int]
    order_g1_prime: int
    coprime_with_g1: bool


@dataclass
class LorenziniPathReport:
    base: LorenziniReport
    length: int
    order_g_prime: int
    cyclic_g_prime: bool
    chain: list[ChainCheck]


def lorenzini_path_check(g: Multigraph, x: int, y: int, length: int) -> LorenziniPathReport:
    """Add a path of `length` edges between x and y and verify the chain
    coprimality conclusion: |K(G_1)| stays coprime to |K(G_1')| for every
    deleted chain edge, and K(G') is cyclic."""
    base = lorenzini_check(g, x, y)
    if not (base.g1_connected and base.coprime):
        raise ValueError("hypothesis fails: deleted graph must be connected with coprime order")
    gp = add_path(g, x, y, length)
    kgp = critical_group(gp)
    chain = [x] + list(range(g.n, g.n + length - 1)) + [y]
    checks = []
    for a, b in zip(chain, chain[1:]):
        order = _tree_count(delete_edges(gp, a, b, count=1))
        checks.append(ChainCheck((a, b), order, gcd(base.order_g1, order) == 1))
    return LorenziniPathReport(
        base=base,
        length=length,
        order_g_prime=kgp.order,
        cyclic_g_prime=is_cyclic(kgp),
        chain=checks,
    )


# ----------------------------------------------------------------------------
# Graph sampling and enumeration


def random_connected_multigraph(rng: random.Random, max_vertices: int, max_extra_edges: int) -> Multigraph:
    """Seeded sample: Erdos-Renyi simple graph conditioned on connectivity,
    then up to max_extra_edges multiplicity bumps on random vertex pairs."""
    if max_vertices < 2:
        raise ValueError("need at least 2 vertices to sample")
    n = rng.randint(2, max_vertices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        p = rng.uniform(0.3, 0.9)
        edges = {pair: 1 for pair in pairs if rng.random() < p}
        g = Multigraph(n, edges)
        if edges and is_connected(g):
            break
    for _ in range(rng.randint(0, max_extra_edges)):
        u, v = rng.sample(range(n), 2)
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, 0) + 1
    return Multigraph(n, edges)


def enumerate_connected_simple_graphs(max_vertices: int) -> Iterator[Multigraph]:
    """All labeled connected simple graphs on 1..max_vertices vertices.

    Refuses max_vertices above 7: 7 vertices already means 2^21 edge masks,
    and 8 would take days.
    """
    if max_vertices > 7:
        raise ValueError(f"max_vertices must be at most 7 for the labeled enumeration, "
                         f"got {max_vertices}")
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(pairs)):
            edges = {pairs[i]: 1 for i in range(len(pairs)) if mask >> i & 1}
            g = Multigraph(n, edges)
            if is_connected(g):
                yield g


# ----------------------------------------------------------------------------
# Counterexample search harness


@dataclass
class SearchOutcome:
    """Result of scanning for pairs with coprime orders whose delta
    configuration fails to generate. It is unknown whether such a pair can
    exist; an empty counterexample list is a perfectly valid outcome."""

    examined: int
    coprime_instances: int
    counterexamples: list[tuple[Multigraph, tuple[int, int]]]
    seed: int | None
    params: dict = field(default_factory=dict)


def coprime_pair_search(
    max_vertices: int,
    max_extra_edges: int = 0,
    trials: int = 0,
    seed: int | None = None,
    exhaustive: bool = False,
) -> SearchOutcome:
    """Scan (graph, adjacent pair) instances for coprime-order pairs that do
    not generate. Exhaustive mode walks all labeled connected simple graphs
    up to max_vertices; otherwise `trials` seeded multigraph samples."""
    params = {
        "max_vertices": max_vertices,
        "max_extra_edges": max_extra_edges,
        "trials": trials,
        "exhaustive": exhaustive,
    }
    if exhaustive:
        graphs: Iterator[Multigraph] | list[Multigraph] = enumerate_connected_simple_graphs(max_vertices)
    else:
        rng = random.Random(seed)
        graphs = [random_connected_multigraph(rng, max_vertices, max_extra_edges) for _ in range(trials)]
    examined = 0
    coprime_count = 0
    counterexamples: list[tuple[Multigraph, tuple[int, int]]] = []
    for g in graphs:
        kg = critical_group(g)
        for (x, y), _m in g.edge_items():
            examined += 1
            rep = _deletion_report(g, kg, x, y)
            if rep.coprime:
                coprime_count += 1
                if not rep.pair_generates:
                    counterexamples.append((g, (x, y)))
    return SearchOutcome(examined, coprime_count, counterexamples, seed, params)


def reverify_outcome(outcome: SearchOutcome) -> bool:
    """Recompute both defining conditions of every reported counterexample.

    The base graph's order and the order of delta(x, y) come from U and D of
    the integer `smith_normal_form`, not from the `critical_group` the search
    used; |K(G_1)| is the spanning-tree count of the deleted graph.
    """
    for g, (x, y) in outcome.counterexamples:
        if g.multiplicity(x, y) < 1:
            return False
        q = g.n - 1
        dec = smith_normal_form(reduced_laplacian(g, q))
        diag = dec.diagonal()
        w = dec.u.mult_vector(delta_config(g, x, y)[:q])
        order_delta = lcm(*(d // gcd(d, wi) for d, wi in zip(diag, w)))
        order_g, order_g1 = prod(diag), _tree_count(delete_edges(g, x, y))
        if not (order_g1 > 0 and gcd(order_g, order_g1) == 1 and order_delta != order_g):
            return False
    return True
