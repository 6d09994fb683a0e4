"""Independent oracles and consistency harnesses: brute-force spanning
structure counts, the edge-deletion coprimality predicates, and the seeded
search for generating-pair counterexamples.

The predicates and the search make one fraction-free elimination per base
graph, read det L and adj L of its reduced Laplacian off its symmetric
triangle, and read everything else off those by formula: |K(G)| = det L; |K(G_1)| after deleting the c
x-y edges is det L - c (adj_xx + adj_yy - 2 adj_xy) by the matrix
determinant lemma, the bracket counting the two-tree spanning forests that
separate x and y (Chaiken, SIAM J. Alg. Disc. Meth. 3, 1982); delta(x, y)
generates iff gcd(det L, adj L (e_x - e_y)) = 1; and K(G) is cyclic iff the
entries of adj L have gcd 1. No deleted graph and no critical group is
built. A reported counterexample is checked again from the integer Smith
normal form.

The exhaustive search scans one connected graph per isomorphism class: the
first edge mask of each relabeling orbit, closed under the transpositions
(0 i), and weights its counts by the orbit's size n!/|Aut G|, so they equal
the labeled enumeration's; a report names the class representative. A
random sample has weight 1. Sampled graphs and class representatives are
tested for connectivity on the drawn edge table, so one Multigraph is built
per graph; the sampler checks the random search's bounds before it draws.

The search cannot report a pair: with b = e_x - e_y, gcd(det L, adj L b)
divides F = b^T adj L b, and a coprime deletion has gcd(det L, c F) = 1. Its
report path and `reverify_outcome` stay as the harness's consistency check;
a test drives them with a generation predicate that fires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd, lcm, prod
from typing import Iterator

from .critical import delta_config, reduced_laplacian
from .graphs import Multigraph, _adjacency, _connected, _ints, _key, add_path, delete_edges, is_connected
from . import linalg
from .linalg import _laplacian, smith_normal_form


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


MAX_SUBSETS = 10**6


def _edge_instances(g: Multigraph, limit: int, size: int) -> list[tuple[int, int]]:
    """Edges of a connected g, parallel ones repeated: at most `limit` of
    them, and at most MAX_SUBSETS subsets of `size` of them to enumerate."""
    limit = _ints([limit], "limit")[0]
    if not is_connected(g):
        raise ValueError("graph must be connected")
    out = [e for e, m in g.edge_items() for _ in range(m)]
    if len(out) > limit:
        raise ValueError(f"{len(out)} edges exceeds enumeration limit {limit}")
    subsets = comb(len(out), max(size, 0))
    if subsets > MAX_SUBSETS:
        raise ValueError(f"{subsets} subsets of {size} edges exceeds the enumeration bound {MAX_SUBSETS}")
    return out


def brute_spanning_trees(g: Multigraph, limit: int = 20) -> int:
    """Count spanning trees by enumerating edge-instance subsets.

    Parallel edges count as distinct instances, matching the matrix-tree
    determinant. Refuses graphs with more than `limit` edge instances, or
    more than MAX_SUBSETS (10^6) subsets of n - 1 of them.
    """
    instances = _edge_instances(g, limit, g.n - 1)
    count = 0
    for subset in combinations(instances, g.n - 1):
        uf = _UnionFind(g.n)
        if all(uf.union(u, v) for u, v in subset):
            count += 1
    return count


def brute_spanning_forests(g: Multigraph, x: int, y: int, limit: int = 20) -> int:
    """Count two-tree spanning forests separating roots x and y, with the
    same refusals as `brute_spanning_trees` for subsets of n - 2 edges."""
    instances = _edge_instances(g, limit, g.n - 2)
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

    order_g1 is the spanning-tree count of the graph with the x-y edges
    deleted, read off det L and adj L of the undeleted graph by the matrix
    determinant lemma. When the deletion disconnects the graph it is 0,
    coprime is False, and pair_generates is None (not applicable).
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
    """Spanning-tree count: the reduced-Laplacian determinant, by the
    sparse or the dense kernel as `linalg._factor_laplacian` picks, 0 when
    the graph is disconnected and 1 for a single vertex."""
    return linalg._factor_laplacian(g, g.n - 1)[0]


def _adjugate(g: Multigraph) -> tuple[int, list[list[int]]]:
    """det L and adj L for the Laplacian L of a connected g reduced at its
    last vertex q, indexed by vertex: adj L is read off the triangle of one
    symmetric elimination of L's rows, and a zero row and column are added
    at q. Callers refuse a disconnected g, whose dense rows are not built."""
    det, tri, symmetric = linalg._eliminate(_laplacian(g, g.n - 1))
    return det, [row + [0] for row in linalg._adjugate(tri, symmetric)] + [[0] * g.n]


def _deletion_count(det: int, adj: list[list[int]], x: int, y: int, c: int) -> int:
    """Spanning-tree count after deleting c of the x-y edges.

    That deletion turns L into L - c b b^T with b = e_x - e_y (zero at the
    reduced vertex), whose determinant is det L - c b^T adj(L) b by the
    matrix determinant lemma. The bracket b^T adj(L) b counts the spanning
    forests of two trees separating x and y (Chaiken, SIAM J. Alg. Disc.
    Meth. 3, 1982).
    """
    return det - c * (adj[x][x] + adj[y][y] - 2 * adj[x][y])


def _delta_generates(det: int, adj: list[list[int]], x: int, y: int) -> bool:
    """delta(x, y) has order det / gcd(det, adj(L) b) with b = e_x - e_y,
    the least k with k b in the column span of L, so it generates the
    critical group iff that gcd is 1."""
    return gcd(det, *(row[x] - row[y] for row in adj)) == 1


def _is_cyclic(adj: list[list[int]]) -> bool:
    """The gcd of the entries of adj L is the product of every invariant
    factor but the last, which is 1 iff the group is cyclic."""
    return gcd(*(v for row in adj for v in row)) == 1


def lorenzini_check(g: Multigraph, x: int, y: int) -> LorenziniReport:
    """Coprimality data for the x-y edges of g; a disconnected g is refused before any elimination."""
    c = g.multiplicity(x, y)
    if c <= 0:
        raise ValueError(f"vertices {x} and {y} must be joined by at least one edge")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    det, adj = _adjugate(g)
    order_g1 = _deletion_count(det, adj, x, y, c)
    connected = order_g1 > 0
    return LorenziniReport(
        x=x,
        y=y,
        multiplicity=c,
        order_g=det,
        order_g1=order_g1,
        coprime=connected and gcd(det, order_g1) == 1,
        cyclic_g=_is_cyclic(adj),
        pair_generates=_delta_generates(det, adj, x, y) if connected else None,
        g1_connected=connected,
    )


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
    deleted chain edge, and K(G') is cyclic. Every chain order comes from
    one adjugate of G', connected as `lorenzini_check` has found G."""
    base = lorenzini_check(g, x, y)
    if not (base.g1_connected and base.coprime):
        raise ValueError("hypothesis fails: deleted graph must be connected with coprime order")
    gp = add_path(g, x, y, length)
    det, adj = _adjugate(gp)
    chain = [x] + list(range(g.n, g.n + length - 1)) + [y]
    checks = []
    for a, b in zip(chain, chain[1:]):
        order = _deletion_count(det, adj, a, b, 1)
        checks.append(ChainCheck((a, b), order, gcd(base.order_g1, order) == 1))
    return LorenziniPathReport(
        base=base,
        length=length,
        order_g_prime=det,
        cyclic_g_prime=_is_cyclic(adj),
        chain=checks,
    )


# ----------------------------------------------------------------------------
# Graph sampling and enumeration

MAX_SAMPLE_VERTICES = 200
MAX_SAMPLE_EXTRA_EDGES = 100_000  # one random pair is drawn for each


def _check_sample_bounds(max_vertices: int, max_extra_edges: int) -> None:
    """Refuse sampling parameters outside the random search's bounds."""
    if not 2 <= max_vertices <= MAX_SAMPLE_VERTICES:
        bound = "at least 2" if max_vertices < 2 else f"at most {MAX_SAMPLE_VERTICES}"
        raise ValueError(f"max_vertices must be {bound} for the random search, got {max_vertices}")
    if not 0 <= max_extra_edges <= MAX_SAMPLE_EXTRA_EDGES:
        raise ValueError(f"max_extra_edges must be from 0 to {MAX_SAMPLE_EXTRA_EDGES} for the random search, "
                         f"got {max_extra_edges}")


def random_connected_multigraph(rng: random.Random, max_vertices: int, max_extra_edges: int) -> Multigraph:
    """Seeded sample: Erdos-Renyi simple graph conditioned on connectivity,
    decided on the drawn edge table, then up to max_extra_edges multiplicity
    bumps on random vertex pairs; one graph is built. The random search's
    bounds (2 to 200 vertices, 0 to 100,000 bumps) are checked before any draw."""
    _check_sample_bounds(max_vertices, max_extra_edges)
    n = rng.randint(2, max_vertices)
    pairs = _vertex_pairs(n)
    while True:
        p = rng.uniform(0.3, 0.9)
        edges = {pair: 1 for pair in pairs if rng.random() < p}
        if _connected(n, _adjacency(edges)):
            break
    for _ in range(rng.randint(0, max_extra_edges)):
        u, v = rng.sample(range(n), 2)
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, 0) + 1
    return Multigraph(n, edges)


def _check_labeled_bound(max_vertices: int) -> None:
    """Refuse an exhaustive search or enumeration below 1 or above 7 vertices."""
    if not 1 <= max_vertices <= 7:
        bound = "at least 1" if max_vertices < 1 else "at most 7"
        raise ValueError(f"max_vertices must be {bound} for the labeled enumeration, got {max_vertices}")


def _vertex_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs of K_n in lexicographic order: bit i of an edge mask is pair i."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _mask_edges(pairs: list[tuple[int, int]], mask: int) -> dict[tuple[int, int], int]:
    return {pairs[i]: 1 for i in range(len(pairs)) if mask >> i & 1}


def enumerate_connected_simple_graphs(max_vertices: int) -> Iterator[Multigraph]:
    """All labeled connected simple graphs on 1..max_vertices vertices, by
    n and then by edge mask.

    Connectivity is decided on each edge mask's table, so only connected
    ones are built. Refuses max_vertices below 1 or above 7: 7 vertices
    already means 2^21 edge masks, and 8 would take days.
    """
    _check_labeled_bound(max_vertices)
    for n in range(1, max_vertices + 1):
        pairs = _vertex_pairs(n)
        for mask in range(1 << len(pairs)):
            edges = _mask_edges(pairs, mask)
            if _connected(n, _adjacency(edges)):
                yield Multigraph(n, edges)


def _relabeling_classes(max_vertices: int) -> Iterator[tuple[Multigraph, int]]:
    """The connected simple graphs on 1..max_vertices vertices up to
    isomorphism, each once, with its weight: the size of its relabeling
    orbit, n!/|Aut G|.

    For each n the edge masks of K_n are taken in increasing order; the
    first one not yet seen represents its orbit, which is closed by a
    breadth-first search under the transpositions (0 i) and marked seen.
    These generate the symmetric group, so the orbit holds every labeled
    graph isomorphic to the representative, whose mask is the orbit's
    least. Yields (representative graph, weight) for the connected classes
    only.
    """
    for n in range(1, max_vertices + 1):
        pairs = _vertex_pairs(n)
        index = {p: i for i, p in enumerate(pairs)}
        # A transposition permutes the mask's bits; three byte tables per
        # transposition map each byte of a mask (at most 21 bits, as n <= 7)
        # to its image.
        tables = []
        for i in range(1, n):
            swap = {0: i, i: 0}
            image = [1 << index[_key(swap.get(u, u), swap.get(v, v))] for u, v in pairs]
            image += [0] * (24 - len(image))
            per_byte = []
            for b in range(0, 24, 8):
                table = [0] * 256
                for val in range(1, 256):
                    low = val & -val
                    table[val] = table[val ^ low] | image[b + low.bit_length() - 1]
                per_byte.append(table)
            tables.append(per_byte)
        seen = bytearray(1 << len(pairs))
        rep = seen.find(0)
        while rep >= 0:
            seen[rep] = 1
            orbit = [rep]
            for m in orbit:  # the search's queue: grows as it finds new members
                lo, mid, hi = m & 255, m >> 8 & 255, m >> 16
                for t0, t1, t2 in tables:
                    img = t0[lo] | t1[mid] | t2[hi]
                    if not seen[img]:
                        seen[img] = 1
                        orbit.append(img)
            edges = _mask_edges(pairs, rep)
            if _connected(n, _adjacency(edges)):
                yield Multigraph(n, edges), len(orbit)
            rep = seen.find(0, rep)


# ----------------------------------------------------------------------------
# Counterexample search harness


@dataclass
class SearchOutcome:
    """Result of scanning for pairs with coprime orders whose delta
    configuration fails to generate. No such pair exists (see
    `coprime_pair_search`), so a search reports none; the counterexample
    list is kept for the harness's consistency check."""

    examined: int
    coprime_instances: int
    counterexamples: list[tuple[Multigraph, tuple[int, int]]]
    seed: int | None
    params: dict = field(default_factory=dict)


def _scan(g: Multigraph) -> tuple[int, int, list[tuple[int, int]]]:
    """The edges of g examined, how many have a coprime deletion, and the
    coprime ones whose delta configuration does not generate, from one
    adjugate. Generation is tested only for coprime deletions."""
    det, adj = _adjugate(g)
    items = g.edge_items()
    coprime = 0
    bad = []
    for (x, y), c in items:
        order_g1 = _deletion_count(det, adj, x, y, c)
        if order_g1 > 0 and gcd(det, order_g1) == 1:
            coprime += 1
            if not _delta_generates(det, adj, x, y):
                bad.append((x, y))
    return len(items), coprime, bad


def coprime_pair_search(
    max_vertices: int,
    max_extra_edges: int = 0,
    trials: int = 0,
    seed: int | None = None,
    exhaustive: bool = False,
) -> SearchOutcome:
    """Scan (graph, adjacent pair) instances for coprime-order pairs that do
    not generate. Exhaustive mode covers all labeled connected simple graphs
    on 1 to max_vertices vertices (at most 7); otherwise `trials` seeded
    multigraph samples, each with 2 to max_vertices vertices, where
    max_vertices is at most 200 (a sample draws for every vertex pair, and
    each graph is eliminated densely), and up to max_extra_edges edge bumps,
    from 0 to 100,000; `trials` must not be negative.

    Exhaustive mode scans one graph per isomorphism class and weights its
    counts by the class's relabeling orbit, n!/|Aut G| labeled graphs, so
    its counts are those of the labeled enumeration; a random sample has
    weight 1. A report is (scanned graph, pair): in exhaustive mode the
    graph is the class representative, the least edge mask of its orbit.

    No report is possible: F = b^T adj(L) b, with b = e_x - e_y, is an
    integer combination of the entries of adj(L) b, so gcd(det, adj(L) b)
    divides F; and a coprime deletion has gcd(det, det - c F) =
    gcd(det, c F) = 1. The report path is kept as the harness's
    consistency check.
    """
    if exhaustive:
        _check_labeled_bound(max_vertices)
    else:
        _check_sample_bounds(max_vertices, max_extra_edges)
        if trials < 0:
            raise ValueError(f"trials must be nonnegative for the random search, got {trials}")
    params = {
        "max_vertices": max_vertices,
        "max_extra_edges": max_extra_edges,
        "trials": trials,
        "exhaustive": exhaustive,
    }
    units: Iterator[tuple[Multigraph, int]]
    if exhaustive:
        units = _relabeling_classes(max_vertices)
    else:
        # Samples are drawn as the scan reaches them; the scan takes nothing from rng.
        rng = random.Random(seed)
        units = ((random_connected_multigraph(rng, max_vertices, max_extra_edges), 1) for _ in range(trials))
    examined = 0
    coprime_count = 0
    counterexamples: list[tuple[Multigraph, tuple[int, int]]] = []
    for g, weight in units:
        edges, coprime, bad = _scan(g)
        examined += weight * edges
        coprime_count += weight * coprime
        counterexamples += [(g, pair) for pair in bad]
    return SearchOutcome(examined, coprime_count, counterexamples, seed, params)


def reverify_outcome(outcome: SearchOutcome) -> bool:
    """Recompute both defining conditions of every reported counterexample.

    The base graph's order and the order of delta(x, y) come from U and D of
    the integer `smith_normal_form`, not from the adjugate the search used;
    |K(G_1)| is the spanning-tree count of the deleted graph.
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
