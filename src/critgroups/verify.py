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
tested for connectivity on the drawn edge table, and the search scans that
table, (n, edges), as drawn: it builds a Multigraph only for a report. The
sampler and the search check the random search's bounds before they draw.

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
from operator import sub
from typing import Iterator, Mapping

from .critical import delta_config, reduced_laplacian
from .graphs import Multigraph, _connected, _int, _key, delete_edges, is_connected
from . import linalg
from .linalg import _laplacian, smith_normal_form


MAX_SUBSETS = 10**6


def _edge_instances(g: Multigraph, limit: int, size: int) -> list[tuple[int, int]]:
    """Edges of a connected g, parallel ones repeated: at most `limit` of
    them, and at most MAX_SUBSETS subsets of `size` of them to enumerate."""
    limit = _int(limit, "limit")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if (edges := g.edge_count()) > limit:
        raise ValueError(f"{edges} edges exceeds enumeration limit {limit}")
    subsets = comb(edges, max(size, 0))
    if subsets > MAX_SUBSETS:
        raise ValueError(f"{subsets} subsets of {size} edges exceeds the enumeration bound {MAX_SUBSETS}")
    return [e for e, m in g.edge_items() for _ in range(m)]


def brute_spanning_trees(g: Multigraph, limit: int = 20) -> int:
    """Count spanning trees by enumerating edge-instance subsets.

    Parallel edges count as distinct instances, matching the matrix-tree
    determinant. n - 1 edges form a spanning tree iff they connect the
    graph. Refuses graphs with more than `limit` edge instances, or more
    than MAX_SUBSETS (10^6) subsets of n - 1 of them.
    """
    instances = _edge_instances(g, limit, g.n - 1)
    return sum(_connected(g.n, subset) for subset in combinations(instances, g.n - 1))


def brute_spanning_forests(g: Multigraph, x: int, y: int, limit: int = 20) -> int:
    """Count two-tree spanning forests separating roots x and y, with the
    same refusals as `brute_spanning_trees` for subsets of n - 2 edges:
    such a forest plus an x-y edge is a spanning tree."""
    instances = _edge_instances(g, limit, g.n - 2)
    x, y = _int(x, "x"), _int(y, "y")
    if x == y:
        raise ValueError("roots must be distinct")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"roots ({x},{y}) out of range for n={g.n}")
    return sum(_connected(g.n, (*subset, (x, y))) for subset in combinations(instances, g.n - 2))


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


def _adjugate(n: int, edges: Mapping[tuple[int, int], int]) -> tuple[int, list[list[int]]]:
    """det L and adj L for the Laplacian L of the connected multigraph on
    n vertices with edge table `edges`, reduced at its last vertex q,
    indexed by vertex: adj L is read off the triangle of one symmetric
    elimination of L's rows, and a zero row and column are added at q.
    Callers refuse a disconnected graph, whose dense rows are not built."""
    det, tri, symmetric = linalg._eliminate(_laplacian(n, edges, n - 1))
    adj = linalg._adjugate(tri, symmetric)
    for row in adj:
        row.append(0)
    adj.append([0] * n)
    return det, adj


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
    critical group iff that gcd is 1. adj L is symmetric, so adj(L) b is
    row x minus row y."""
    return gcd(det, *map(sub, adj[x], adj[y])) == 1


def _is_cyclic(adj: list[list[int]]) -> bool:
    """The gcd of the entries of adj L is the product of every invariant
    factor but the last, which is 1 iff the group is cyclic."""
    return gcd(*(v for row in adj for v in row)) == 1


def lorenzini_check(g: Multigraph, x: int, y: int) -> LorenziniReport:
    """Coprimality data for the x-y edges of g; a disconnected g is refused before any elimination."""
    x, y = _int(x, "x"), _int(y, "y")
    c = g.multiplicity(x, y)
    if c <= 0:
        raise ValueError(f"vertices {x} and {y} must be joined by at least one edge")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    det, adj = _adjugate(g.n, g._edges)
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
    """One path edge of G' deleted. That leaves G with pendant trees, so
    order_g1_prime is |K(G)|, and coprime_with_g1 restates the hypothesis
    that |K(G)| and |K(G_1)| are coprime."""

    pair: tuple[int, int]
    order_g1_prime: int
    coprime_with_g1: bool


@dataclass
class LorenziniPathReport:
    """G' is G plus an x-y path of `length` edges: its tree count, whether
    K(G') is cyclic, and one ChainCheck per path edge, x first."""

    base: LorenziniReport
    length: int
    order_g_prime: int
    cyclic_g_prime: bool
    chain: list[ChainCheck]


def lorenzini_path_check(g: Multigraph, x: int, y: int, length: int) -> LorenziniPathReport:
    """Add a path of `length` edges between x and y and verify the chain
    coprimality conclusion: |K(G_1)| stays coprime to |K(G_1')| for every
    deleted chain edge, and K(G') is cyclic. G' is never built: with
    t = |K(G)|, t1 = |K(G_1)| and c the x-y multiplicity from
    `lorenzini_check`, F = (t - t1)/c counts the two-tree forests of G
    separating x and y. A spanning tree of G' misses one path edge
    (length * t ways) or holds the whole path (F ways), so |K(G')| =
    length * t + F. Deleting a path edge leaves G with pendant trees, of
    order t. And gcd(|K(G')|, t) = gcd(F, t) = 1, as gcd(t, c F) =
    gcd(t, t1) = 1; the gcd of the entries of adj L' divides |K(G')| and
    the forest count |K(G')| - t of a path edge, hence t, so it is 1 and
    K(G') is cyclic.
    """
    length = _int(length, "length")
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    base = lorenzini_check(g, x, y)
    if not (base.g1_connected and base.coprime):
        raise ValueError("hypothesis fails: deleted graph must be connected with coprime order")
    t = base.order_g
    order = length * t + (t - base.order_g1) // base.multiplicity
    chain = [base.x, *range(g.n, g.n + length - 1), base.y]
    return LorenziniPathReport(
        base=base,
        length=length,
        order_g_prime=order,
        cyclic_g_prime=gcd(order, t) == 1,
        chain=[ChainCheck(pair, t, base.coprime) for pair in zip(chain, chain[1:])],
    )


# ----------------------------------------------------------------------------
# Graph sampling and enumeration

MAX_SAMPLE_VERTICES = 200
MAX_SAMPLE_EXTRA_EDGES = 100_000  # one random pair is drawn for each


def _check_sample_bounds(max_vertices: int, max_extra_edges: int) -> tuple[int, int]:
    """The sampling parameters as ints; refuse a non-integer, by name, or a
    value outside the random search's bounds."""
    max_vertices = _int(max_vertices, "max_vertices")
    max_extra_edges = _int(max_extra_edges, "max_extra_edges")
    if not 2 <= max_vertices <= MAX_SAMPLE_VERTICES:
        bound = "at least 2" if max_vertices < 2 else f"at most {MAX_SAMPLE_VERTICES}"
        raise ValueError(f"max_vertices must be {bound} for the random search, got {max_vertices}")
    if not 0 <= max_extra_edges <= MAX_SAMPLE_EXTRA_EDGES:
        raise ValueError(f"max_extra_edges must be from 0 to {MAX_SAMPLE_EXTRA_EDGES} for the random search, "
                         f"got {max_extra_edges}")
    return max_vertices, max_extra_edges


def random_connected_multigraph(rng: random.Random, max_vertices: int, max_extra_edges: int) -> Multigraph:
    """Seeded sample: Erdos-Renyi simple graph conditioned on connectivity,
    decided on the drawn edge table, then up to max_extra_edges multiplicity
    bumps on random vertex pairs; one graph is built, from `_draw_sample`'s
    table. The random search's bounds (2 to 200 vertices, 0 to 100,000
    bumps) are checked before any draw."""
    return Multigraph(*_draw_sample(rng, *_check_sample_bounds(max_vertices, max_extra_edges)))


def _draw_sample(rng: random.Random, max_vertices: int, max_extra_edges: int) -> tuple[int, dict[tuple[int, int], int]]:
    """The body of `random_connected_multigraph`, for bounds already
    checked: (n, edge table), the table's keys (u, v) with u < v and its
    values multiplicities of at least 1, so it is a valid Multigraph's."""
    n = rng.randint(2, max_vertices)
    pairs = _vertex_pairs(n)
    while True:
        p = rng.uniform(0.3, 0.9)
        edges = {pair: 1 for pair in pairs if rng.random() < p}
        if _connected(n, edges):
            break
    for _ in range(rng.randint(0, max_extra_edges)):
        u, v = rng.sample(range(n), 2)
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, 0) + 1
    return n, edges


def _check_labeled_bound(max_vertices: int) -> int:
    """max_vertices as an int; refuse a non-integer, by name, or an
    exhaustive search or enumeration below 1 or above 7 vertices."""
    max_vertices = _int(max_vertices, "max_vertices")
    if not 1 <= max_vertices <= 7:
        bound = "at least 1" if max_vertices < 1 else "at most 7"
        raise ValueError(f"max_vertices must be {bound} for the labeled enumeration, got {max_vertices}")
    return max_vertices


def _vertex_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs of K_n in lexicographic order: bit i of an edge mask is pair i."""
    return list(combinations(range(n), 2))


def _mask_edges(pairs: list[tuple[int, int]], mask: int) -> dict[tuple[int, int], int]:
    return {pairs[i]: 1 for i in range(len(pairs)) if mask >> i & 1}


def enumerate_connected_simple_graphs(max_vertices: int) -> Iterator[Multigraph]:
    """All labeled connected simple graphs on 1..max_vertices vertices, by
    n and then by edge mask.

    Connectivity is decided on each edge mask's table, so only connected
    ones are built. Refuses max_vertices below 1 or above 7: 7 vertices
    already means 2^21 edge masks, and 8 would take days.
    """
    max_vertices = _check_labeled_bound(max_vertices)
    for n in range(1, max_vertices + 1):
        pairs = _vertex_pairs(n)
        for mask in range(1 << len(pairs)):
            edges = _mask_edges(pairs, mask)
            if _connected(n, edges):
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
        # A transposition permutes the mask's bits; two tables per transposition
        # map the low h bits of a mask and the bits above them to their images.
        h = (len(pairs) + 1) // 2
        tables = []
        for i in range(1, n):
            swap = {0: i, i: 0}
            image = [1 << index[_key(swap.get(u, u), swap.get(v, v))] for u, v in pairs]
            tables.append([[0] * (1 << h), [0] * (1 << (len(pairs) - h))])
            for b, table in zip((0, h), tables[-1]):
                for val in range(1, len(table)):
                    low = val & -val
                    table[val] = table[val ^ low] | image[b + low.bit_length() - 1]
        low_bits = (1 << h) - 1
        seen = bytearray(1 << len(pairs))
        rep = seen.find(0)
        while rep >= 0:
            seen[rep] = 1
            orbit = [rep]
            for m in orbit:  # the search's queue: grows as it finds new members
                lo, hi = m & low_bits, m >> h
                for t0, t1 in tables:
                    img = t0[lo] | t1[hi]
                    if not seen[img]:
                        seen[img] = 1
                        orbit.append(img)
            edges = _mask_edges(pairs, rep)
            if _connected(n, edges):
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


def _scan(n: int, edges: Mapping[tuple[int, int], int]) -> tuple[int, int, list[tuple[int, int]]]:
    """The distinct edges examined of the connected multigraph on n
    vertices with edge table `edges`, how many have a coprime deletion,
    and the coprime ones whose delta configuration does not generate, in
    sorted order, from one adjugate. The table is read as drawn, so no
    Multigraph is built or validated; generation is tested only for
    coprime deletions."""
    det, adj = _adjugate(n, edges)
    coprime = 0
    bad = []
    for (x, y), c in edges.items():
        order_g1 = _deletion_count(det, adj, x, y, c)
        if order_g1 > 0 and gcd(det, order_g1) == 1:
            coprime += 1
            if not _delta_generates(det, adj, x, y):
                bad.append((x, y))
    bad.sort()
    return len(edges), coprime, bad


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
    from 0 to 100,000; `trials` must not be negative. A count or a seed
    that is not an integer, such as a float, is refused with a TypeError
    that names it.
    Exhaustive mode draws nothing, so it refuses a nonzero max_extra_edges
    or trials, or a seed, with a ValueError that names them.

    Exhaustive mode scans one graph per isomorphism class and weights its
    counts by the class's relabeling orbit, n!/|Aut G| labeled graphs, so
    its counts are those of the labeled enumeration; a random sample has
    weight 1. Bounds are checked once, here; the scan reads each sample's
    edge table as `_draw_sample` draws it, or a class representative's
    table, and builds a Multigraph only for a report. A report is (scanned
    graph, pair), in the order of the graph's sorted edges: in exhaustive
    mode the graph is the class representative, the least edge mask of
    its orbit.

    No report is possible: F = b^T adj(L) b, with b = e_x - e_y, is an
    integer combination of the entries of adj(L) b, so gcd(det, adj(L) b)
    divides F; and a coprime deletion has gcd(det, det - c F) =
    gcd(det, c F) = 1. The report path is kept as the harness's
    consistency check.
    """
    if exhaustive:
        max_vertices = _check_labeled_bound(max_vertices)
        if max_extra_edges or trials or seed is not None:
            raise ValueError(f"an exhaustive search draws no samples, so it takes no max_extra_edges, trials "
                             f"or seed; got {max_extra_edges!r}, {trials!r} and {seed!r}")
    else:
        max_vertices, max_extra_edges = _check_sample_bounds(max_vertices, max_extra_edges)
        trials = _int(trials, "trials")
        if trials < 0:
            raise ValueError(f"trials must be nonnegative for the random search, got {trials}")
        seed = None if seed is None else _int(seed, "seed")
    params = {
        "max_vertices": max_vertices,
        "max_extra_edges": max_extra_edges,
        "trials": trials,
        "exhaustive": exhaustive,
    }
    units: Iterator[tuple[int, dict[tuple[int, int], int], int]]
    if exhaustive:
        units = ((g.n, g._edges, weight) for g, weight in _relabeling_classes(max_vertices))
    else:
        # Samples are drawn as the scan reaches them; the scan takes nothing from rng.
        rng = random.Random(seed)
        units = ((*_draw_sample(rng, max_vertices, max_extra_edges), 1) for _ in range(trials))
    examined = 0
    coprime_count = 0
    counterexamples: list[tuple[Multigraph, tuple[int, int]]] = []
    for n, edges, weight in units:
        scanned, coprime, bad = _scan(n, edges)
        examined += weight * scanned
        coprime_count += weight * coprime
        if bad:
            g = Multigraph(n, edges)
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
