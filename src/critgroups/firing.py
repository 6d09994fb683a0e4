"""Chip-firing moves and the constructive reduction on polygon stacks.

A configuration is a plain list of ints, one chip count per vertex; counts
may be negative. A move log is a list of (vertex, times) pairs where
positive times mean fire and negative mean borrow; replaying a log from the
start configuration reproduces the end configuration exactly.

Every move is one in-place Laplacian step, written out inline on the
degree and adjacency tables, which are read once per call. The reduction
sweeps each level's path once, from the base up; a cycle is the one-level
stack.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .graphs import Multigraph, StackGraph, _int, _ints, cycle_graph, polygon_stack

MoveLog = list[tuple[int, int]]


def degree(c: Sequence[int]) -> int:
    """Total number of chips."""
    return sum(_ints(c, "chip count at vertex {}"))


def parse_configuration(text: str) -> list[int]:
    """Parse comma-separated chip counts like '0,4,-1,-1'."""
    try:
        return [int(p) for p in text.strip().split(",")]
    except ValueError:
        raise ValueError(f"bad configuration {text!r}") from None


def format_configuration(c: Sequence[int]) -> str:
    return ",".join(str(x) for x in c)


def fire(g: Multigraph, c: Sequence[int], v: int, times: int = 1) -> list[int]:
    """Fire vertex v `times` times (negative times borrow)."""
    return replay_log(g, c, [(v, times)])


def replay_log(g: Multigraph, c: Sequence[int], log: Sequence[tuple[int, int]]) -> list[int]:
    """Apply a move log to a copy of c, checking the vertex, its count and
    the configuration length at every entry. A vertex without edges is
    in no table, and its moves change nothing."""
    out = _ints(c, "chip count at vertex {}")
    n, deg, adj = g.n, g._deg, g._adj or g._build_adj()
    short = len(out) != n
    for v, times in log:
        if not type(v) is type(times) is int:  # plain ints, the common case, skip two calls
            try:
                v, times = index(v), index(times)
            except TypeError:
                raise TypeError(f"move ({v!r}, {times!r}) needs an integer vertex and count") from None
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range for n={n}")
        if short:
            raise ValueError(f"configuration length {len(out)} != n={n}")
        if v in deg:
            out[v] -= times * deg[v]
            for u, mult in adj[v].items():
                out[u] += times * mult
    return out


def reduce_on_cycle(g: Multigraph, c: Sequence[int]) -> tuple[list[int], MoveLog]:
    """Reduce a degree-zero configuration on C_n to a multiple of the delta
    configuration on the last two vertices.

    The output is (0, ..., 0, m, -m); m is recoverable as the next-to-last
    entry. Requires the canonical cycle labeling (edges i, i+1 mod n). The
    cycle is the one-level stack (n,), reduced onto its pair n - 2. A graph
    whose edge count is not n is refused before the cycle is built.
    """
    if not (g.n >= 3 and g.edge_count() == g.n and g == cycle_graph(g.n)):
        raise ValueError("reduce_on_cycle needs a canonical cycle on >= 3 vertices")
    return reduce_to_pair(polygon_stack((g.n,)), c, g.n - 2)


def reduce_to_pair(sg: StackGraph, c: Sequence[int], pos: int) -> tuple[list[int], MoveLog]:
    """Reduce a degree-zero configuration on a polygon stack onto the
    consecutive pair at index `pos` of the top level's path.

    Follows the inductive construction: clear the base cycle onto the first
    shared edge, consolidate each intermediate path onto the next shared
    edge, then consolidate the top path onto the requested pair. For a bare
    cycle, `pos` indexes its edges cyclically.
    """
    g = sg.graph
    if not sg.paths:
        raise ValueError("empty stack has no vertex pair to reduce onto")
    pos = _int(pos, "pos")
    cur = _ints(c, "chip count at vertex {}")
    if len(cur) != g.n:
        raise ValueError(f"configuration length {len(cur)} != n={g.n}")
    if sum(cur) != 0:
        raise ValueError(f"configuration must have degree 0, got {sum(cur)}")

    top = sg.paths[-1]
    if len(sg.paths) == 1:
        if not (0 <= pos < len(top)):
            raise ValueError(f"pair position {pos} out of range for the base cycle")
    elif not (0 <= pos < len(top) - 1):
        raise ValueError(f"pair position {pos} out of range for the top path")

    # One target pair per level. The base cycle, cut open at the edge just
    # after its target pair, is a path that ends with that pair.
    targets = [*sg.level_positions, pos]
    base, k = sg.paths[0], len(sg.paths[0])
    s = (targets[0] + 2) % k
    paths = [base[s:] + base[:s], *sg.paths[1:]]
    targets[0] = k - 2

    # Each path's chips go onto its target pair t, t + 1: forward from the
    # start, then back from the end, borrowing at an interior vertex as often
    # as its outer neighbor has chips, so nothing leaks into whatever the
    # path's endpoints are attached to. Zero borrows are not logged.
    log: MoveLog = []
    deg, adj = g._deg, g._adj or g._build_adj()
    for path, t in zip(paths, targets):
        for j in range(1, t + 1):
            count = cur[path[j - 1]]
            if count:
                v = path[j]
                cur[v] += count * deg[v]
                for u, mult in adj[v].items():
                    cur[u] -= count * mult
                log.append((v, -count))
        for j in range(len(path) - 2, t, -1):
            count = cur[path[j + 1]]
            if count:
                v = path[j]
                cur[v] += count * deg[v]
                for u, mult in adj[v].items():
                    cur[u] -= count * mult
                log.append((v, -count))
    return cur, log
