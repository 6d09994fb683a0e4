"""Chip-firing moves and the constructive reduction on polygon stacks.

A configuration is a plain list of ints, one chip count per vertex; counts
may be negative. A move log is a list of (vertex, times) pairs where
positive times mean fire and negative mean borrow; replaying a log from the
start configuration reproduces the end configuration exactly.

Every move is one in-place Laplacian step. The reduction sweeps each
level's path once, from the base up; a cycle is the one-level stack.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .graphs import Multigraph, StackGraph, _int, _ints, cycle_graph, polygon_stack

MoveLog = list[tuple[int, int]]


def degree(c: Sequence[int]) -> int:
    """Total number of chips."""
    return sum(c)


def parse_configuration(text: str) -> list[int]:
    """Parse comma-separated chip counts like '0,4,-1,-1'."""
    try:
        return [int(p) for p in text.strip().split(",")]
    except ValueError:
        raise ValueError(f"bad configuration {text!r}") from None


def format_configuration(c: Sequence[int]) -> str:
    return ",".join(str(x) for x in c)


def _move(g: Multigraph, cur: list[int], v: int, times: int) -> None:
    """Fire v `times` times in place (negative times borrow). The neighbor
    map is read directly, not through the sorting `incident`: the sums do
    not depend on the order."""
    cur[v] -= times * g.degree(v)
    for u, mult in (g._adj or g._build_adj()).get(v, {}).items():
        cur[u] += times * mult


def fire(g: Multigraph, c: Sequence[int], v: int, times: int = 1) -> list[int]:
    """Fire vertex v `times` times (negative times borrow)."""
    return replay_log(g, c, [(v, times)])


def replay_log(g: Multigraph, c: Sequence[int], log: Sequence[tuple[int, int]]) -> list[int]:
    """Apply a move log to a copy of c, checking the vertex, its count and
    the configuration length at every entry."""
    out = _ints(c, "chip count at vertex {}")
    for v, times in log:
        try:
            v, times = index(v), index(times)
        except TypeError:
            raise TypeError(f"move ({v!r}, {times!r}) needs an integer vertex and count") from None
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        if len(out) != g.n:
            raise ValueError(f"configuration length {len(out)} != n={g.n}")
        _move(g, out, v, times)
    return out


def _borrow(g: Multigraph, cur: list[int], log: MoveLog, v: int, count: int) -> None:
    # borrow `count` times at v, in place; zero borrows are dropped from the log
    if count == 0:
        return
    _move(g, cur, v, -count)
    log.append((v, -count))


def _sweep_path(g: Multigraph, cur: list[int], log: MoveLog, path: list[int], pos: int) -> None:
    """Consolidate all chips on a path onto (path[pos], path[pos+1]).

    Borrows happen only at interior path vertices, so nothing leaks back
    into whatever the path endpoints are attached to.
    """
    last = len(path) - 1
    for j in range(1, pos + 1):
        _borrow(g, cur, log, path[j], cur[path[j - 1]])
    for j in range(last - 1, pos, -1):
        _borrow(g, cur, log, path[j], cur[path[j + 1]])


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

    log: MoveLog = []
    for path, target in zip(paths, targets):
        _sweep_path(g, cur, log, path, target)
    return cur, log
