"""Multigraphs with integer edge multiplicities, plus the constructors used
throughout the package: cycles, complete graphs, wedge sums, path additions
and polygon stacks."""

from __future__ import annotations

from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from operator import index


def _ints(values: Iterable, what: str) -> list[int]:
    """The values as ints by operator.index: a float is refused, named by `what` with its position for {}."""
    values = list(values)
    try:
        return list(map(index, values))
    except TypeError:
        k = next(k for k, x in enumerate(values) if not hasattr(type(x), "__index__"))
        raise TypeError(f"{what.format(k)} is {values[k]!r}, not an integer") from None


def _int(value, what: str) -> int:
    """One value as an int by operator.index: a float is refused, named by `what`."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{what} is {value!r}, not an integer") from None


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_edge(n: int, u: int, v: int, m: int, where: str = "") -> tuple[int, int, int]:
    """(u, v, m) as ints; refuse a non-integer, a self-loop, an endpoint outside 0..n-1 or a multiplicity < 1."""
    if not type(u) is type(v) is type(m) is int:  # plain ints, the common case, skip three calls
        try:
            u, v, m = index(u), index(v), index(m)
        except TypeError:
            raise TypeError(f"{where}edge ({u!r},{v!r}) with multiplicity {m!r}: not all integers") from None
    if u == v:
        raise ValueError(f"{where}self-loop at vertex {u} is not allowed")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"{where}edge ({u},{v}) out of range for n={n}")
    if m < 1:
        raise ValueError(f"{where}edge ({u},{v}) has multiplicity {m} < 1")
    return u, v, m


class Multigraph:
    """Undirected multigraph on vertices 0..n-1.

    Parallel edges are stored as a multiplicity per unordered vertex pair.
    Self-loops are rejected. The constructor makes one pass over the edges,
    which fills the edge table and the degrees; the adjacency is built from
    the table on first use. Instances are treated as immutable: all
    operations build new graphs.
    """

    def __init__(self, n: int, edges: Mapping[tuple[int, int], int] | Iterable = ()):
        n = _int(n, "n")
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        # only vertices with edges get entries, so storage grows with the edges, not n
        table: dict[tuple[int, int], int] = {}
        deg: dict[int, int] = {}
        keyed = isinstance(edges, Mapping)
        entries = iter(edges.items() if keyed else edges)
        e = entries  # stands for "no entry yet" if the iterator itself fails
        try:
            for e in entries:
                if keyed:
                    (u, v), m = e
                elif len(e) == 3:
                    u, v, m = e
                else:
                    (u, v), m = e, 1
                if not (type(u) is type(v) is type(m) is int and u != v and 0 <= u < n and 0 <= v < n and m > 0):
                    u, v, m = _check_edge(n, u, v, m)
                k = (u, v) if u < v else (v, u)
                table[k] = table.get(k, 0) + m
                deg[u] = deg.get(u, 0) + m
                deg[v] = deg.get(v, 0) + m
        except (TypeError, ValueError):
            if e is entries or _entry_shape_ok(e, keyed):
                raise
            raise TypeError(f"edge key {e[0]!r} is not a vertex pair (u, v)" if keyed else
                            f"edge entry {e!r} is not (u, v) or (u, v, multiplicity)") from None
        self._edges = table
        self._deg = deg
        # read as `self._adj or self._build_adj()`: built on first use, and a
        # plain attribute keeps that read fast; an edgeless graph rebuilds {}
        self._adj: dict[int, dict[int, int]] = {}

    def _build_adj(self) -> dict[int, dict[int, int]]:
        self._adj = adj = _adjacency(self._edges)
        return adj

    def multiplicity(self, u: int, v: int) -> int:
        return self._edges.get(_key(_int(u, "u"), _int(v, "v")), 0)

    def degree(self, v: int) -> int:
        return self._deg.get(_int(v, "v"), 0)

    def neighbors(self, v: int) -> list[int]:
        return sorted((self._adj or self._build_adj()).get(_int(v, "v"), ()))

    def incident(self, v: int) -> list[tuple[int, int]]:
        """Sorted (neighbor, multiplicity) pairs for vertex v."""
        return sorted((self._adj or self._build_adj()).get(_int(v, "v"), {}).items())

    def edge_items(self) -> list[tuple[tuple[int, int], int]]:
        """Sorted ((u, v), multiplicity) pairs with u < v."""
        return sorted(self._edges.items())

    def edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(self._edges.values())

    def edge_dict(self) -> dict[tuple[int, int], int]:
        return dict(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, edges={self.edge_items()})"


def _entry_shape_ok(e, keyed: bool) -> bool:
    """Whether an edge entry has the shape the constructor unpacks: a key
    (u, v) in a mapping, else (u, v) or (u, v, multiplicity)."""
    try:
        return len(e[0]) == 2 if keyed else len(e) in (2, 3)
    except TypeError:
        return False


def _adjacency(edges: Mapping[tuple[int, int], int]) -> dict[int, dict[int, int]]:
    """Neighbor -> multiplicity maps of an edge table, for the vertices that have edges."""
    adj: dict[int, dict[int, int]] = {}
    for (u, v), m in edges.items():
        adj.setdefault(u, {})[v] = m
        adj.setdefault(v, {})[u] = m
    return adj


def _connected(n: int, edges: Collection[tuple[int, int]]) -> bool:
    """True iff the edge keys (u, v) join the n vertices 0..n-1 into one
    component (K_1 is connected), by union-find with path halving (Tarjan,
    J. ACM 22, 1975). Fewer than n - 1 keys cannot span, so they are
    refused before anything is allocated, and the scan stops once one
    component is left."""
    if n <= 1:
        return True
    if len(edges) < n - 1:
        return False
    parent = list(range(n))
    left = n - 1  # merges still to make
    for u, v in edges:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            left -= 1
            if not left:
                return True
    return False


def is_connected(g: Multigraph) -> bool:
    """True iff every vertex is reachable from vertex 0 (K_1 is connected),
    decided on the graph's edge table, without its adjacency."""
    return _connected(g.n, g._edges)


def cycle_graph(m: int) -> Multigraph:
    """Cycle on m vertices; m = 2 gives the two-vertex double edge."""
    if (m := _int(m, "m")) < 2:
        raise ValueError(f"cycle needs at least 2 vertices, got {m}")
    if m == 2:
        return Multigraph(2, {(0, 1): 2})
    return Multigraph(m, {(i, (i + 1) % m): 1 for i in range(m)})


def complete_graph(m: int) -> Multigraph:
    if (m := _int(m, "m")) < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {m}")
    return Multigraph(m, {(i, j): 1 for i in range(m) for j in range(i + 1, m)})


def wedge_sum(g1: Multigraph, v1: int, g2: Multigraph, v2: int) -> Multigraph:
    """Glue g2 onto g1 by identifying v2 with v1.

    Relabeling is deterministic: vertex w of g2 maps to v1 if w == v2, else
    to g1.n + w (minus one if w > v2), so g2's remaining vertices occupy
    g1.n .. g1.n + g2.n - 2 in their original order.
    """
    v1, v2 = _int(v1, "v1"), _int(v2, "v2")
    if not (0 <= v1 < g1.n):
        raise ValueError(f"vertex {v1} out of range for first graph (n={g1.n})")
    if not (0 <= v2 < g2.n):
        raise ValueError(f"vertex {v2} out of range for second graph (n={g2.n})")

    def relabel(w: int) -> int:
        if w == v2:
            return v1
        return g1.n + (w if w < v2 else w - 1)

    edges = g1.edge_dict()
    for (u, v), m in g2.edge_items():
        k = _key(relabel(u), relabel(v))
        edges[k] = edges.get(k, 0) + m
    return Multigraph(g1.n + g2.n - 1, edges)


def add_path(g: Multigraph, x: int, y: int, length: int) -> Multigraph:
    """Add a path of `length` edges (length - 1 new vertices) between x and y.

    New vertices get consecutive indices g.n .. g.n + length - 2;
    length = 1 just increments the multiplicity of (x, y).
    """
    x, y, length = _int(x, "x"), _int(y, "y"), _int(length, "length")
    if x == y:
        raise ValueError("path endpoints must be distinct (self-loops forbidden)")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"path endpoints ({x},{y}) out of range for n={g.n}")
    if length < 1:
        raise ValueError(f"path length must be >= 1, got {length}")
    edges = g.edge_dict()
    _add_chain(edges, [x, *range(g.n, g.n + length - 1), y])
    return Multigraph(g.n + length - 1, edges)


def _add_chain(edges: dict[tuple[int, int], int], chain: Sequence[int]) -> None:
    """Add one edge between each consecutive pair of `chain` to `edges`."""
    for a, b in zip(chain, chain[1:]):
        k = _key(a, b)
        edges[k] = edges.get(k, 0) + 1


def delete_edges(g: Multigraph, x: int, y: int, count: int | None = None) -> Multigraph:
    """Remove `count` parallel edges between x and y (all of them when None)."""
    x, y = _int(x, "x"), _int(y, "y")
    if x == y:
        raise ValueError("edge endpoints must be distinct (self-loops forbidden)")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertices ({x},{y}) out of range for n={g.n}")
    m = g.multiplicity(x, y)
    count = m if count is None else _int(count, "count")
    if not (0 <= count <= m):
        raise ValueError(f"cannot remove {count} edges from multiplicity {m}")
    edges = g.edge_dict()
    k = _key(x, y)
    if m - count == 0:
        edges.pop(k, None)
    else:
        edges[k] = m - count
    return Multigraph(g.n, edges)


# ----------------------------------------------------------------------------
# Polygon stacks


@dataclass
class StackGraph:
    """A stack of polygons together with its attachment bookkeeping.

    level_edges[i] is the edge shared by polygon i+1 and polygon i+2 (the
    pair the next path was attached across); paths[i] lists the vertices of
    polygon i+1's path in order (paths[0] is the base cycle's vertex order);
    level_positions[i] is the index of level_edges[i] within paths[i].
    active_pair is the pair available for the next attachment, None for the
    empty stack.
    """

    graph: Multigraph
    level_edges: list[tuple[int, int]]
    active_pair: tuple[int, int] | None
    paths: list[list[int]] = field(default_factory=list)
    level_positions: list[int] = field(default_factory=list)


def check_stack_spec(ks: Sequence[int]) -> tuple[int, ...]:
    spec = tuple(_ints(ks, "stack entry {}"))
    for k in spec:
        if k < 2:
            raise ValueError(f"stack entries must be >= 2, got {k}")
    return spec


def polygon_stack(ks: Sequence[int], attach_positions: Sequence[int] | None = None) -> StackGraph:
    """Build the polygon stack for (k_1, ..., k_n).

    Level 1 is a k_1-cycle with canonical attachment pair (0, 1); each later
    level adds a path of k_i - 1 edges across the current attachment pair,
    whose k_i - 2 new vertices take the next free indices. By default the
    next pair is (x, first new vertex) for k_i >= 3 and is unchanged for
    k_i = 2. `attach_positions` overrides the default choice: entry i
    selects which consecutive pair of level i+1's path hosts level i+2
    (position j means the pair (path[j], path[j+1]), cyclically on the base
    cycle). One edge table is filled and one graph built, in linear time.
    """
    spec = check_stack_spec(ks)
    if attach_positions is not None:
        attach_positions = _ints(attach_positions, "attach position {}")
        if len(attach_positions) != max(len(spec) - 1, 0):
            raise ValueError("need one attach position per level after the first")
    if not spec:
        return StackGraph(Multigraph(1), [], None, [], [])

    edges = cycle_graph(spec[0]).edge_dict()
    n = spec[0]
    paths: list[list[int]] = [list(range(n))]
    level_edges: list[tuple[int, int]] = []
    positions: list[int] = []

    for idx, k in enumerate(spec[1:]):
        prev = paths[-1]
        npairs = len(prev) if idx == 0 else len(prev) - 1  # base cycle allows any of its edges
        pos = 0 if attach_positions is None else attach_positions[idx]
        if not (0 <= pos < npairs):
            raise ValueError(f"attach position {pos} invalid for level {idx + 2}")
        x, y = prev[pos], prev[(pos + 1) % len(prev)]
        path = [x, *range(n, n + k - 2), y]
        _add_chain(edges, path)
        n += k - 2
        paths.append(path)
        level_edges.append((x, y))
        positions.append(pos)

    top = paths[-1]
    return StackGraph(Multigraph(n, edges), level_edges, (top[0], top[1]), paths, positions)


# ----------------------------------------------------------------------------
# Text formats


def parse_stack_spec(text: str) -> tuple[int, ...]:
    """Parse a comma-separated stack spec like '3,4,4'."""
    text = text.strip()
    if not text:
        return ()
    try:
        return check_stack_spec([int(p) for p in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"bad stack spec {text!r}: {exc}") from None


def parse_graph(text: str) -> Multigraph:
    """Read the graph text format.

    One `n <count>` line, then `e <u> <v> [mult]` lines; `#` starts a
    comment. Repeated `e` lines for the same pair accumulate multiplicity.
    """
    n = None
    edges: list[tuple[int, int, int, int]] = []  # (line, u, v, multiplicity)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *fields = line.split()
        if head not in ("n", "e"):
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
        try:
            nums = [int(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if head == "n":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate n line")
            if len(nums) != 1:
                raise ValueError(f"line {lineno}: expected 'n <count>'")
            n = nums[0]
            if n < 0:
                raise ValueError(f"line {lineno}: vertex count must be nonnegative, got {n}")
        else:
            if len(nums) not in (2, 3):
                raise ValueError(f"line {lineno}: expected 'e <u> <v> [mult]'")
            edges.append((lineno, nums[0], nums[1], nums[2] if len(nums) == 3 else 1))
    if n is None:
        raise ValueError("missing 'n <count>' line")
    for lineno, u, v, m in edges:
        _check_edge(n, u, v, m, f"line {lineno}: ")
    return Multigraph(n, [e[1:] for e in edges])


def format_graph(g: Multigraph) -> str:
    lines = [f"n {g.n}"]
    for (u, v), m in g.edge_items():
        lines.append(f"e {u} {v}" if m == 1 else f"e {u} {v} {m}")
    return "\n".join(lines) + "\n"


def format_dot(g: Multigraph) -> str:
    """Plain-structure DOT export (parallel edges repeated)."""
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for (u, v), m in g.edge_items():
        lines.extend(f"  {u} -- {v};" for _ in range(m))
    lines.append("}")
    return "\n".join(lines) + "\n"
