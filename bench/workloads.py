"""The three benchmark workloads.

Each workload builds its inputs from the seed as a list of blocks (`setup`),
runs the public calls of one block through `BlockRun.call` (`run_block`), and
judges a block's answers with checks that do not reuse the call being
judged (`check`). The blocks together are the run's fixed set of
operations; the worker runs them in turn, cycle after cycle.

Sizes are fixed (ladders of vertex counts; instances per search batch), and
the seed only draws the graphs, configurations and search seeds: so
different seeds give the same amount of work up to the spread of the graphs
themselves.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


class Failed:
    """Answer of an operation that raised; equal to nothing but itself."""

    def __init__(self, exc: Exception):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Failed({self.error})"


class BlockRun:
    """Times each public call of one run of a block; with tracing on, spans
    carry (block, item). Given a calibration function, runs it before the
    first call of every item and keeps its times in `cal`."""

    def __init__(self, block: int, tracer: Tracer | None = None, calibrate=None):
        self.block = block
        self.tracer = tracer
        self.calibrate = calibrate
        self.lat: list[float] = []
        self.cal: list[float] = []
        self._item = None

    def call(self, item, fn, *args):
        if self.calibrate is not None and item != self._item:
            self.cal.append(self.calibrate())
        self._item = item
        if self.tracer is not None:
            self.tracer.item = (self.block, item)
        t = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing call is counted, not fatal
            out = Failed(exc)
        self.lat.append(perf_counter() - t)
        return out


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _degree_zero(rng: random.Random, n: int, spread: int) -> list[int]:
    c = [rng.randint(-spread, spread) for _ in range(n)]
    c[rng.randrange(n)] -= sum(c)
    return c


def _apply_log(g, c, log) -> list[int]:
    """Replay a move log with the Laplacian directly (independent of firing)."""
    out = list(c)
    for v, times in log:
        out[v] -= times * g.degree(v)
        for u, m in g.incident(v):
            out[u] += times * m
    return out


class GroupRandom:
    """Dense random multigraphs: elimination with entry growth dominates."""

    name = "group_random"
    # Three graphs at n = 48 per block: the cycle's tail call (ten calls
    # beyond it) then falls among 18 critical groups of that size, near
    # their median, and not on the cost of one particular graph.
    sizes = {"full": {"ladder": (20, 32, 40, 48, 48, 48), "blocks": 6, "max_n": 60, "bumps": 30},
             "tiny": {"ladder": (6, 9), "blocks": 1, "max_n": 10, "bumps": 3}}

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def _sample(self, cg, base: int, n: int):
        # random_connected_multigraph draws n first; pick the sub-seed whose
        # first draw is n, so every seed covers the same vertex-count ladder.
        for s in range(base, base + 100_000):
            if random.Random(s).randint(2, self.p["max_n"]) == n:
                g = cg.random_connected_multigraph(random.Random(s), self.p["max_n"], self.p["bumps"])
                if g.n == n:
                    return g
        raise ValueError(f"no sub-seed from {base} gives a {n}-vertex sample")

    def setup(self, cg, seed: int):
        rng = _rng(self.name, seed)
        blocks = []
        for _ in range(self.p["blocks"]):
            items = []
            for n in self.p["ladder"]:
                g = self._sample(cg, rng.getrandbits(48), n)
                c1 = _degree_zero(rng, n, 4)
                c1f = c1
                for _ in range(3):
                    c1f = cg.fire(g, c1f, rng.randrange(n), rng.choice((-2, -1, 1, 2)))
                items.append((g, c1, c1f, _degree_zero(rng, n, 4)))
            blocks.append(items)
        return blocks

    def run_block(self, cg, items, rnd: BlockRun) -> list:
        def tree_det(g):
            return cg.determinant(cg.reduced_laplacian(g, g.n - 1))

        answers = []
        for i, (g, c1, c1f, c2) in enumerate(items):
            kg = rnd.call(i, cg.critical_group, g)
            answers.append(kg if isinstance(kg, Failed) else (tuple(kg.invariant_factors), kg.order))
            answers.append(rnd.call(i, tree_det, g))
            answers.append(rnd.call(i, cg.configuration_order, kg, c1))
            answers.append(rnd.call(i, cg.configuration_order, kg, c1f))
            answers.append(rnd.call(i, cg.are_equivalent, kg, c1, c1f))
            answers.append(rnd.call(i, cg.are_equivalent, kg, c1, c2))
        return answers

    def check(self, cg, items, answers) -> list[bool]:
        ok = []
        for i in range(len(items)):
            grp, det, o1, o1f, eq_f, eq_r = answers[6 * i:6 * i + 6]
            if isinstance(grp, tuple):
                factors, order = grp
                prod = 1
                for f in factors:
                    prod *= f
                chain = all(f > 1 for f in factors) and all(b % a == 0 for a, b in zip(factors, factors[1:]))
                group_ok = chain and prod == order
                exponent = factors[-1] if factors else 1
            else:
                group_ok, order, exponent = False, None, None
            det_ok = isinstance(det, int) and det == order
            # Fired configurations are equivalent by definition; their class
            # orders agree and divide the group exponent.
            o1_ok = isinstance(o1, int) and exponent is not None and o1 > 0 and exponent % o1 == 0
            ok += [group_ok and det_ok, det_ok, o1_ok, o1_ok and o1f == o1, eq_f is True,
                   isinstance(eq_r, bool)]
        return ok

    def count_items(self, answers) -> int:
        return len(answers) // 6


def _stack_spec(rng: random.Random, n: int) -> tuple[int, ...]:
    """Seeded polygon sizes in 3..6 whose stack has exactly n vertices."""
    ks = [rng.randint(3, 6)]
    have = ks[0]
    while n - have > 4:
        k = rng.randint(3, 6)
        ks.append(k)
        have += k - 2
    if n > have:
        ks.append(n - have + 2)
    return tuple(ks)


class PairsStack:
    """Polygon stacks: tiny SNF entries, the O(n^2) pair scan dominates."""

    name = "pairs_stack"
    sizes = {"full": {"ladder": (16, 24, 32, 40, 48), "blocks": 3, "reductions": 4},
             "tiny": {"ladder": (5, 8), "blocks": 1, "reductions": 2}}

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def setup(self, cg, seed: int):
        rng = _rng(self.name, seed)
        blocks = []
        for _ in range(self.p["blocks"]):
            items = []
            for n in self.p["ladder"]:
                # The polygon sizes for n are fixed and the seed orders them,
                # so every seed scans groups of about the same size.
                spec = list(_stack_spec(_rng(self.name, "sizes", n), n))
                rng.shuffle(spec)
                spec = tuple(spec)
                sg = cg.polygon_stack(spec)
                top = sg.paths[-1]
                span = len(top) if len(sg.paths) == 1 else len(top) - 1
                tasks = [(_degree_zero(rng, n, 5), rng.randrange(span)) for _ in range(self.p["reductions"])]
                items.append((spec, sg, tasks))
            blocks.append(items)
        return blocks

    def _per_item(self) -> int:
        return 2 + 2 * self.p["reductions"]

    def run_block(self, cg, items, rnd: BlockRun) -> list:
        answers = []
        for i, (spec, sg, tasks) in enumerate(items):
            reps = rnd.call(i, cg.find_generating_pairs, sg.graph)
            answers.append(reps if isinstance(reps, Failed)
                           else tuple((r.x, r.y, r.element_order, r.generates) for r in reps))
            answers.append(rnd.call(i, cg.tree_count, spec))
            for c, pos in tasks:
                red = rnd.call(i, cg.reduce_to_pair, sg, c, pos)
                log = [] if isinstance(red, Failed) else red[1]
                answers.append(red if isinstance(red, Failed) else (tuple(red[0]), tuple(log)))
                answers.append(rnd.call(i, cg.replay_log, sg.graph, c, log))
        return answers

    def check(self, cg, items, answers) -> list[bool]:
        ok = []
        k = self._per_item()
        for i, (spec, sg, tasks) in enumerate(items):
            g = sg.graph
            chunk = answers[k * i:k * i + k]
            reps, trees = chunk[0], chunk[1]
            kg = cg.critical_group(g)
            trees_ok = trees == kg.order
            reps_ok = isinstance(reps, tuple) and trees_ok
            if reps_ok:
                pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]
                orders = {(x, y): (o, gen) for x, y, o, gen in reps}
                reps_ok = [(x, y) for x, y, _, _ in reps] == pairs and all(
                    trees % o == 0 and gen == (o == trees) for o, gen in orders.values())
                # Consecutive vertices of the top path form generating pairs.
                top = sg.paths[-1]
                for a, b in zip(top, top[1:]):
                    reps_ok = reps_ok and orders[(min(a, b), max(a, b))][1]
            ok += [reps_ok, trees_ok]
            top = sg.paths[-1]
            for j, (c, pos) in enumerate(tasks):
                red, replayed = chunk[2 + 2 * j], chunk[3 + 2 * j]
                red_ok = isinstance(red, tuple)
                if red_ok:
                    out, log = list(red[0]), list(red[1])
                    target = {top[pos], top[(pos + 1) % len(top)]}
                    red_ok = (all(out[v] == 0 for v in range(g.n) if v not in target)
                              and sum(out) == 0 and _apply_log(g, c, log) == out
                              and cg.are_equivalent(kg, c, out))
                ok += [red_ok, red_ok and isinstance(replayed, list) and replayed == out]
        return ok

    def count_items(self, answers) -> int:
        return len(answers) // self._per_item()


def _search_json(answer):
    """The JSON document of a successful `critgroups search --json`, else None."""
    if not (isinstance(answer, tuple) and answer[0] == 0):
        return None
    try:
        doc = json.loads(answer[1])
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and {"examined", "coprime_instances", "counterexamples"} <= set(doc) else None


class SearchCoprime:
    """Thousands of tiny critical groups: per-call overhead dominates.

    Each search runs as `critgroups search ... --json`, through the CLI's
    `main` in this process: the scan, the re-verification of what it found,
    and the JSON output, so the `cli` layer is measured here too.
    """

    name = "search_coprime"
    # Exhaustive counts (examined, coprime instances, counterexamples).
    pins = {5: (4294, 2265, 0), 4: (154, 75, 0)}
    # "examined": instances per batch, give or take EXAMINED_SLACK (the
    # mean over free seeds is 80.0 at full size and 7.4 at tiny size).
    sizes = {"full": {"exhaustive": 5, "blocks": 4, "batches": 10, "trials": 8, "max_n": 9, "bumps": 2,
                      "examined": 80},
             "tiny": {"exhaustive": 4, "blocks": 2, "batches": 6, "trials": 2, "max_n": 5, "bumps": 1,
                      "examined": 7}}
    EXAMINED_SLACK = 2

    def __init__(self, size: str):
        self.p = self.sizes[size]

    def _batch_seed(self, cg, rng: random.Random) -> int:
        # A batch's cost follows the number of (graph, edge) instances it
        # examines, which varies threefold between free seeds. Drawing the
        # search seed until its batch examines about the fixed number keeps
        # every seed's work the same; coprime_pair_search samples its graphs
        # with random_connected_multigraph from random.Random(seed), as here.
        p = self.p
        while True:
            s = rng.getrandbits(32)
            graphs = random.Random(s)
            examined = sum(len(cg.random_connected_multigraph(graphs, p["max_n"], p["bumps"]).edge_items())
                           for _ in range(p["trials"]))
            if abs(examined - p["examined"]) <= self.EXAMINED_SLACK:
                return s

    def setup(self, cg, seed: int):
        importlib.import_module("critgroups.cli")
        # A block of one exhaustive search (seed None), then blocks of seeded batches.
        rng = _rng(self.name, seed)
        p = self.p
        return [[None]] + [[self._batch_seed(cg, rng) for _ in range(p["batches"])] for _ in range(p["blocks"])]

    def _argv(self, s) -> list[str]:
        p = self.p
        if s is None:
            return ["search", "--max-vertices", str(p["exhaustive"]), "--exhaustive", "--json"]
        return ["search", "--max-vertices", str(p["max_n"]), "--max-extra-edges", str(p["bumps"]),
                "--trials", str(p["trials"]), "--seed", str(s), "--json"]

    def run_block(self, cg, seeds, rnd: BlockRun) -> list:
        cli = sys.modules["critgroups.cli"]

        def search(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        return [rnd.call(i, search, self._argv(s)) for i, s in enumerate(seeds)]

    def check(self, cg, seeds, answers) -> list[bool]:
        p = self.p
        ok = []
        for s, ans in zip(seeds, answers):
            doc = _search_json(ans)
            good = doc is not None
            if good:
                if s is None:
                    want = cg.coprime_pair_search(p["exhaustive"], 0, 0, None, True)
                else:
                    want = cg.coprime_pair_search(p["max_n"], p["bumps"], p["trials"], s, False)
                counts = (doc["examined"], doc["coprime_instances"], len(doc["counterexamples"]))
                good = (counts == (want.examined, want.coprime_instances, len(want.counterexamples))
                        and cg.reverify_outcome(want) and 0 <= want.coprime_instances <= want.examined)
                if s is None:
                    good = good and counts == self.pins[p["exhaustive"]]
            ok.append(good)
        return ok

    def count_items(self, answers) -> int:
        return sum(doc["examined"] for doc in map(_search_json, answers) if doc is not None)


WORKLOADS = {w.name: w for w in (GroupRandom, PairsStack, SearchCoprime)}
