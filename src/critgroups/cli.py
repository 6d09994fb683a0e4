"""Command-line front end.

`main` parses the arguments and then every input a command reads: the
graph (a file path, `-` for standard input, or a `--stack k1,k2,...` spec,
kept as its `StackGraph`), the `--config` configurations and the `seq
--tuple` spec. It refuses inputs above the size budgets below, naming the
argument. A command is a function from those inputs to an `Output`: its
JSON document, with every big integer as a decimal string, and its text
lines, of which `--quiet` keeps only the primary ones. A command reports a
failure by raising ValueError. `main` alone writes to standard output, and
integers of any size print in full. Exit codes: 0 success, 1 domain error
(one `error:` line on standard error) or a reader that closes the output
pipe early (nothing on standard error), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from functools import cache
from math import comb, log10
from typing import NamedTuple

from . import __version__
from .critical import (
    _pair_reports,
    are_equivalent,
    configuration_order,
    critical_group,
    is_cyclic,
)
from .firing import (
    fire,
    format_configuration,
    parse_configuration,
    reduce_on_cycle,
    reduce_to_pair,
    replay_log,
)
from .graphs import (
    Multigraph,
    StackGraph,
    format_dot,
    format_graph,
    parse_graph,
    parse_stack_spec,
    polygon_stack,
)
from .recurrences import (
    alternating_tables,
    constant_k_closed_form,
    constant_k_table,
    forest_count,
    tree_count,
)
from .verify import (
    _tree_count,
    brute_spanning_trees,
    lorenzini_check,
    lorenzini_path_check,
    coprime_pair_search,
    reverify_outcome,
)

# Size budgets, timed on a shared 2-vCPU x86-64 host. Dense elimination
# costs O(n^3) operations on entries that grow with n: at 150 vertices the
# slowest eliminating commands, pairs and lorenzini on K_150, take 1.6 to
# 2.1 s (lorenzini_check on K_200: 6.5 s).
MAX_ELIMINATION_VERTICES = 150
# Stacks of the commands that do not eliminate build in linear time, but a
# reduction's chip counts grow by about two bits per level, so `reduce --log`
# prints quadratically many digits: 0.6 MB in 22 ms for 2,000 vertices. It
# also bounds lorenzini --path-len, which eliminates only G and prints one
# chain line per path edge: 0.64 MB for 2,000 edges on a 150-vertex graph.
# group --dot writes one line per edge, parallel ones included, so a graph
# file takes at most C(2000, 2) edges, as many as a simple graph on its
# 2,000 vertices can have.
MAX_STACK_VERTICES = 2000
# seq --n: the closed form takes 0.6 s for n = 2,000 (2-vCPU host), and the
# output grows quadratically in n (--const 4 --n 20000 prints 114 MB).
MAX_SEQ_N = 2000
# seq --const/--alt: the digits printed, estimated from a bound of i * b bits
# on value i, b the bit length of k (of k1*k2 for the two tables of --alt).
# The estimate for --const 4 --n 2000 is 1.81 M digits (1.15 MB printed).
MAX_SEQ_DIGITS = 2_000_000

# Commands that eliminate the reduced Laplacian of the graph they load.
ELIMINATING = frozenset({"group", "trees", "pairs", "order", "equiv", "lorenzini"})


class Inputs(NamedTuple):
    """A command's parsed inputs."""

    graph: Multigraph | None = None
    stack: StackGraph | None = None
    configs: tuple[list[int], ...] = ()
    spec: tuple[int, ...] | None = None


class Output(NamedTuple):
    """A command's result: its JSON document (None to print the text in
    either mode) and its text lines; `--quiet` drops the `detail` lines."""

    doc: dict | None
    lines: Sequence[str]
    detail: Sequence[str] = ()


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _graph_json(g: Multigraph) -> dict:
    return {"n": g.n, "edges": [[u, v, m] for (u, v), m in g.edge_items()]}


def _check_size(what: str, n: int, cap: int, command: str) -> None:
    if n > cap:
        raise ValueError(f"{what} has {n} vertices; {command} takes at most {cap}")


def _read_graph(source: str | None) -> Multigraph:
    if source is None:
        raise ValueError("no graph given: pass a file path, '-', or --stack")
    if source == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc}") from None
    return parse_graph(text)


def _inputs(args) -> Inputs:
    """Parse every input of the command, under Python's default limit on
    int-from-str digits, and refuse it above its size budget."""
    if args.command == "seq":
        if args.tuple is not None:
            return Inputs(spec=parse_stack_spec(args.tuple))
        if args.n > MAX_SEQ_N:
            raise ValueError(f"--n must be at most {MAX_SEQ_N}, got {args.n}")
        k, tables = (args.const, 1) if args.const is not None else (args.alt[0] * args.alt[1], 2)
        digits = round(tables * k.bit_length() * args.n * (args.n + 1) / 2 * log10(2))
        if digits > MAX_SEQ_DIGITS:
            raise ValueError(f"{'--const' if tables == 1 else '--alt'} with --n {args.n} would print about "
                             f"{digits} digits; seq prints at most {MAX_SEQ_DIGITS}")
        return Inputs()
    if args.command == "search":
        return Inputs()
    if (getattr(args, "path_len", None) or 0) > MAX_STACK_VERTICES:
        raise ValueError(f"--path-len must be at most {MAX_STACK_VERTICES}, got {args.path_len}")
    dot = getattr(args, "dot", False)
    eliminates = args.command in ELIMINATING and not dot
    cap = MAX_ELIMINATION_VERTICES if eliminates else MAX_STACK_VERTICES
    stack = None
    if args.stack is not None:
        spec = parse_stack_spec(args.stack)
        n = spec[0] + sum(k - 2 for k in spec[1:]) if spec else 1  # before the stack is built
        _check_size("--stack", n, cap, args.command)
        stack = polygon_stack(spec)
        g = stack.graph
    else:
        g = _read_graph(args.graph)
        if eliminates or dot:
            _check_size(f"graph {args.graph}", g.n, cap, args.command)
        if dot and (edges := g.edge_count()) > (most := comb(MAX_STACK_VERTICES, 2)):
            raise ValueError(f"graph {args.graph} has {edges} edges; group --dot writes at most {most}, one line each")
    return Inputs(g, stack, tuple(parse_configuration(c) for c in getattr(args, "config", None) or ()))


def cmd_group(args, inp: Inputs) -> Output:
    g = inp.graph
    if args.dot:
        return Output(None, format_dot(g).splitlines())
    kg = critical_group(g)
    factors = [str(f) for f in kg.invariant_factors]
    return Output(
        {**_graph_json(g), "invariant_factors": factors, "order": str(kg.order), "cyclic": is_cyclic(kg),
         "deleted_vertex": kg.deleted_vertex},
        [f"invariant factors: {', '.join(factors) or '(trivial)'}"],
        [f"order: {kg.order}", f"cyclic: {_flag(is_cyclic(kg))}", f"deleted vertex: {kg.deleted_vertex}"],
    )


def cmd_trees(args, inp: Inputs) -> Output:
    count = _tree_count(inp.graph)
    if not args.brute:
        return Output({"count": str(count)}, [str(count)])
    brute = brute_spanning_trees(inp.graph, limit=args.limit)
    if brute != count:
        raise ValueError(f"determinant count {count} != enumeration count {brute}")
    return Output({"count": str(count), "brute_count": str(brute)}, [str(count)], [f"enumeration agrees: {brute}"])


def cmd_pairs(args, inp: Inputs) -> Output:
    kg = critical_group(inp.graph)
    reports = _pair_reports(kg)
    if args.first:
        reports = [r for r in reports if r.generates][:1]
    return Output(
        {"order": str(kg.order),
         "pairs": [{"x": r.x, "y": r.y, "element_order": str(r.element_order), "generates": r.generates}
                   for r in reports]},
        [f"({r.x},{r.y}) order {r.element_order}: {'generates' if r.generates else 'does not generate'}"
         for r in reports]
        or ["no generating pair found" if args.first else "no pairs"],
    )


def cmd_order(args, inp: Inputs) -> Output:
    kg = critical_group(inp.graph)
    order = configuration_order(kg, inp.configs[0])
    return Output({"element_order": str(order), "group_order": str(kg.order)}, [str(order)])


def cmd_fire(args, inp: Inputs) -> Output:
    out = fire(inp.graph, inp.configs[0], args.vertex, args.times)
    return Output({"configuration": [str(x) for x in out]}, [format_configuration(out)])


def cmd_reduce(args, inp: Inputs) -> Output:
    g, c = inp.graph, inp.configs[0]
    out, log = reduce_to_pair(inp.stack, c, args.pair or 0) if inp.stack is not None else reduce_on_cycle(g, c)
    if replay_log(g, c, log) != out:
        raise ValueError("move log failed to replay")
    doc, lines = {"configuration": [str(x) for x in out]}, [format_configuration(out)]
    if args.log:
        doc["log"] = [[v, t] for v, t in log]
        lines += [f"fire {v} {t}" for v, t in log]
    return Output(doc, lines)


def cmd_equiv(args, inp: Inputs) -> Output:
    result = are_equivalent(critical_group(inp.graph), *inp.configs)
    return Output({"equivalent": result}, [_flag(result)])


def cmd_seq(args, inp: Inputs) -> Output:
    if inp.spec is not None:
        counts = {"T": str(tree_count(inp.spec))}
        if inp.spec:
            counts["F"] = str(forest_count(inp.spec))
        return Output(counts, [f"{k}: {v}" for k, v in counts.items()])
    if args.const is not None:
        if args.closed_form:
            values = [constant_k_closed_form(args.const, i) for i in range(args.n + 1)]
            label = f"T(k={args.const}) closed form"
        else:
            table = constant_k_table(args.const, args.n)
            values, label = table.values, table.label
        digits = [str(v) for v in values]
        return Output({"label": label, "values": digits}, [",".join(digits)])
    a, b = alternating_tables(*args.alt, args.n)
    da, db = [str(v) for v in a.values], [str(v) for v in b.values]
    return Output(
        {"A": {"label": a.label, "values": da}, "B": {"label": b.label, "values": db}},
        ["A: " + ",".join(da), "B: " + ",".join(db)],
    )


def cmd_lorenzini(args, inp: Inputs) -> Output:
    if args.path_len is not None:
        rep = lorenzini_path_check(inp.graph, args.x, args.y, args.path_len)
        return Output(
            {"order_g": str(rep.base.order_g), "order_g1": str(rep.base.order_g1), "length": rep.length,
             "order_g_prime": str(rep.order_g_prime), "cyclic_g_prime": rep.cyclic_g_prime,
             "chain": [{"pair": list(c.pair), "order_g1_prime": str(c.order_g1_prime),
                        "coprime": c.coprime_with_g1} for c in rep.chain]},
            [f"order |K(G')|: {rep.order_g_prime}", f"cyclic: {_flag(rep.cyclic_g_prime)}"]
            + [f"chain pair {c.pair}: |K(G1')| = {c.order_g1_prime}, coprime = {_flag(c.coprime_with_g1)}"
               for c in rep.chain],
        )
    rep = lorenzini_check(inp.graph, args.x, args.y)
    if rep.g1_connected:
        lines = [f"|K(G)| = {rep.order_g}", f"|K(G1)| = {rep.order_g1}", f"coprime: {_flag(rep.coprime)}",
                 f"cyclic: {_flag(rep.cyclic_g)}", f"pair generates: {_flag(rep.pair_generates)}"]
    else:
        lines = [f"|K(G)| = {rep.order_g}", "G1 disconnected: coprimality not applicable",
                 f"cyclic: {_flag(rep.cyclic_g)}"]
    return Output(
        {"x": rep.x, "y": rep.y, "multiplicity": rep.multiplicity, "order_g": str(rep.order_g),
         "order_g1": str(rep.order_g1), "coprime": rep.coprime, "cyclic": rep.cyclic_g,
         "pair_generates": rep.pair_generates, "g1_connected": rep.g1_connected},
        lines,
    )


def cmd_search(args, inp: Inputs) -> Output:
    outcome = coprime_pair_search(
        max_vertices=args.max_vertices,
        max_extra_edges=0 if args.exhaustive else 2 if args.max_extra_edges is None else args.max_extra_edges,
        trials=args.trials or 0,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )
    if not reverify_outcome(outcome):
        raise ValueError("search outcome failed re-verification")
    found = outcome.counterexamples
    return Output(
        {"examined": outcome.examined, "coprime_instances": outcome.coprime_instances,
         "seed": str(outcome.seed) if outcome.seed is not None else None, "params": outcome.params,
         "counterexamples": [{**_graph_json(g), "pair": [x, y]} for g, (x, y) in found]},
        [f"examined: {outcome.examined}", f"coprime instances: {outcome.coprime_instances}",
         f"counterexamples: {len(found)}"]
        + [f"  pair ({x},{y}) on {format_graph(g).strip()!r}" for g, (x, y) in found],
    )


def _size_pair(text: str) -> tuple[int, int]:
    try:
        k1, k2 = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two sizes k1,k2, got {text!r}") from None
    return k1, k2


def _add_common(p: argparse.ArgumentParser, graph_source: bool = True, config: bool = False,
                stack_cap: int = MAX_ELIMINATION_VERTICES) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--quiet", action="store_true", help="print only the primary result")
    if graph_source:
        p.add_argument("graph", nargs="?", help="graph file path or '-' for stdin")
        p.add_argument("--stack", help=f"polygon stack spec, e.g. 3,4,4, of at most {stack_cap} vertices")
    if config:
        p.add_argument("--config", action="append", required=True,
                       help="configuration as comma-separated chips, e.g. 0,4,-1,-1")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="critgroups",
        description="Exact critical groups, chip-firing and polygon-stack tree counts.",
    )
    parser.add_argument("--version", action="version", version=f"critgroups {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="invariant factors, order and cyclicity")
    _add_common(p)
    p.add_argument("--dot", action="store_true",
                   help=f"emit the graph in DOT format instead (graphs and stacks of up to {MAX_STACK_VERTICES} vertices; "
                        f"graphs of up to {comb(MAX_STACK_VERTICES, 2)} edges)")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("trees", help="spanning tree count")
    _add_common(p)
    p.add_argument("--brute", action="store_true", help="cross-check by enumeration")
    p.add_argument("--limit", type=int, default=20,
                   help="enumeration edge limit; over 10^6 candidate subsets are refused")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("pairs", help="generating-pair report for all vertex pairs")
    _add_common(p)
    p.add_argument("--first", action="store_true", help="report only the first generating pair")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("order", help="order of a degree-zero configuration")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("fire", help="apply firing moves at a vertex")
    _add_common(p, config=True, stack_cap=MAX_STACK_VERTICES)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--times", type=int, default=1, help="negative values borrow")
    p.set_defaults(func=cmd_fire)

    p = sub.add_parser("reduce", help="reduce a configuration onto a vertex pair")
    _add_common(p, config=True, stack_cap=MAX_STACK_VERTICES)
    p.add_argument("--pair", type=int,
                   help="target pair position on the top path, default 0 (stacks only)")
    p.add_argument("--log", action="store_true", help="also print the move log")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equiv", help="test two configurations for equivalence")
    _add_common(p, config=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("seq", help="tree-count sequences and closed forms")
    _add_common(p, graph_source=False)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tuple", help="stack spec, e.g. 3,4")
    mode.add_argument("--const", type=int, help="constant polygon size k")
    mode.add_argument("--alt", type=_size_pair, help="alternating sizes k1,k2")
    p.add_argument("--n", type=int, default=10, help=f"last index to tabulate, at most {MAX_SEQ_N}")
    p.add_argument("--closed-form", action="store_true",
                   help="evaluate the constant-k closed form instead of the recurrence")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("lorenzini", help="coprimality predicates for an edge pair")
    _add_common(p)
    p.add_argument("-x", type=int, required=True)
    p.add_argument("-y", type=int, required=True)
    p.add_argument("--path-len", type=int,
                   help="also verify the added-path conclusion for a path of this many edges, "
                        f"at most {MAX_STACK_VERTICES}; it prints one chain line per edge")
    p.set_defaults(func=cmd_lorenzini)

    p = sub.add_parser("search", help="scan for generating-pair counterexamples")
    _add_common(p, graph_source=False)
    p.add_argument("--max-vertices", type=int, default=5)
    # None marks an option not given: the random search defaults it (2 and
    # 0 trials), and an exhaustive search, which draws nothing, refuses it
    # and runs with 0 of each
    p.add_argument("--max-extra-edges", type=int, help="default 2")
    p.add_argument("--trials", type=int, help="default 0")
    p.add_argument("--seed", type=int)
    p.add_argument("--exhaustive", action="store_true",
                   help="count every labeled connected simple graph, one scan per isomorphism class; "
                        "takes no sample options")
    p.set_defaults(func=cmd_search)

    return parser


@contextmanager
def _exact_ints():
    """Lift Python's limit on int-to-str digits (3.11+), so that counts of
    any size print in full, and restore it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        needed = 2 if args.command == "equiv" else 1
        if len(args.config) != needed:
            parser.error(f"{args.command} needs exactly {needed} --config argument(s)")
    if getattr(args, "pair", None) is not None and args.stack is None:
        parser.error("reduce --pair applies only to --stack input")
    if getattr(args, "exhaustive", False):
        given = [f"--{o}" for o in ("max-extra-edges", "trials", "seed")
                 if getattr(args, o.replace("-", "_")) is not None]
        if given:
            parser.error(f"search --exhaustive draws no samples, so it takes no {', '.join(given)}")
    try:
        inputs = _inputs(args)
        with _exact_ints():
            out = args.func(args, inputs)
            if args.json and out.doc is not None:
                text = json.dumps(out.doc, sort_keys=True, separators=(",", ":"))
            else:
                text = "\n".join([*out.lines, *(() if args.quiet else out.detail)])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: the flush at interpreter exit writes
        # to os.devnull instead of failing on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
