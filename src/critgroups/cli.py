"""Command-line front end.

Every command reads graphs from a file path, standard input (`-`), or a
`--stack k1,k2,...` spec, and prints either plain text or, with `--json`,
a JSON document with all big integers encoded as decimal strings. Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _emit_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _graph_json(g: Multigraph) -> dict:
    return {"n": g.n, "edges": [[u, v, m] for (u, v), m in g.edge_items()]}


def _load_graph(args) -> Multigraph:
    if getattr(args, "stack", None) is not None:
        return polygon_stack(parse_stack_spec(args.stack)).graph
    if args.graph is None:
        raise ValueError("no graph given: pass a file path, '-', or --stack")
    if args.graph == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(args.graph) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {args.graph}: {exc}") from None


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def cmd_group(args) -> int:
    g = _load_graph(args)
    kg = critical_group(g)
    if args.dot:
        print(format_dot(g), end="")
        return 0
    if args.json:
        print(_emit_json({
            **_graph_json(g),
            "invariant_factors": [str(f) for f in kg.invariant_factors],
            "order": str(kg.order),
            "cyclic": is_cyclic(kg),
            "deleted_vertex": kg.deleted_vertex,
        }))
        return 0
    factors = ", ".join(str(f) for f in kg.invariant_factors) or "(trivial)"
    print(f"invariant factors: {factors}")
    _say(args, f"order: {kg.order}")
    _say(args, f"cyclic: {'true' if is_cyclic(kg) else 'false'}")
    _say(args, f"deleted vertex: {kg.deleted_vertex}")
    return 0


def cmd_trees(args) -> int:
    g = _load_graph(args)
    count = _tree_count(g)
    brute = brute_spanning_trees(g, limit=args.limit) if args.brute else None
    if brute is not None and brute != count:
        print(f"error: determinant count {count} != enumeration count {brute}", file=sys.stderr)
        return 1
    if args.json:
        doc = {"count": str(count)}
        if brute is not None:
            doc["brute_count"] = str(brute)
        print(_emit_json(doc))
        return 0
    print(count)
    if brute is not None:
        _say(args, f"enumeration agrees: {brute}")
    return 0


def cmd_pairs(args) -> int:
    g = _load_graph(args)
    kg = critical_group(g)
    reports = _pair_reports(kg)
    if args.first:
        reports = [r for r in reports if r.generates][:1]
    if args.json:
        print(_emit_json({
            "order": str(kg.order),
            "pairs": [
                {"x": r.x, "y": r.y, "element_order": str(r.element_order), "generates": r.generates}
                for r in reports
            ],
        }))
        return 0
    for r in reports:
        flag = "generates" if r.generates else "does not generate"
        print(f"({r.x},{r.y}) order {r.element_order}: {flag}")
    if not reports:
        print("no generating pair found" if args.first else "no pairs")
    return 0


def cmd_order(args) -> int:
    g = _load_graph(args)
    kg = critical_group(g)
    c = parse_configuration(args.config[0])
    order = configuration_order(kg, c)
    if args.json:
        print(_emit_json({"element_order": str(order), "group_order": str(kg.order)}))
    else:
        print(order)
    return 0


def cmd_fire(args) -> int:
    g = _load_graph(args)
    c = parse_configuration(args.config[0])
    out = fire(g, c, args.vertex, args.times)
    if args.json:
        print(_emit_json({"configuration": [str(x) for x in out]}))
    else:
        print(format_configuration(out))
    return 0


def cmd_reduce(args) -> int:
    c = parse_configuration(args.config[0])
    if args.stack is not None:
        sg = polygon_stack(parse_stack_spec(args.stack))
        out, log = reduce_to_pair(sg, c, args.pair)
        g = sg.graph
    else:
        g = _load_graph(args)
        out, log = reduce_on_cycle(g, c)
    if replay_log(g, c, log) != out:
        print("error: move log failed to replay", file=sys.stderr)
        return 1
    if args.json:
        doc = {"configuration": [str(x) for x in out]}
        if args.log:
            doc["log"] = [[v, t] for v, t in log]
        print(_emit_json(doc))
        return 0
    print(format_configuration(out))
    if args.log:
        for v, t in log:
            print(f"fire {v} {t}")
    return 0


def cmd_equiv(args) -> int:
    g = _load_graph(args)
    kg = critical_group(g)
    c1 = parse_configuration(args.config[0])
    c2 = parse_configuration(args.config[1])
    result = are_equivalent(kg, c1, c2)
    if args.json:
        print(_emit_json({"equivalent": result}))
    else:
        print("true" if result else "false")
    return 0


def cmd_seq(args) -> int:
    if args.tuple is not None:
        spec = parse_stack_spec(args.tuple)
        t = tree_count(spec)
        doc = {"T": str(t)}
        lines = [f"T: {t}"]
        if spec:
            f = forest_count(spec)
            doc["F"] = str(f)
            lines.append(f"F: {f}")
        if args.json:
            print(_emit_json(doc))
        else:
            print("\n".join(lines))
        return 0
    if args.const is not None:
        if args.closed_form:
            values = [constant_k_closed_form(args.const, i) for i in range(args.n + 1)]
            label = f"T(k={args.const}) closed form"
        else:
            table = constant_k_table(args.const, args.n)
            values, label = table.values, table.label
        if args.json:
            print(_emit_json({"label": label, "values": [str(v) for v in values]}))
        else:
            print(",".join(str(v) for v in values))
        return 0
    a, b = alternating_tables(*args.alt, args.n)
    if args.json:
        print(_emit_json({
            "A": {"label": a.label, "values": [str(v) for v in a.values]},
            "B": {"label": b.label, "values": [str(v) for v in b.values]},
        }))
    else:
        print("A: " + ",".join(str(v) for v in a.values))
        print("B: " + ",".join(str(v) for v in b.values))
    return 0


def cmd_lorenzini(args) -> int:
    g = _load_graph(args)
    if args.path_len is not None:
        rep = lorenzini_path_check(g, args.x, args.y, args.path_len)
        if args.json:
            print(_emit_json({
                "order_g": str(rep.base.order_g),
                "order_g1": str(rep.base.order_g1),
                "length": rep.length,
                "order_g_prime": str(rep.order_g_prime),
                "cyclic_g_prime": rep.cyclic_g_prime,
                "chain": [
                    {"pair": list(c.pair), "order_g1_prime": str(c.order_g1_prime), "coprime": c.coprime_with_g1}
                    for c in rep.chain
                ],
            }))
            return 0
        print(f"order |K(G')|: {rep.order_g_prime}")
        print(f"cyclic: {'true' if rep.cyclic_g_prime else 'false'}")
        for c in rep.chain:
            print(f"chain pair {c.pair}: |K(G1')| = {c.order_g1_prime}, coprime = {'true' if c.coprime_with_g1 else 'false'}")
        return 0
    rep = lorenzini_check(g, args.x, args.y)
    if args.json:
        print(_emit_json({
            "x": rep.x,
            "y": rep.y,
            "multiplicity": rep.multiplicity,
            "order_g": str(rep.order_g),
            "order_g1": str(rep.order_g1),
            "coprime": rep.coprime,
            "cyclic": rep.cyclic_g,
            "pair_generates": rep.pair_generates,
            "g1_connected": rep.g1_connected,
        }))
        return 0
    print(f"|K(G)| = {rep.order_g}")
    if rep.g1_connected:
        print(f"|K(G1)| = {rep.order_g1}")
        print(f"coprime: {'true' if rep.coprime else 'false'}")
        print(f"cyclic: {'true' if rep.cyclic_g else 'false'}")
        print(f"pair generates: {'true' if rep.pair_generates else 'false'}")
    else:
        print("G1 disconnected: coprimality not applicable")
        print(f"cyclic: {'true' if rep.cyclic_g else 'false'}")
    return 0


def cmd_search(args) -> int:
    outcome = coprime_pair_search(
        max_vertices=args.max_vertices,
        max_extra_edges=args.max_extra_edges,
        trials=args.trials,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )
    if not reverify_outcome(outcome):
        print("error: search outcome failed re-verification", file=sys.stderr)
        return 1
    doc = {
        "examined": outcome.examined,
        "coprime_instances": outcome.coprime_instances,
        "seed": str(outcome.seed) if outcome.seed is not None else None,
        "params": outcome.params,
        "counterexamples": [
            {**_graph_json(g), "pair": [x, y]} for g, (x, y) in outcome.counterexamples
        ],
    }
    if args.json:
        print(_emit_json(doc))
        return 0
    print(f"examined: {outcome.examined}")
    print(f"coprime instances: {outcome.coprime_instances}")
    print(f"counterexamples: {len(outcome.counterexamples)}")
    for g, (x, y) in outcome.counterexamples:
        print(f"  pair ({x},{y}) on {format_graph(g).strip()!r}")
    return 0


def _size_pair(text: str) -> tuple[int, int]:
    try:
        k1, k2 = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two sizes k1,k2, got {text!r}") from None
    return k1, k2


def _add_common(p: argparse.ArgumentParser, graph_source: bool = True, config_args: int = 0) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--quiet", action="store_true", help="print only the primary result")
    if graph_source:
        p.add_argument("graph", nargs="?", help="graph file path or '-' for stdin")
        p.add_argument("--stack", help="polygon stack spec, e.g. 3,4,4")
    if config_args:
        p.add_argument("--config", action="append", required=True,
                       help="configuration as comma-separated chips, e.g. 0,4,-1,-1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgroups",
        description="Exact critical groups, chip-firing and polygon-stack tree counts.",
    )
    parser.add_argument("--version", action="version", version=f"critgroups {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="invariant factors, order and cyclicity")
    _add_common(p)
    p.add_argument("--dot", action="store_true", help="emit the graph in DOT format instead")
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
    _add_common(p, config_args=1)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("fire", help="apply firing moves at a vertex")
    _add_common(p, config_args=1)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--times", type=int, default=1, help="negative values borrow")
    p.set_defaults(func=cmd_fire)

    p = sub.add_parser("reduce", help="reduce a configuration onto a vertex pair")
    _add_common(p, config_args=1)
    p.add_argument("--pair", type=int, default=0,
                   help="target pair position on the top path (stacks only)")
    p.add_argument("--log", action="store_true", help="also print the move log")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("equiv", help="test two configurations for equivalence")
    _add_common(p, config_args=1)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("seq", help="tree-count sequences and closed forms")
    _add_common(p, graph_source=False)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--tuple", help="stack spec, e.g. 3,4")
    mode.add_argument("--const", type=int, help="constant polygon size k")
    mode.add_argument("--alt", type=_size_pair, help="alternating sizes k1,k2")
    p.add_argument("--n", type=int, default=10, help="last index to tabulate")
    p.add_argument("--closed-form", action="store_true",
                   help="evaluate the constant-k closed form instead of the recurrence")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("lorenzini", help="coprimality predicates for an edge pair")
    _add_common(p)
    p.add_argument("-x", type=int, required=True)
    p.add_argument("-y", type=int, required=True)
    p.add_argument("--path-len", type=int, help="also verify the added-path conclusion")
    p.set_defaults(func=cmd_lorenzini)

    p = sub.add_parser("search", help="scan for generating-pair counterexamples")
    _add_common(p, graph_source=False)
    p.add_argument("--max-vertices", type=int, default=5)
    p.add_argument("--max-extra-edges", type=int, default=2)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        needed = 2 if args.command == "equiv" else 1
        if len(args.config) != needed:
            parser.error(f"{args.command} needs exactly {needed} --config argument(s)")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
