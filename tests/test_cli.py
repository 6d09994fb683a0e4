import argparse
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import critgroups.cli as cli_mod
from critgroups import complete_graph, cycle_graph, format_graph, polygon_stack, tree_count, wedge_sum
from critgroups.cli import main

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_graph(g))
    return str(path)


def wedge357_file(tmp_path):
    g = wedge_sum(wedge_sum(cycle_graph(3), 0, cycle_graph(5), 0), 0, cycle_graph(7), 0)
    return write_graph(tmp_path, g)


def test_group_stack(capsys):
    code, out, _ = run(capsys, "group", "--stack", "3,4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == ["11"]
    assert doc["order"] == "11"
    assert doc["cyclic"] is True


def test_group_single_vertex(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("n 1\n")
    code, out, _ = run(capsys, "group", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant_factors"] == [] and doc["order"] == "1"
    code, out, _ = run(capsys, "trees", str(path))
    assert code == 0 and out.strip() == "1"


def test_group_wedge357_file(capsys, tmp_path):
    code, out, _ = run(capsys, "group", wedge357_file(tmp_path), "--json")
    assert code == 0
    assert json.loads(out)["invariant_factors"] == ["105"]


def test_group_text_and_quiet(capsys):
    code, out, _ = run(capsys, "group", "--stack", "3,4")
    assert code == 0 and "invariant factors: 11" in out and "order: 11" in out
    code, out, _ = run(capsys, "group", "--stack", "3,4", "--quiet")
    assert code == 0 and out == "invariant factors: 11\n"


def test_trees_brute(capsys, tmp_path):
    house = write_graph(tmp_path, polygon_stack((3, 4)).graph)
    code, out, _ = run(capsys, "trees", house, "--brute")
    assert code == 0
    assert out.splitlines()[0] == "11"
    code, out, _ = run(capsys, "trees", "--stack", "4")
    assert code == 0 and out.strip() == "4"
    apart = tmp_path / "apart.txt"
    apart.write_text("n 4\ne 0 1\ne 2 3\n")
    code, out, _ = run(capsys, "trees", str(apart))
    assert code == 0 and out.strip() == "0"  # a disconnected graph has no spanning tree
    code, _, err = run(capsys, "trees", str(apart), "--brute")
    assert code == 1 and "connected" in err


def test_pairs_cycle(capsys):
    code, out, _ = run(capsys, "pairs", "--stack", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    from math import gcd

    for rec in doc["pairs"]:
        assert rec["generates"] == (gcd(rec["x"] - rec["y"], 6) == 1)


def test_pairs_wedge357_none_generate(capsys, tmp_path):
    code, out, _ = run(capsys, "pairs", wedge357_file(tmp_path), "--json")
    assert code == 0
    assert not any(rec["generates"] for rec in json.loads(out)["pairs"])


def test_pairs_first(capsys):
    code, out, _ = run(capsys, "pairs", "--stack", "5", "--first")
    assert code == 0
    assert out.count("generates") == 1


def test_pairs_on_tree_all_generate_trivially(capsys, tmp_path):
    from critgroups import Multigraph

    path4 = write_graph(tmp_path, Multigraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1}))
    code, out, _ = run(capsys, "pairs", path4, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == "1"
    assert all(rec["generates"] and rec["element_order"] == "1" for rec in doc["pairs"])


def test_trees_mismatch_diagnostic(capsys, monkeypatch):
    import critgroups.cli as cli_mod

    monkeypatch.setattr(cli_mod, "brute_spanning_trees", lambda g, limit=20: -1)
    code, _, err = run(capsys, "trees", "--stack", "3,4", "--brute")
    assert code == 1
    assert "11" in err and "-1" in err


def test_fire_paw(capsys, tmp_path):
    from critgroups import Multigraph

    g = Multigraph(4, {(0, 1): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1})
    path = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "fire", path, "--config", "0,4,-1,-1", "--vertex", "1")
    assert code == 0 and out.strip() == "1,1,0,0"


def test_order_command(capsys):
    code, out, _ = run(capsys, "order", "--stack", "5", "--config", "1,-1,0,0,0")
    assert code == 0 and out.strip() == "5"


def test_equiv_self(capsys, tmp_path):
    path = write_graph(tmp_path, cycle_graph(4))
    code, out, _ = run(capsys, "equiv", path, "--config", "1,-1,0,0", "--config", "1,-1,0,0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "equiv", path, "--config", "1,-1,0,0", "--config", "0,0,0,0")
    assert code == 0 and out.strip() == "false"


def test_reduce_cycle_and_stack(capsys, tmp_path):
    path = write_graph(tmp_path, cycle_graph(4))
    code, out, _ = run(capsys, "reduce", path, "--config", "1,-1,0,0", "--log")
    assert code == 0
    lines = out.splitlines()
    cfg = [int(x) for x in lines[0].split(",")]
    assert cfg[0] == cfg[1] == 0
    assert all(line.startswith("fire ") for line in lines[1:])

    code, out, _ = run(capsys, "reduce", "--stack", "3,4", "--pair", "1",
                       "--config", "1,0,0,-1,0", "--json")
    assert code == 0
    doc = json.loads(out)
    values = [int(x) for x in doc["configuration"]]
    assert values[0] == values[1] == values[2] == 0


def test_seq_const(capsys):
    code, out, _ = run(capsys, "seq", "--const", "4", "--n", "4")
    assert code == 0 and out.strip() == "1,4,15,56,209"
    code, out, _ = run(capsys, "seq", "--const", "4", "--n", "4", "--closed-form")
    assert code == 0 and out.strip() == "1,4,15,56,209"


def test_seq_const2_closed_form_fails(capsys):
    code, _, err = run(capsys, "seq", "--const", "2", "--n", "3", "--closed-form")
    assert code == 1 and "error" in err


def test_seq_alt(capsys):
    code, out, _ = run(capsys, "seq", "--alt", "3,4", "--n", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["A"]["values"] == ["1", "11"]
    assert doc["B"]["values"] == ["0", "3"]


def test_seq_tuple(capsys):
    code, out, _ = run(capsys, "seq", "--tuple", "3,4")
    assert code == 0
    assert "T: 11" in out and "F: 8" in out


def test_lorenzini_command(capsys, tmp_path):
    path = write_graph(tmp_path, cycle_graph(3))
    code, out, _ = run(capsys, "lorenzini", path, "-x", "0", "-y", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["coprime"] is True and doc["cyclic"] is True
    code, out, _ = run(capsys, "lorenzini", path, "-x", "0", "-y", "1",
                       "--path-len", "3", "--json")
    assert code == 0
    assert json.loads(out)["cyclic_g_prime"] is True


def test_search_deterministic_bytes(capsys):
    args = ("search", "--max-vertices", "4", "--trials", "15", "--seed", "11", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_exhaustive(capsys):
    code, out, _ = run(capsys, "search", "--max-vertices", "4", "--exhaustive", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["examined"] > 0
    assert doc["counterexamples"] == []


def test_json_text_same_data(capsys):
    code, text_out, _ = run(capsys, "trees", "--stack", "3,4,4")
    code2, json_out, _ = run(capsys, "trees", "--stack", "3,4,4", "--json")
    assert code == code2 == 0
    assert text_out.strip() == json.loads(json_out)["count"]


def test_domain_errors_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("n 4\ne 0 1\ne 2 3\n")  # disconnected
    code, _, err = run(capsys, "group", str(bad))
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "group", str(tmp_path / "missing.txt"))
    assert code == 1
    code, _, err = run(capsys, "group")
    assert code == 1  # no source given
    bad.write_text("n 3\ne 0 x\n")
    code, _, err = run(capsys, "group", str(bad))
    assert code == 1 and "line 2:" in err and "'x'" in err
    bad.write_text("n 3\ne 1 5\n")
    code, _, err = run(capsys, "group", str(bad))
    assert code == 1 and "line 2:" in err and "(1,5)" in err
    bad.write_text("# c\nn -1\n")
    code, _, err = run(capsys, "group", str(bad))
    assert code == 1 and "line 2:" in err and "-1" in err
    code, _, err = run(capsys, "search", "--max-vertices", "8", "--exhaustive")
    assert code == 1 and "max_vertices" in err
    bad.write_text("n 0\n")  # no vertices: refused as such, not as vertex -1
    for command in ("group", "trees", "pairs"):
        code, _, err = run(capsys, command, str(bad))
        assert code == 1 and "graph has no vertices" in err and "-1" not in err


def test_size_budgets_exit_1(capsys, tmp_path):
    # random-mode search: every sample draws all vertex pairs
    code, _, err = run(capsys, "search", "--max-vertices", "100000", "--trials", "1")
    assert code == 1 and "max_vertices" in err and "200" in err
    # each multiplicity bump is a draw too; a negative count is refused by name
    for bumps in ("3000000", "100001", "-3"):
        code, _, err = run(capsys, "search", "--max-extra-edges", bumps, "--trials", "1")
        assert code == 1 and "max_extra_edges" in err and "100000" in err and bumps in err
    # a negative sample count is refused by name, not scanned as no samples
    code, out, err = run(capsys, "search", "--trials", "-5")
    assert code == 1 and "trials" in err and "-5" in err and out == ""
    # brute force: C(60, 19) subsets of a 20-vertex graph with 60 edges
    edges = [(v, v + 1) for v in range(19)] + [(u, v) for u in range(20) for v in range(u + 2, 20)][:41]
    g = tmp_path / "dense.txt"
    g.write_text("n 20\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    code, _, err = run(capsys, "trees", str(g), "--brute", "--limit", "60")
    assert code == 1 and f"{comb(60, 19)} subsets" in err
    # just over the bound: K_8 has C(28, 7) = 1,184,040 tree candidates
    code, _, err = run(capsys, "trees", write_graph(tmp_path, complete_graph(8)), "--brute", "--limit", "28")
    assert code == 1 and "1184040 subsets" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq"])  # missing required mode
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--alt", "3"])  # one size where two are needed
    assert exc.value.code == 2 and "--alt" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "c5.txt", "--pair", "99", "--config", "1,0,-1,0,0"])  # --pair needs --stack
    assert exc.value.code == 2 and "--pair" in capsys.readouterr().err
    # an exhaustive search draws no samples, so it refuses the sample
    # options instead of echoing values it ignored, even a default one
    with pytest.raises(SystemExit) as exc:
        main(["search", "--exhaustive", "--trials", "5", "--seed", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--trials, --seed" in err
    with pytest.raises(SystemExit) as exc:
        main(["search", "--exhaustive", "--max-extra-edges", "2"])
    assert exc.value.code == 2 and "--max-extra-edges" in capsys.readouterr().err


def test_stdin_graph(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(format_graph(cycle_graph(5))))
    code, out, _ = run(capsys, "trees", "-")
    assert code == 0 and out.strip() == "5"


def test_group_dot(capsys):
    code, out, _ = run(capsys, "group", "--stack", "2", "--dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count("0 -- 1") == 2


def test_golden_outputs(capsys, tmp_path, monkeypatch):
    """Every subcommand in text, --json and --quiet form on the house graph,
    the 3,5,7 wedge and a disconnected graph, and one bad input per error
    path: stdout, the first stderr line and the exit code, as recorded from
    the CLI before its commands returned their output to one renderer."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    for name, text in GOLDEN["files"].items():
        (tmp_path / name).write_text(text)
    for case in GOLDEN["cases"]:
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        first_err = (out.err.splitlines() or [""])[0]
        assert {"argv": case["argv"], "code": code, "out": out.out, "err": first_err} == case


def test_parser_built_once(capsys, monkeypatch):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: built.append(self) or add_subparsers(self, **kw))
    cli_mod.build_parser.cache_clear()
    assert run(capsys, "trees", "--stack", "3,4")[:2] == (0, "11\n")
    assert run(capsys, "seq", "--tuple", "3,4")[:2] == (0, "T: 11\nF: 8\n")
    assert len(built) == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_big_integers_print_in_full(capsys):
    spec = ",".join(["1000"] * 1500)
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "seq", "--tuple", spec)
    assert code == 0 and sys.get_int_max_str_digits() == limit
    code, json_out, _ = run(capsys, "seq", "--tuple", spec, "--json")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        t = str(tree_count([1000] * 1500))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(t) > 4300
    assert out.splitlines()[0] == f"T: {t}" and json.loads(json_out)["T"] == t
    # inputs are still parsed under the default limit
    code, _, err = run(capsys, "seq", "--tuple", "9" * 5000)
    assert code == 1 and "bad stack spec" in err


def test_vertex_budgets_exit_1(capsys, tmp_path, monkeypatch):
    cap, stack_cap = cli_mod.MAX_ELIMINATION_VERTICES, cli_mod.MAX_STACK_VERTICES
    code, out, _ = run(capsys, "trees", write_graph(tmp_path, cycle_graph(cap)))
    assert code == 0 and out == f"{cap}\n"
    big = write_graph(tmp_path, cycle_graph(cap + 1), "big.txt")
    for command in ("group", "trees", "pairs"):
        code, _, err = run(capsys, command, big)
        assert code == 1 and f"graph {big} has {cap + 1} vertices" in err and str(cap) in err
    code, _, err = run(capsys, "order", big, "--config", "0," * cap + "0")
    assert code == 1 and f"graph {big}" in err
    code, out, _ = run(capsys, "group", big, "--dot")  # DOT needs no elimination
    assert code == 0 and out.count(" -- ") == cap + 1
    # lorenzini --path-len eliminates only G, and prints one chain line per path edge
    code, out, _ = run(capsys, "lorenzini", "--stack", "3", "-x", "0", "-y", "1", "--path-len", "400", "--json")
    assert code == 0 and len(json.loads(out)["chain"]) == 400
    code, _, err = run(capsys, "lorenzini", "--stack", "3", "-x", "0", "-y", "1", "--path-len", str(stack_cap + 1))
    assert code == 1 and "--path-len" in err and str(stack_cap) in err
    code, out, _ = run(capsys, "lorenzini", "--stack", "3", "-x", "0", "-y", "1", "--path-len", str(cap - 2),
                       "--json")
    assert code == 0 and json.loads(out)["length"] == cap - 2

    # a stack spec is refused by its vertex count before the stack is built
    def no_build(*a, **k):
        raise AssertionError("stack built")

    monkeypatch.setattr(cli_mod, "polygon_stack", no_build)
    code, _, err = run(capsys, "group", "--stack", "100000000")
    assert code == 1 and "--stack has 100000000 vertices" in err
    code, _, err = run(capsys, "equiv", "--stack", "3," + "4," * 74 + "4", "--config", "0", "--config", "0")
    assert code == 1 and f"--stack has {3 + 2 * 75} vertices" in err
    code, _, err = run(capsys, "fire", "--stack", str(stack_cap + 1), "--config", "0", "--vertex", "0")
    assert code == 1 and f"--stack has {stack_cap + 1} vertices; fire takes at most {stack_cap}" in err
    # and so is a graph file under --dot, by its declared vertex count, before any DOT is written
    def no_dot(*a, **k):
        raise AssertionError("DOT written")

    monkeypatch.setattr(cli_mod, "format_dot", no_dot)
    huge = tmp_path / "huge.txt"
    huge.write_text("n 10000000\ne 0 1\n")
    code, _, err = run(capsys, "group", str(huge), "--dot")
    assert code == 1 and f"graph {huge} has 10000000 vertices; group takes at most {stack_cap}" in err
    monkeypatch.undo()
    config = "1," + "0," * (cap - 1) + "-1"
    code, out, _ = run(capsys, "fire", "--stack", str(cap + 1), "--config", config, "--vertex", "0")
    assert code == 0 and out.startswith("-1,1,")

    code, _, err = run(capsys, "seq", "--const", "4", "--n", "20000")
    assert code == 1 and "--n" in err and str(cli_mod.MAX_SEQ_N) in err
    code, out, _ = run(capsys, "seq", "--const", "4", "--n", str(cli_mod.MAX_SEQ_N), "--json")
    assert code == 0 and len(json.loads(out)["values"]) == cli_mod.MAX_SEQ_N + 1



def test_seq_digit_budget_exit_1(capsys, monkeypatch):
    # refused from the estimate alone, before any value is computed
    def no_values(*a, **k):
        raise AssertionError("values computed")

    for name in ("constant_k_table", "constant_k_closed_form", "alternating_tables"):
        monkeypatch.setattr(cli_mod, name, no_values)
    big, budget = "100000000000000000000", str(cli_mod.MAX_SEQ_DIGITS)
    for extra in ((), ("--closed-form",)):
        code, out, err = run(capsys, "seq", "--const", big, "--n", "700", *extra)
        assert (code, out) == (1, "") and "--const with --n 700" in err and budget in err
    code, _, err = run(capsys, "seq", "--alt", f"{big},3", "--n", "700")
    assert code == 1 and "--alt with --n 700" in err and budget in err
    monkeypatch.undo()
    # a short table of the same values is within the budget
    code, out, _ = run(capsys, "seq", "--const", big, "--n", "40", "--json")
    assert code == 0 and len(json.loads(out)["values"]) == 41

def test_group_dot_edge_budget_exit_1(capsys, tmp_path):
    """group --dot writes one line per edge instance, so a graph file is
    refused by its edge count, with multiplicity, before any DOT is written:
    at most C(MAX_STACK_VERTICES, 2), the edges of a simple graph on as many
    vertices."""
    budget = comb(cli_mod.MAX_STACK_VERTICES, 2)
    heavy = tmp_path / "heavy.txt"
    heavy.write_text("n 2\ne 0 1 2000000\n")
    code, out, err = run(capsys, "group", str(heavy), "--dot")
    assert (code, out) == (1, "") and f"graph {heavy} has 2000000 edges" in err and str(budget) in err


def test_group_dot_disconnected(capsys, tmp_path):
    apart = tmp_path / "apart.txt"
    apart.write_text("n 4\ne 0 1\ne 2 3\n")
    code, out, _ = run(capsys, "group", str(apart), "--dot")
    assert code == 0 and out == "graph G {\n  0;\n  1;\n  2;\n  3;\n  0 -- 1;\n  2 -- 3;\n}\n"
    code, _, err = run(capsys, "group", str(apart))
    assert code == 1 and err == "error: graph must be connected\n"


def test_failed_self_checks_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "replay_log", lambda g, c, log: None)
    code, out, err = run(capsys, "reduce", "--stack", "3,4", "--config", "1,0,0,-1,0")
    assert (code, out, err) == (1, "", "error: move log failed to replay\n")
    monkeypatch.setattr(cli_mod, "reverify_outcome", lambda outcome: False)
    code, out, err = run(capsys, "search", "--max-vertices", "3", "--exhaustive", "--json")
    assert (code, out, err) == (1, "", "error: search outcome failed re-verification\n")


def test_closed_output_pipe_exits_1_quietly():
    """A reader that closes the pipe early, as `| head -c 20` does: the
    1.15 MB of output are still being written, and the command exits 1
    with nothing on standard error instead of a BrokenPipeError traceback."""
    src = str(Path(cli_mod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "critgroups", "seq", "--const", "4", "--n", "2000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (head, proc.wait(timeout=60), err) == (b"1,4,15,56,209,780,29", 1, b"")
