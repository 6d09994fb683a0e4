import json
from math import comb

import pytest

from critgroups import complete_graph, cycle_graph, format_graph, polygon_stack, wedge_sum
from critgroups.cli import main


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


def test_size_budgets_exit_1(capsys, tmp_path):
    # random-mode search: every sample draws all vertex pairs
    code, _, err = run(capsys, "search", "--max-vertices", "100000", "--trials", "1")
    assert code == 1 and "max_vertices" in err and "200" in err
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
