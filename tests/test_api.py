"""The package root: what `import critgroups` loads and exports, and one
refusal sweep of non-integers over every exported callable."""

import inspect
import os
import random
import re
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import critgroups
from critgroups import (
    IntMatrix,
    Multigraph,
    QuadraticNumber,
    complete_graph,
    critical_group,
    cycle_graph,
    polygon_stack,
)

HARNESS = (
    "ChainCheck", "LorenziniPathReport", "LorenziniReport", "SearchOutcome", "brute_spanning_forests",
    "brute_spanning_trees", "enumerate_connected_simple_graphs", "lorenzini_check", "lorenzini_path_check",
    "coprime_pair_search", "random_connected_multigraph", "reverify_outcome",
)

# the names `from critgroups import *` bound when the package imported every module eagerly
STAR_NAMES = [
    "ChainCheck", "CriticalGroup", "IntMatrix", "LorenziniPathReport", "LorenziniReport", "MoveLog", "Multigraph",
    "PairReport", "QuadraticNumber", "SearchOutcome", "SequenceTable", "SnfDecomposition", "StackGraph",
    "add_path", "alternating_tables", "are_equivalent", "brute_spanning_forests", "brute_spanning_trees",
    "check_stack_spec", "complete_graph", "configuration_order", "constant_k_closed_form", "constant_k_table",
    "coprime_pair_search", "critical", "critical_group", "cycle_graph", "degree", "delete_edges", "delta_config",
    "determinant", "direct_sum_factors", "enumerate_connected_simple_graphs", "find_generating_pairs", "fire",
    "firing", "forest_count", "format_configuration", "format_dot", "format_graph", "graphs", "house_closed_form",
    "is_connected", "is_cyclic", "linalg", "lorenzini_check", "lorenzini_path_check", "pair_report",
    "parse_configuration", "parse_graph", "parse_stack_spec", "polygon_stack", "random_connected_multigraph",
    "recurrences", "reduce_on_cycle", "reduce_to_pair", "reduced_laplacian", "replay_log", "reverify_outcome",
    "smith_normal_form", "smith_rows_mod", "solve_image_membership", "sparse", "tree_count", "verify",
    "wedge_sum",
]


@pytest.fixture
def unloaded(monkeypatch):
    """The package as a fresh import leaves it: the harness module and its
    names not loaded. They are loaded first, so that monkeypatch puts the
    same objects back afterwards."""
    for name in (*HARNESS, "verify"):
        getattr(critgroups, name)
        monkeypatch.delitem(vars(critgroups), name)
    monkeypatch.delitem(sys.modules, "critgroups.verify")
    return critgroups


def test_import_loads_the_core_modules_and_not_the_harness():
    code = "import sys, critgroups; print(' '.join(sorted(m for m in sys.modules if m.startswith('critgroups.'))))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(critgroups.__file__).parent.parent))).stdout
    assert out.split() == [f"critgroups.{m}" for m in ("critical", "firing", "graphs", "linalg", "recurrences", "sparse")]


@pytest.mark.parametrize("name", HARNESS)
def test_harness_name_loads_on_first_read_and_is_stored(unloaded, name):
    obj = getattr(unloaded, name)
    verify = sys.modules["critgroups.verify"]
    assert obj is getattr(verify, name)
    assert vars(unloaded)[name] is obj and vars(unloaded)["verify"] is verify


def test_verify_module_resolves_without_an_import(unloaded):
    verify = unloaded.verify
    assert verify is sys.modules["critgroups.verify"]
    assert verify.lorenzini_check is unloaded.lorenzini_check


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        critgroups.no_such_name
    assert not hasattr(critgroups, "lorenzini")


def test_dir_lists_the_harness_names(unloaded):
    assert set(HARNESS) | {"verify"} <= set(dir(unloaded))
    assert "critgroups.verify" not in sys.modules


def test_star_import_binds_the_same_names():
    ns = {}
    exec("from critgroups import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == STAR_NAMES == critgroups.__all__
    assert all(ns[name] is getattr(critgroups, name) for name in STAR_NAMES)


# Records the library builds and returns are exempt: a check in their
# constructors would cost every report, and one pairs_stack benchmark cycle
# builds 8,400 PairReports. MoveLog is a type alias, not a function.
EXEMPT = {
    "ChainCheck": "record returned by lorenzini_path_check",
    "CriticalGroup": "record returned by critical_group",
    "LorenziniPathReport": "record returned by lorenzini_path_check",
    "LorenziniReport": "record returned by lorenzini_check",
    "PairReport": "record returned by pair_report and find_generating_pairs",
    "SearchOutcome": "record returned by coprime_pair_search",
    "SequenceTable": "record returned by the table functions",
    "SnfDecomposition": "record returned by smith_normal_form",
    "StackGraph": "record returned by polygon_stack",
    "MoveLog": "type alias list[tuple[int, int]]",
}


def _valid_calls() -> dict:
    """One call per exported callable and public method: (function, args)."""
    g, kg, sg = cycle_graph(4), critical_group(cycle_graph(4)), polygon_stack((3, 4))
    eye = IntMatrix.identity(2)
    m = IntMatrix(2, 2, [2, 1, 1, 2])
    return {
        "IntMatrix": (IntMatrix, (2, 2, [2, 1, 1, 2])),
        "Multigraph": (Multigraph, (3, {(0, 1): 1})),
        "QuadraticNumber": (QuadraticNumber, (1, 1, 2)),
        "add_path": (critgroups.add_path, (g, 0, 2, 3)),
        "alternating_tables": (critgroups.alternating_tables, (3, 4, 2)),
        "are_equivalent": (critgroups.are_equivalent, (kg, [1, -1, 0, 0], [0, 1, -1, 0])),
        "brute_spanning_forests": (critgroups.brute_spanning_forests, (g, 0, 1, 20)),
        "brute_spanning_trees": (critgroups.brute_spanning_trees, (g, 20)),
        "check_stack_spec": (critgroups.check_stack_spec, ((3, 4),)),
        "complete_graph": (complete_graph, (3,)),
        "configuration_order": (critgroups.configuration_order, (kg, [1, -1, 0, 0])),
        "constant_k_closed_form": (critgroups.constant_k_closed_form, (4, 2)),
        "constant_k_table": (critgroups.constant_k_table, (4, 3)),
        "coprime_pair_search": (critgroups.coprime_pair_search, (4, 1, 2, 1)),
        "critical_group": (critical_group, (g, 1)),
        "cycle_graph": (cycle_graph, (4,)),
        "degree": (critgroups.degree, ([1, 2],)),
        "delete_edges": (critgroups.delete_edges, (g, 0, 1, 1)),
        "delta_config": (critgroups.delta_config, (g, 0, 1)),
        "determinant": (critgroups.determinant, (m,)),
        "direct_sum_factors": (critgroups.direct_sum_factors, ([2], [3])),
        "enumerate_connected_simple_graphs": (critgroups.enumerate_connected_simple_graphs, (3,)),
        "find_generating_pairs": (critgroups.find_generating_pairs, (g,)),
        "fire": (critgroups.fire, (g, [1, -1, 0, 0], 0, 1)),
        "forest_count": (critgroups.forest_count, ((3, 4),)),
        "format_configuration": (critgroups.format_configuration, ([1, -1, 0],)),
        "format_dot": (critgroups.format_dot, (g,)),
        "format_graph": (critgroups.format_graph, (g,)),
        "house_closed_form": (critgroups.house_closed_form, (3,)),
        "is_connected": (critgroups.is_connected, (g,)),
        "is_cyclic": (critgroups.is_cyclic, (kg,)),
        "lorenzini_check": (critgroups.lorenzini_check, (g, 0, 1)),
        "lorenzini_path_check": (critgroups.lorenzini_path_check, (g, 0, 1, 2)),
        "pair_report": (critgroups.pair_report, (kg, 0, 1)),
        "parse_configuration": (critgroups.parse_configuration, ("1,-1",)),
        "parse_graph": (critgroups.parse_graph, ("n 2\ne 0 1\n",)),
        "parse_stack_spec": (critgroups.parse_stack_spec, ("3,4",)),
        "polygon_stack": (polygon_stack, ((3, 4, 4), [0, 1])),
        "random_connected_multigraph": (critgroups.random_connected_multigraph, (random.Random(1), 5, 2)),
        "reduce_on_cycle": (critgroups.reduce_on_cycle, (g, [1, -1, 0, 0])),
        "reduce_to_pair": (critgroups.reduce_to_pair, (sg, [1, 0, 0, 0, -1], 0)),
        "reduced_laplacian": (critgroups.reduced_laplacian, (g, 1)),
        "replay_log": (critgroups.replay_log, (g, [1, -1, 0, 0], [(0, 1)])),
        "reverify_outcome": (critgroups.reverify_outcome, (critgroups.coprime_pair_search(3, 0, 1, 1),)),
        "smith_normal_form": (critgroups.smith_normal_form, (m,)),
        "smith_rows_mod": (critgroups.smith_rows_mod, (m, 3)),
        "solve_image_membership": (critgroups.solve_image_membership, (m, [3, 3])),
        "tree_count": (critgroups.tree_count, ((3, 4),)),
        "wedge_sum": (critgroups.wedge_sum, (g, 0, g, 1)),
        "Multigraph.multiplicity": (g.multiplicity, (0, 1)),
        "Multigraph.degree": (g.degree, (0,)),
        "Multigraph.neighbors": (g.neighbors, (0,)),
        "Multigraph.incident": (g.incident, (0,)),
        "Multigraph.edge_items": (g.edge_items, ()),
        "Multigraph.edge_count": (g.edge_count, ()),
        "Multigraph.edge_dict": (g.edge_dict, ()),
        "IntMatrix.from_rows": (IntMatrix.from_rows, ([[1, 2], [3, 4]],)),
        "IntMatrix.identity": (IntMatrix.identity, (2,)),
        "IntMatrix.at": (eye.at, (0, 1)),
        "IntMatrix.to_rows": (eye.to_rows, ()),
        "IntMatrix.diagonal": (eye.diagonal, ()),
        "IntMatrix.mult_vector": (eye.mult_vector, ([1, 2],)),
    }


# Where a refusal names a parameter by what it holds rather than by its
# name: the messages predate this sweep, and tests pin them.
LABELS = {
    ("IntMatrix", "entries"): "entry",
    ("check_stack_spec", "ks"): "stack entry",
    ("tree_count", "ks"): "stack entry",
    ("forest_count", "ks"): "stack entry",
    ("polygon_stack", "ks"): "stack entry",
    ("polygon_stack", "attach_positions"): "attach position",
    ("QuadraticNumber", "disc"): "discriminant",
    ("constant_k_table", "k"): "polygon size",
    ("constant_k_closed_form", "k"): "polygon size",
    ("alternating_tables", "k1"): "polygon size",
    ("alternating_tables", "k2"): "polygon size",
    ("degree", "c"): "chip count",
    ("fire", "c"): "chip count",
    ("fire", "v"): "move",
    ("fire", "times"): "move",
    ("replay_log", "c"): "chip count",
    ("reduce_on_cycle", "c"): "chip count",
    ("reduce_to_pair", "c"): "chip count",
    ("format_configuration", "c"): "chip count",
}

INTEGER = {"int", "int | None"}
INTEGERS = {"Sequence[int]", "Sequence[int] | None"}


def _exported_callables() -> list[str]:
    names = [n for n in critgroups.__all__ if callable(getattr(critgroups, n))]
    methods = [f"{cls.__name__}.{n}" for cls in (Multigraph, IntMatrix) for n in vars(cls) if not n.startswith("_")]
    return names + methods


def _run(fn, args: tuple):
    out = fn(*args)
    return list(out) if isinstance(out, Iterator) else out


def test_every_exported_callable_has_a_valid_call_or_an_exemption():
    names = set(_exported_callables())
    table = set(_valid_calls())
    assert not names - table - set(EXEMPT), "add a valid call to _valid_calls, or an exemption with its reason"
    assert not (table | set(EXEMPT)) - names
    assert not table & set(EXEMPT)


def test_every_integer_parameter_refuses_a_non_integer_by_name():
    """Each parameter annotated int or Sequence[int] (strings, under
    `from __future__ import annotations`) takes 1.0 and then 0.5 in place
    of its valid value, or of a sequence's last entry, and must raise a
    TypeError that names it."""
    gaps, swept = [], 0
    for name, (fn, args) in _valid_calls().items():
        _run(fn, args)
        sig = inspect.signature(fn)
        bound = sig.bind(*args)
        bound.apply_defaults()
        for p, param in sig.parameters.items():
            if param.annotation not in INTEGER | INTEGERS:
                continue
            label = LABELS.get((name, p), p)
            for bad in (1.0, 0.5):
                value = bound.arguments[p]
                if param.annotation in INTEGERS:
                    assert value, f"{name}: the valid call needs a nonempty {p}"
                    value = [*value[:-1], bad]
                else:
                    value = bad
                swept += 1
                try:
                    _run(fn, tuple(dict(bound.arguments, **{p: value}).values()))
                except TypeError as exc:
                    if re.search(rf"\b{re.escape(label)}\b", str(exc)) and repr(bad) in str(exc):
                        continue
                    gaps.append((name, p, bad, str(exc)))
                except Exception as exc:
                    gaps.append((name, p, bad, repr(exc)))
                else:
                    gaps.append((name, p, bad, "accepted"))
    assert not gaps
    assert swept == 2 * 75  # all 75 integer parameters: none was skipped as unannotated
