"""Exact computation of critical groups of finite connected multigraphs:
Smith normal form of reduced Laplacians, chip-firing reductions, polygon
stacks, and the spanning-tree recurrences that govern them.

`import critgroups` loads the core modules: graphs, linalg, sparse,
critical, firing and recurrences. The verification harness (brute-force
oracles, the Lorenzini predicates, the counterexample search) is the
module `critgroups.verify`, which no core module calls; it loads on the
first read of one of its names here, or of `critgroups.verify`, and
`critgroups.cli` imports it. Measured in fresh processes on a shared
2-vCPU host (Python 3.11), that takes the import from about 31 to 26 ms
without a bytecode cache, and from about 12.7 to 11 ms with one.
"""

__version__ = "0.1.0"

from .critical import (
    CriticalGroup,
    PairReport,
    are_equivalent,
    configuration_order,
    critical_group,
    delta_config,
    direct_sum_factors,
    find_generating_pairs,
    is_cyclic,
    pair_report,
    reduced_laplacian,
)
from .firing import (
    MoveLog,
    degree,
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
    add_path,
    check_stack_spec,
    complete_graph,
    cycle_graph,
    delete_edges,
    format_dot,
    format_graph,
    is_connected,
    parse_graph,
    parse_stack_spec,
    polygon_stack,
    wedge_sum,
)
from .linalg import (
    IntMatrix,
    SnfDecomposition,
    determinant,
    smith_normal_form,
    smith_rows_mod,
    solve_image_membership,
)
from .recurrences import (
    QuadraticNumber,
    SequenceTable,
    alternating_tables,
    constant_k_closed_form,
    constant_k_table,
    forest_count,
    house_closed_form,
    tree_count,
)

# the names of critgroups.verify, loaded by __getattr__ on first use
_HARNESS = frozenset({
    "ChainCheck",
    "LorenziniPathReport",
    "LorenziniReport",
    "SearchOutcome",
    "brute_spanning_forests",
    "brute_spanning_trees",
    "enumerate_connected_simple_graphs",
    "lorenzini_check",
    "lorenzini_path_check",
    "coprime_pair_search",
    "random_connected_multigraph",
    "reverify_outcome",
})

__all__ = sorted({n for n in globals() if not n.startswith("_")} | _HARNESS | {"verify"})


def __getattr__(name: str):
    """Load the harness on the first read of one of its names (PEP 562) and
    store all of them here, so every later read is a plain attribute read."""
    if name in _HARNESS or name == "verify":
        from importlib import import_module

        verify = import_module(f"{__name__}.verify")  # binds `verify` here too
        globals().update((n, getattr(verify, n)) for n in _HARNESS)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
