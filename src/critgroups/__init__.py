"""Exact computation of critical groups of finite connected multigraphs:
Smith normal form of reduced Laplacians, chip-firing reductions, polygon
stacks, and the spanning-tree recurrences that govern them."""

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
from .verify import (
    ChainCheck,
    LorenziniPathReport,
    LorenziniReport,
    SearchOutcome,
    brute_spanning_forests,
    brute_spanning_trees,
    enumerate_connected_simple_graphs,
    lorenzini_check,
    lorenzini_path_check,
    coprime_pair_search,
    random_connected_multigraph,
    reverify_outcome,
)
