"""Spreading numbers on graphs.

A seed set of blue vertices grows by the spreading rule (a white vertex
with at least ``p`` blue neighbors, one of which has at most ``q`` white
neighbors, turns blue); the spreading number is the smallest seed set that
eventually colors everything.  Setting ``p = 1`` recovers q-forcing and
zero forcing; ``q = INFINITY`` recovers r-neighbor bootstrap percolation.

The package bundles the closure engine, an exact solver used as the oracle
for everything else, linear-time tree algorithms, closed forms and witness
constructions for named families and grids, and hardness-reduction gadget
builders, all cross-verified at desk scale.
"""

from .engine import (
    INFINITY,
    SigmaResult,
    SpreadParams,
    SpreadTrace,
    check_spreading_sequence,
    closure,
    closure_set,
    is_spreading_set,
    verify_trace,
)
from .formulas import (
    ConjectureProbe,
    OpenProblemError,
    blue_perimeter,
    grid_cell_id,
    grid_id_cell,
    grid_sigma,
    grid_witness,
    probe_grid_conjecture,
    sigma_closed_form,
)
from .gadgets import (
    QForcingCertificate,
    SpreadingCertificate,
    build_qforcing_gadget,
    build_spreading_gadget,
    certify_qforcing_gadget,
    certify_spreading_gadget,
    gadget_leaves,
)
from .graphs import (
    FamilySpec,
    Graph,
    GraphFormatError,
    build_family,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    family_from_tokens,
    grid,
    parse_edge_list,
    path,
    serialize_edge_list,
    star,
)
from .solver import (
    DEFAULT_EVALUATION_BUDGET,
    Budget,
    BudgetExhausted,
    enumerate_minimum_sets,
    lower_bound,
    sigma_exact,
)
from .trees import (
    Partition,
    RootedTree,
    PnpReport,
    PnpStep,
    UpperBoundReport,
    check_property_pnp,
    partition_is_valid,
    search_property_pnp,
    sigma_tree,
    subtree_partition,
    tight_tree,
    tree_lower_bound,
    tree_upper_bound,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Budget",
    "DEFAULT_EVALUATION_BUDGET",
    "BudgetExhausted",
    "ConjectureProbe",
    "FamilySpec",
    "Graph",
    "GraphFormatError",
    "OpenProblemError",
    "Partition",
    "PnpReport",
    "PnpStep",
    "RootedTree",
    "QForcingCertificate",
    "SigmaResult",
    "SpreadParams",
    "SpreadTrace",
    "SpreadingCertificate",
    "UpperBoundReport",
    "blue_perimeter",
    "build_family",
    "build_qforcing_gadget",
    "build_spreading_gadget",
    "cartesian_product",
    "certify_qforcing_gadget",
    "certify_spreading_gadget",
    "check_property_pnp",
    "check_spreading_sequence",
    "closure",
    "closure_set",
    "complete",
    "complete_bipartite",
    "cycle",
    "enumerate_minimum_sets",
    "family_from_tokens",
    "gadget_leaves",
    "grid",
    "grid_cell_id",
    "grid_id_cell",
    "grid_sigma",
    "grid_witness",
    "is_spreading_set",
    "lower_bound",
    "parse_edge_list",
    "partition_is_valid",
    "path",
    "probe_grid_conjecture",
    "search_property_pnp",
    "serialize_edge_list",
    "sigma_closed_form",
    "sigma_exact",
    "sigma_tree",
    "star",
    "subtree_partition",
    "tight_tree",
    "tree_lower_bound",
    "tree_upper_bound",
    "verify_trace",
]
