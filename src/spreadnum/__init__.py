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

``import spreadnum`` loads no submodule.  Every public name is resolved on
first access, which imports the one submodule that defines it (and what
that submodule imports); ``from spreadnum import *`` loads them all.  A
program, such as one ``spread`` CLI call, pays only for what it uses.
"""

from importlib import import_module

#: The public names each submodule defines; ``_HOME`` maps a name to its submodule.
_EXPORTS = {
    "engine": (
        "INFINITY",
        "SigmaResult",
        "SpreadParams",
        "SpreadTrace",
        "check_spreading_sequence",
        "closure",
        "closure_set",
        "is_spreading_set",
        "verify_trace",
    ),
    "formulas": (
        "ConjectureProbe",
        "OpenProblemError",
        "blue_perimeter",
        "grid_cell_id",
        "grid_id_cell",
        "grid_sigma",
        "grid_witness",
        "probe_grid_conjecture",
        "sigma_closed_form",
    ),
    "gadgets": (
        "QForcingCertificate",
        "SpreadingCertificate",
        "build_qforcing_gadget",
        "build_spreading_gadget",
        "certify_qforcing_gadget",
        "certify_spreading_gadget",
        "gadget_leaves",
    ),
    "graphs": (
        "FamilySpec",
        "Graph",
        "GraphFormatError",
        "build_family",
        "complete",
        "complete_bipartite",
        "cycle",
        "family_from_tokens",
        "grid",
        "parse_edge_list",
        "path",
        "serialize_edge_list",
        "star",
    ),
    "solver": (
        "DEFAULT_EVALUATION_BUDGET",
        "Budget",
        "BudgetExhausted",
        "enumerate_minimum_sets",
        "lower_bound",
        "sigma_exact",
    ),
    "trees": (
        "Partition",
        "PnpReport",
        "PnpStep",
        "UpperBoundReport",
        "check_property_pnp",
        "partition_is_valid",
        "search_property_pnp",
        "sigma_tree",
        "subtree_partition",
        "tight_tree",
        "tree_lower_bound",
        "tree_upper_bound",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule behind ``name`` on first access (PEP 562).

    The value is cached in the package namespace, so later lookups never
    come back here.  Submodule names resolve to the submodule itself.
    """
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
