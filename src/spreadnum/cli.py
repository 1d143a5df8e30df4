"""Command-line entry point: one JSON document per invocation.

Every subcommand is a thin adapter over the library: no computation lives
here, and the library validates every parameter.  A graph comes from one
source, ``--edges`` or ``--family``.  Exit codes: 0 success, 2 invalid
input, 3 evaluation budget exhausted, 4 open/unresolved case, so scripts
can branch on the outcome.  ``q`` is spelled ``inf`` for the unconstrained
white budget.

Each command imports only the submodules it runs, inside :func:`_run`, and
none imports ``dataclasses`` (the records are NamedTuples): without a
bytecode cache every process compiles the source it imports, so loading
more would cost more than most commands compute.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .engine import SigmaResult
    from .graphs import Graph

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_OPEN = 4


def _parse_q(text: str) -> int | float:
    if text.strip().lower() == "inf":
        return inf
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be an integer or 'inf', got {text!r}")


def _parse_ids(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integer ids, got {text!r}")


def _parse_cells(text: str) -> list[tuple[int, int]]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.replace(",", " ").split()
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"cell must be 'col,row', got {chunk!r}")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"cell must be integers, got {chunk!r}")
    return cells


def _load_graph(args: argparse.Namespace) -> Graph:
    from .graphs import build_family, family_from_tokens, parse_edge_list

    if args.edges:
        with open(args.edges, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    if args.family:
        return build_family(family_from_tokens(args.family))
    raise ValueError("a graph is required: pass --edges FILE or --family NAME ARGS")


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--edges", metavar="FILE", help="edge-list file")
    source.add_argument(
        "--family",
        nargs="+",
        metavar="NAME",
        help="named family and integer parameters, e.g. --family grid 3 3",
    )


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=_parse_q, required=True, help="positive integer or 'inf'")


def _emit(doc: dict, code: int = EXIT_OK) -> int:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return code


def _sigma_exit(res: SigmaResult) -> int:
    return _emit(res.to_json(), EXIT_OPEN if res.status == "open" else EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spread",
        description="Spreading numbers on graphs: closures, exact values, witnesses.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("closure", help="run the rule to fixpoint, emit the trace")
    _add_graph_args(s)
    _add_params(s)
    s.add_argument("--set", type=_parse_ids, required=True, metavar="IDS")

    s = subs.add_parser("check", help="validate a spreading set or a full sequence")
    _add_graph_args(s)
    _add_params(s)
    s.add_argument("--set", type=_parse_ids, required=True, metavar="IDS")
    s.add_argument("--sequence", type=_parse_ids, metavar="IDS")

    s = subs.add_parser("solve", help="exact spreading number by search")
    _add_graph_args(s)
    _add_params(s)
    s.add_argument("--budget", type=int, help="max closure evaluations")

    s = subs.add_parser("tree", help="spreading number of a tree")
    _add_graph_args(s)
    _add_params(s)

    s = subs.add_parser("partition", help="smallest bounded-degree subtree partition")
    _add_graph_args(s)
    s.add_argument("--q", type=int, required=True)

    s = subs.add_parser("formula", help="closed-form value for a named family")
    s.add_argument("--family", nargs="+", required=True, metavar="NAME")
    _add_params(s)

    s = subs.add_parser("grid", help="grid spreading number by formula")
    _add_params(s)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)

    s = subs.add_parser("witness", help="explicit minimum grid spreading set")
    _add_params(s)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)

    s = subs.add_parser("perimeter", help="boundary length of a blue cell set")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--cells", type=_parse_cells, required=True, metavar="C,R;C,R")

    s = subs.add_parser("gadget", help="build a hardness-reduction gadget")
    _add_graph_args(s)
    s.add_argument("--kind", choices=("qforcing", "spreading"), required=True)
    s.add_argument("--p", type=int)
    s.add_argument("--q", type=int)

    s = subs.add_parser("certify", help="certify a gadget equality exactly")
    _add_graph_args(s)
    s.add_argument("--kind", choices=("qforcing", "spreading"), required=True)
    s.add_argument("--p", type=int)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--budget", type=int)

    s = subs.add_parser("probe-conjecture", help="compare (3,3) and (3,4) grid values")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--budget", type=int)

    s = subs.add_parser("property-pnp", help="tightness certificate for a tree")
    _add_graph_args(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--set", type=_parse_ids, metavar="IDS")
    s.add_argument("--ordering", type=_parse_ids, metavar="IDS")

    return parser


def _run(args: argparse.Namespace) -> int:
    from .engine import SpreadParams, check_spreading_sequence, closure, is_spreading_set

    cmd = args.command
    G = _load_graph(args) if "edges" in args else None
    if cmd in ("closure", "check", "solve", "tree"):
        params = SpreadParams(args.p, args.q)
    if cmd == "closure":
        _, trace = closure(G, params, args.set)
        return _emit(trace.to_json())
    if cmd == "check":
        if args.sequence is not None:
            ok = check_spreading_sequence(G, params, args.set, args.sequence)
            return _emit({"valid_sequence": ok})
        return _emit({"spreading": is_spreading_set(G, params, args.set)})
    if cmd == "solve":
        from .solver import sigma_exact

        return _sigma_exit(sigma_exact(G, params, args.budget))
    if cmd == "tree":
        from .trees import sigma_tree

        return _sigma_exit(sigma_tree(G, params))
    if cmd == "partition":
        from .trees import subtree_partition

        return _emit(subtree_partition(G, args.q).to_json())
    if cmd == "formula":
        from .formulas import sigma_closed_form
        from .graphs import family_from_tokens

        spec = family_from_tokens(args.family)
        return _sigma_exit(sigma_closed_form(spec, SpreadParams(args.p, args.q)))
    if cmd == "grid":
        from .formulas import grid_sigma

        return _sigma_exit(grid_sigma(args.p, args.q, args.m, args.n))
    if cmd == "witness":
        from .formulas import grid_witness

        cells = grid_witness(args.p, args.q, args.m, args.n)
        return _emit({"cells": sorted(cells), "size": len(cells)})
    if cmd == "perimeter":
        from .formulas import blue_perimeter

        return _emit({"perimeter": blue_perimeter(args.m, args.n, args.cells)})
    if cmd == "gadget":
        from .gadgets import build_qforcing_gadget, build_spreading_gadget

        if args.kind == "qforcing":
            out = build_qforcing_gadget(G, args.q)
        else:
            out = build_spreading_gadget(G, args.p)
        return _emit(
            {
                "n": out.n,
                "edges": [[u, v] for u, v in out.edges()],
                "labels": {str(v): lab for v, lab in (out.labels or ())},
            }
        )
    if cmd == "certify":
        from .gadgets import certify_qforcing_gadget, certify_spreading_gadget

        if args.kind == "qforcing":
            cert = certify_qforcing_gadget(G, args.q, args.budget)
        else:
            cert = certify_spreading_gadget(G, args.p, args.q, args.budget)
        return _emit(cert.to_json())
    if cmd == "probe-conjecture":
        from .formulas import probe_grid_conjecture

        probe = probe_grid_conjecture(args.m, args.n, args.budget)
        doc = probe.to_json()
        return _emit(doc, EXIT_BUDGET if probe.equal is None else EXIT_OK)
    if cmd == "property-pnp":
        from .trees import check_property_pnp, search_property_pnp

        if args.set is not None and args.ordering is not None:
            report = check_property_pnp(G, args.p, args.set, args.ordering)
            return _emit(report.to_json())
        if args.set is not None or args.ordering is not None:
            raise ValueError("--set and --ordering must be given together")
        report = search_property_pnp(G, args.p)
        if report is None:
            return _emit({"found": False})
        doc = report.to_json()
        doc["found"] = True
        return _emit(doc)
    raise AssertionError(f"unhandled command {cmd!r}")


def _loaded(module: str, name: str):
    """``name`` from submodule ``module`` if it is loaded, else ``()``.

    An ``except`` clause with ``()`` matches nothing.  A command can raise
    only the exceptions of submodules it loaded, so the error path looks
    them up instead of importing anything.
    """
    mod = sys.modules.get(f"{__package__}.{module}")
    return getattr(mod, name) if mod is not None else ()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _loaded("solver", "BudgetExhausted") as exc:
        doc = {"status": "budget_exhausted", "evaluations": exc.evaluations}
        if exc.lower_bound is not None:
            doc["lower_bound"] = exc.lower_bound
        return _emit(doc, EXIT_BUDGET)
    except _loaded("formulas", "OpenProblemError") as exc:
        return _emit({"status": "open", "note": str(exc)}, EXIT_OPEN)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
