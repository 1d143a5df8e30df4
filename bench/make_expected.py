"""Regenerate expected_exact.json, the answers the exact_search workload checks.

Values come from the package's exact solver on the fixed corpus (natural
labels).  Before they are written, every corpus graph with at most 14
vertices and every small grid is re-solved by brute force with the
reference closure, grids are compared with the closed forms where one
exists, and trees with their bounds, so the table does not simply restate
the solver.

Run from the repository root:  python3 bench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spreadnum as sn  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

BRUTE_MAX_N = 14


def solve(G, p, q, adj):
    params = wl._params(sn, p, q)
    value = sn.sigma_exact(G, params, sn.Budget(None)).value
    if G.n <= BRUTE_MAX_N:
        brute = ref.brute_sigma(adj, p, q)
        if brute != value:
            raise SystemExit(f"solver says {value}, brute force says {brute}")
    return value


def count_sets(G, p, q):
    return len(sn.enumerate_minimum_sets(G, wl._params(sn, p, q), budget=sn.Budget(None)))


def main() -> None:
    fixed = wl.corpus()
    table: dict = {"graphs": {}, "grids": {}, "grid_sets": {}, "trees": {}}
    for i, (pq, n, edges) in enumerate(fixed["graphs"]):
        pos = i % len(wl.CORPUS_SIZES)
        G = sn.Graph.from_edges(n, edges)
        entry = {"value": solve(G, *pq, ref.adjacency(n, edges))}
        if pos == wl.ENUMERATE_POS:
            entry["min_sets"] = count_sets(G, *pq)
        table["graphs"][wl.corpus_key(pq, n, pos)] = entry
    for m, n in wl.EXACT_GRIDS:
        for p, q in wl.EXACT_GRID_PQ:
            value = solve(sn.grid(m, n), p, q, ref.grid_adjacency(m, n))
            if p != 3 and value != ref.grid_sigma(p, q, m, n):
                raise SystemExit(f"grid {m}x{n} ({p},{q}): {value} disagrees with the closed form")
            table["grids"][wl.grid_key(m, n, (p, q))] = value
    for (m, n), (p, q), _ in wl.ENUMERATE_GRIDS:
        G = sn.grid(m, n)
        table["grid_sets"][wl.grid_key(m, n, (p, q))] = {
            "value": table["grids"][wl.grid_key(m, n, (p, q))],
            "min_sets": count_sets(G, p, q),
        }
    for i, ((p, _), n, edges) in enumerate(fixed["trees"]):
        value = sn.sigma_exact(sn.Graph.from_edges(n, edges), sn.SpreadParams(p, 1)).value
        lo, hi = ref.tree_bounds(n, p)
        if not lo <= value <= hi:
            raise SystemExit(f"tree {i}: {value} outside the bounds [{lo}, {hi}]")
        table["trees"][wl.tree_key(i, p, n)] = value
    with open(HERE / "expected_exact.json", "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
