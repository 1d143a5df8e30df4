"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spreadnum as sn  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["exact_search", "grid_scale"])
def test_counts_repeat_across_runs(workload):
    first, second = _run(workload, 5), _run(workload, 5)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["graphs.edges_built"] > 0


def test_reference_rejects_non_spreading_set():
    adj = ref.grid_adjacency(5, 5)
    witness = [(c - 1) * 5 + r - 1 for c, r in sn.grid_witness(2, 1, 5, 5)]
    assert ref.spreads(adj, 2, 1, witness)
    assert not ref.spreads(adj, 2, 1, witness[1:])
    assert not ref.spreads(ref.adjacency(3, [(0, 1), (1, 2)]), 2, None, [0])


def test_grid_check_rejects_a_doctored_witness():
    task = wl._grid_task(sn, 0, 6, 5, (2, 1))
    out = task.run(run.NullTracer(), Counter())
    task.check(out)
    G, cells, ok = out
    with pytest.raises(ref.Mismatch):
        task.check((G, frozenset(sorted(cells)[1:]), ok))


def test_reference_closure_matches_engine():
    rng = wl.random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 14)
        edges = ref.gnp_edges(n, 0.35, rng)
        G = sn.Graph.from_edges(n, edges)
        p, q = rng.choice([(1, 1), (1, 2), (2, 1), (2, None), (3, 2)])
        seeds = rng.sample(range(n), rng.randint(1, n))
        colored = set(seeds) | set(ref.closure_order(ref.adjacency(n, edges), p, q, seeds))
        assert colored == sn.closure_set(G, wl._params(sn, p, q), seeds)


def test_partition_optimum_matches_program():
    rng = wl.random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 60)
        edges = ref.prufer_tree(n, rng)
        q = rng.randint(1, 3)
        parts = sn.subtree_partition(sn.Graph.from_edges(n, edges), q)
        assert ref.partition_ok(ref.adjacency(n, edges), q, parts)
        assert len(parts) == ref.min_partition_parts(ref.adjacency(n, edges), q)


def test_expected_table_covers_the_corpus():
    table = wl._expected_table()
    fixed = wl.corpus()
    keys = {wl.corpus_key(pq, n, i % len(wl.CORPUS_SIZES)) for i, (pq, n, _) in enumerate(fixed["graphs"])}
    assert keys == set(table["graphs"])
    keys = {wl.tree_key(i, pq[0], n) for i, (pq, n, _) in enumerate(fixed["trees"])}
    assert keys == set(table["trees"])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_seed_changes_inputs_and_nothing_else(workload, tmp_path):
    generate, make_tasks = wl.WORKLOADS[workload]
    a, b = generate(1), generate(2)
    assert a == generate(1)
    assert a != b
    kinds = []
    for seed, inputs in ((1, a), (2, b)):
        ctx = {"root": HERE.parent, "tmp": tmp_path / str(seed)}
        ctx["tmp"].mkdir()
        kinds.append(sorted(t.kind for t in make_tasks(inputs, sn, ctx)))
    assert kinds[0] == kinds[1]
    if workload == "grid_scale":
        for (slot, m, n, _), (slot2, m2, n2, _) in zip(sorted(a["sizes"]), sorted(b["sizes"])):
            assert abs(m * n - m2 * n2) <= 0.1 * m * n + 9
