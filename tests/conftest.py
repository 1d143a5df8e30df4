"""Shared corpora and independent oracles for the test suite.

The oracle functions here deliberately re-implement the spreading rule with
naive full rescans so that engine results are checked against logic that
shares no code with the engine.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, permutations

import pytest

from spreadnum import Graph, SpreadParams


def naive_closure(G: Graph, params: SpreadParams, seeds, rng: random.Random | None = None):
    """Reference closure: rescan everything, color one vertex per step.

    With ``rng`` the next vertex is drawn uniformly from the currently
    eligible ones, otherwise the lowest id is taken.
    """
    blue = set(seeds)
    qe = params.effective_q(G.n)
    while True:
        eligible = [
            w
            for w in range(G.n)
            if w not in blue
            and sum(u in blue for u in G.adj[w]) >= params.p
            and any(
                u in blue and sum(x not in blue for x in G.adj[u]) <= qe
                for u in G.adj[w]
            )
        ]
        if not eligible:
            return frozenset(blue)
        blue.add(rng.choice(eligible) if rng is not None else eligible[0])


def naive_is_spreading(G: Graph, params: SpreadParams, seeds) -> bool:
    return naive_closure(G, params, seeds) == frozenset(range(G.n))


def naive_canonical_trace(G: Graph, params: SpreadParams, seeds):
    """Reference canonical trace: full rescan, lowest eligible white first,
    attributed to its lowest-id usable blue neighbor."""
    blue = set(seeds)
    qe = params.effective_q(G.n)
    steps = []
    while True:
        step = None
        for w in range(G.n):
            if w in blue or sum(u in blue for u in G.adj[w]) < params.p:
                continue
            for u in G.adj[w]:
                if u in blue and sum(x not in blue for x in G.adj[u]) <= qe:
                    step = (u, w)
                    break
            if step:
                break
        if step is None:
            return tuple(steps), frozenset(blue)
        steps.append(step)
        blue.add(step[1])


def naive_replay(G: Graph, params: SpreadParams, initial, steps):
    """Reference replay with recounts from a set: the final blue set, or None.

    ``steps`` are ``(forcer, forced)`` pairs; forcer None accepts any blue
    neighbor with at most ``q`` white neighbors.  Any id outside the graph
    fails the replay.
    """
    vertices = set(range(G.n))
    blue = set(initial)
    if not blue <= vertices:
        return None
    qe = params.effective_q(G.n)
    for forcer, w in steps:
        if w not in vertices or w in blue:
            return None
        if sum(u in blue for u in G.adj[w]) < params.p:
            return None
        usable = [
            u for u in G.adj[w] if u in blue and sum(x not in blue for x in G.adj[u]) <= qe
        ]
        if not usable or (forcer is not None and forcer not in usable):
            return None
        blue.add(w)
    return frozenset(blue)


def naive_sigma(G: Graph, params: SpreadParams) -> int:
    """Reference minimum by unpruned brute force over all subsets."""
    for k in range(0, G.n + 1):
        for combo in combinations(range(G.n), k):
            if naive_is_spreading(G, params, combo):
                return k
    raise AssertionError("the full vertex set always spreads")


def _components_within(G: Graph, vertices: set[int]) -> list[set[int]]:
    comps: list[set[int]] = []
    for s in sorted(vertices):
        if any(s in c for c in comps):
            continue
        comp = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in G.adj[u]:
                if v in vertices and v not in comp:
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def naive_pnp_report(T: Graph, p: int, S, ordering) -> dict:
    """Reference certificate report (``PnpReport.to_json``) by full rescans.

    Every step recounts the seed edges inside the forest over all edges and
    recomputes the forest's components by search, O(n * E) in total.
    """
    S, ordering, n = set(S), list(ordering), T.n
    need = ((p - 1) * n + p) // p
    remainder = (n - 1) % p
    seed_edges = sum(1 for u, v in T.edges() if u in S and v in S)
    doc = {
        "holds": False,
        "set": sorted(S),
        "ordering": ordering,
        "remainder": remainder,
        "excess_sum": 0,
        "seed_edges": seed_edges,
        "steps": [],
    }
    if len(S) != need:
        doc["reason"] = f"seed set has size {len(S)}, certificate needs {need}"
        return doc
    comp = {s: c for c in _components_within(T, S) for s in c}
    forest: set[int] = set()
    blue_counts = []
    for v in ordering:
        pulled = set().union(*(comp[u] for u in T.adj[v] if u in S)) - forest
        forest |= pulled | {v}
        blue_counts.append(sum(1 for u in T.adj[v] if u in forest))
        doc["steps"].append(
            {
                "vertex": v,
                "pulled": sorted(pulled),
                "blue_neighbors": blue_counts[-1],
                "seed_edges": sum(
                    1 for u, w in T.edges() if {u, w} <= forest and {u, w} <= S
                ),
                "forest_components": len(_components_within(T, forest)),
            }
        )
    excess = doc["excess_sum"] = sum(c - p for c in blue_counts)
    short = [t for t, c in enumerate(blue_counts, 1) if c < p]
    if short:
        doc["reason"] = (
            f"step {short[0]}: vertex {ordering[short[0] - 1]} has fewer than "
            f"{p} forest neighbors"
        )
    elif remainder < excess:
        doc["reason"] = f"excess {excess} exceeds remainder {remainder}"
    elif seed_edges != remainder - excess:
        doc["reason"] = (
            f"seed set induces {seed_edges} edges, certificate needs {remainder - excess}"
        )
    else:
        doc["holds"], doc["reason"] = True, None
    return doc


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a random parent-code sequence."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph.from_edges(n, edges)


def random_graph(n: int, edge_prob: float, rng: random.Random) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph.from_edges(n, edges)


def connected_graphs(n: int) -> list[Graph]:
    """All non-isomorphic connected graphs on ``n`` vertices (n <= 5)."""
    assert n <= 5, "permutation-based canonization only scales to n = 5"
    pairs = list(combinations(range(n), 2))
    perms = list(permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        G = Graph.from_edges(n, edges)
        if not G.is_connected:
            continue
        canon = min(
            tuple(sorted(tuple(sorted((pi[u], pi[v]))) for u, v in edges))
            for pi in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(G)
    return out


@pytest.fixture
def hub_counterexample() -> Graph:
    """10-vertex graph with two degree-4 hubs whose 2-forcing number is 1.

    Ids 0..5 are the pendant-ish rim vertices, 6 and 7 the hubs, 8 and 9 a
    two-vertex path bridging rim vertex 1 to rim vertex 3.
    """
    return Graph.from_edges(
        10,
        [(0, 6), (1, 6), (2, 6), (6, 7), (1, 8), (8, 9), (9, 3), (3, 7), (4, 7), (5, 7)],
    )


@pytest.fixture
def chained_tight_tree() -> Graph:
    """11-vertex tree meeting the p=3 lower bound with only 3 spreading orders.

    Seeds 0..7; forced vertices 8, 9, 10.  Vertex 9 hangs between 8 and 10,
    so it can never be colored first, and 8/10 share no seed.
    """
    return Graph.from_edges(
        11,
        [(0, 8), (1, 8), (2, 8), (8, 9), (3, 9), (4, 9), (4, 10), (5, 10), (6, 10), (6, 7)],
    )
