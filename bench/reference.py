"""Seeded input generators and independent answer checks for the benchmark.

Nothing here imports ``spreadnum``.  The closure below is queue based and
re-examines a vertex whenever one of its neighbors, or a neighbor of a
neighbor, changes color; it shares no code or ordering with the program's
heap-driven engine, so an engine defect cannot hide behind a shared helper.
Because the spreading rule is monotone, both reach the same final set.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from itertools import combinations

Adj = list[list[int]]


class Mismatch(AssertionError):
    """The program returned a wrong value, witness or output."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Generators


def prufer_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree on ``0..n-1`` from a random Pruefer code."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    code = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in code:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def gnp_edges(n: int, prob: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi G(n, prob) edge list, ``u < v``."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]


def relabel(edges: list[tuple[int, int]], perm: list[int]) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in edges]


def adjacency(n: int, edges) -> Adj:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(s) for s in nbrs]


def grid_adjacency(m: int, n: int) -> Adj:
    """Grid with ``m`` columns, ``n`` rows; cell (c, r) is ``(c-1)*n + (r-1)``."""
    adj: Adj = []
    for c in range(m):
        for r in range(n):
            v = c * n + r
            out = []
            if c > 0:
                out.append(v - n)
            if r > 0:
                out.append(v - 1)
            if r < n - 1:
                out.append(v + 1)
            if c < m - 1:
                out.append(v + n)
            adj.append(out)
    return adj


def grid_edge_count(m: int, n: int) -> int:
    return m * (n - 1) + n * (m - 1)


# ---------------------------------------------------------------------------
# Closure


def closure_order(adj: Adj, p: int, q: int | None, seeds) -> list[int]:
    """Vertices colored from ``seeds`` under the (p, q) rule, in coloring order.

    ``q`` of ``None`` means no white-neighbor limit.
    """
    n = len(adj)
    qe = n if q is None else q
    blue = bytearray(n)
    bc = [0] * n
    white = [len(a) for a in adj]
    for s in seeds:
        if not blue[s]:
            blue[s] = 1
            for u in adj[s]:
                bc[u] += 1
                white[u] -= 1
    queue = deque(range(n))
    pending = bytearray(b"\x01") * n
    order = []
    while queue:
        w = queue.popleft()
        pending[w] = 0
        if blue[w] or bc[w] < p:
            continue
        if not any(blue[u] and white[u] <= qe for u in adj[w]):
            continue
        blue[w] = 1
        order.append(w)
        for u in adj[w]:
            bc[u] += 1
            white[u] -= 1
        # w's neighbors gained blue support; their neighbors may have gained
        # a usable forcer (a neighbor whose white count just dropped).
        for u in adj[w]:
            if not blue[u] and not pending[u]:
                pending[u] = 1
                queue.append(u)
            for x in adj[u]:
                if not blue[x] and not pending[x]:
                    pending[x] = 1
                    queue.append(x)
    return order


def spreads(adj: Adj, p: int, q: int | None, seeds) -> bool:
    seeds = set(seeds)
    return len(seeds) + len(closure_order(adj, p, q, seeds)) == len(adj)


def brute_sigma(adj: Adj, p: int, q: int | None) -> int:
    """Smallest spreading set by trying every subset; tiny graphs only."""
    n = len(adj)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if spreads(adj, p, q, combo):
                return k
    raise Mismatch("the full vertex set must spread")


# ---------------------------------------------------------------------------
# Closed forms and tree facts, restated from the paper


def grid_sigma(p: int, q: int, m: int, n: int) -> int:
    """Grid spreading number for p in {1, 2, 4} with both sides >= 3."""
    big, small = max(m, n), min(m, n)
    if small < 3:
        raise ValueError("closed forms here need both grid sides >= 3")
    if p == 1:
        return small if q == 1 else 1
    if p == 2:
        return -(-(small + big + (1 if q == 1 else 0)) // 2)
    if p == 4:
        return 2 * big + 2 * small - 4 + ((big - 2) * (small - 2)) // 2
    raise ValueError(f"no closed form for p={p}")


def tree_bounds(n: int, p: int) -> tuple[int, int]:
    """Lower and upper bounds on a tree's spreading number for p >= 2, n >= 5."""
    return ((p - 1) * n + p) // p, n - 1 if p == 2 else n


def min_partition_parts(adj: Adj, q: int) -> int:
    """Fewest parts of a tree partition into subtrees of max degree q + 1.

    Cuts the fewest edges so every vertex keeps at most ``q + 1`` edges:
    bottom-up, each vertex keeps the child edges that save the most cuts.
    """
    n = len(adj)
    limit = q + 1
    parent = [-1] * n
    order = [0]
    parent[0] = 0
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    keep = [0] * n  # cuts in v's subtree when the edge to v's parent stays
    cut = [0] * n  # cuts in v's subtree when that edge is cut
    for v in reversed(order):
        base = 0
        gains = []
        for c in adj[v]:
            if parent[c] == v:
                base += cut[c] + 1
                gains.append(cut[c] + 1 - keep[c])
        gains.sort(reverse=True)
        cut[v] = base - sum(gains[:limit])
        keep[v] = base - sum(gains[: limit - 1])
    return cut[0] + 1


def partition_ok(adj: Adj, q: int, parts) -> bool:
    """Parts cover the tree once, each connected with max degree <= q + 1."""
    n = len(adj)
    owner = [-1] * n
    for i, part in enumerate(parts):
        for v in part:
            if owner[v] != -1:
                return False
            owner[v] = i
    if -1 in owner:
        return False
    for i, part in enumerate(parts):
        part = list(part)
        inside = [[u for u in adj[v] if owner[u] == i] for v in part]
        if any(len(a) > q + 1 for a in inside):
            return False
        # A set of k tree vertices with k - 1 internal edges is connected.
        if sum(len(a) for a in inside) != 2 * (len(part) - 1):
            return False
    return True


def perimeter(cells) -> int:
    cells = set(cells)
    touching = sum(((c + 1, r) in cells) + ((c, r + 1) in cells) for c, r in cells)
    return 4 * len(cells) - 2 * touching
