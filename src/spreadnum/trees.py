"""Tree algorithms: partitions, spreading numbers, bounds, and certificates.

For ``p = 1`` the spreading number of a tree equals the size of the smallest
partition of its vertices into induced subtrees of maximum degree ``q + 1``,
computed here by a single bottom-up pass.  For ``p >= 2`` the number does
not depend on ``q`` at all: it is the size of a minimum ``p``-neighbor
bootstrap percolating set, found by another bottom-up pass.  Trees with
spreading number exactly ``ceil(((p-1)n + 1) / p)`` are recognized by a
set-plus-ordering certificate ("property P(n,p)"): a seed set of that size
together with an ordering of the remaining vertices in which each one sees
at least ``p`` earlier-blue neighbors, subject to two edge-counting balance
conditions.  A certificate exists exactly when the spreading number meets
that bound, so the search for one is the bottom-up pass plus one check.
Everything runs in linear time, up to sorting, and checks its own result.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import (
    INFINITY,
    SigmaResult,
    SpreadParams,
    _exact,
)
from .graphs import Graph, _bfs, _is_int, _require_int


def _require_tree(T: Graph) -> None:
    if T.n < 1 or not T.is_tree:
        raise ValueError("expected a tree (connected, |E| = n - 1)")


def _rooted(T: Graph) -> tuple[list[int], list[int]]:
    """BFS order and parents (-1 at the root) of the tree ``T``, rooted at
    its lowest-id non-leaf vertex (vertex 0 if it has none).  Every parent
    comes before its children, so the reversed order is children first."""
    _require_tree(T)
    root = next((v for v in range(T.n) if T.degree(v) >= 2), 0)
    parent = [-2] * T.n
    return _bfs(T.adj, root, parent), parent


class Partition(tuple):
    """Disjoint vertex sets covering a tree, each inducing a subtree: a tuple of the parts."""

    __slots__ = ()

    @property
    def parts(self) -> tuple[frozenset[int], ...]:
        return tuple(self)

    def to_json(self) -> dict:
        return {"count": len(self), "parts": [sorted(p) for p in self]}


def partition_is_valid(T: Graph, q: int, partition: Partition) -> bool:
    """Check the partition contract: cover, disjoint, connected, degree.

    O(n) with one part id per vertex.  ``T`` must be a tree: a part of a
    tree is connected exactly when it induces ``|part| - 1`` edges.
    """
    _require_tree(T)
    part_of = [-1] * T.n
    for i, part in enumerate(partition):
        for v in part:
            if not (_is_int(v) and 0 <= v < T.n) or part_of[v] >= 0:
                return False
            part_of[v] = i
    if -1 in part_of:
        return False
    inner = [0] * len(partition)  # twice the edge count each part induces
    for v, i in enumerate(part_of):
        d = [part_of[u] for u in T.adj[v]].count(i)
        if d > q + 1:
            return False
        inner[i] += d
    # |part| - 1 edges: connected, and not empty, as no part has -1 edges
    return all(inner[i] == 2 * (len(part) - 1) for i, part in enumerate(partition))


def _parts(T: Graph, q: int) -> list[list[int]]:
    """The parts of :func:`subtree_partition`, each a list in BFS order."""
    order, parent = _rooted(T)
    root = order[0]
    # Bottom up: part[v] is the index of the part that v heads, or -1.  A
    # child heading a part has left its parent's remaining subtree, so cs
    # holds the children still in it; the root heads whatever is left.
    part = [-1] * T.n
    count = 0
    for x in reversed(order):
        cs = [c for c in T.adj[x] if c != parent[x] and part[c] < 0]
        if len(cs) <= q and x != root:
            continue
        for c in cs[q + 1 :] + [x]:
            part[c] = count
            count += 1
    # Top down: every other vertex joins the part of its parent.
    members: list[list[int]] = [[] for _ in range(count)]
    for v in order:
        if part[v] < 0:
            part[v] = part[parent[v]]
        members[part[v]].append(v)
    return members


def subtree_partition(T: Graph, q: int) -> Partition:
    """Smallest partition of a tree into induced subtrees of max degree q+1.

    A bottom-up pass, children first, picks the parts and a top-down pass
    fills them (linear time): a vertex whose remaining degree exceeds
    ``q + 1`` keeps itself plus its ``q + 1`` lowest-id child subtrees as
    one part, its remaining child subtrees split off as whole parts, and
    the processed subtree is removed.  Whatever survives to the root is one
    final part.  Each choice reads only the vertex's children, so any
    children-first order finds the same parts.
    """
    _require_int("partition", "q", q, 1)
    result = Partition(tuple(frozenset(m) for m in _parts(T, q)))
    assert partition_is_valid(T, q, result)
    return result


def _percolating_seeds(T: Graph, p: int) -> frozenset[int]:
    """Minimum ``p``-neighbor bootstrap percolating set of a tree, ``p >= 2``.

    Riedl's rule ("Largest and smallest minimal percolating sets in trees",
    EJC 2012), children first: a vertex with at least ``p`` active children
    is active; one with ``p - 1`` waits for its parent (the root cannot
    wait); any other vertex is seeded and active.  The set also spreads at
    ``q = 1``: a vertex's subtree turns blue once the vertex does, so each
    active child has its parent as its only white neighbor, and a waiting
    vertex has ``p - 1 >= 1`` such children.
    """
    order, parent = _rooted(T)
    root = order[0]
    active_children = [0] * T.n
    seeds = []
    for v in reversed(order):
        c = active_children[v]
        if c == p - 1 and v != root:
            continue
        if c < p:
            seeds.append(v)
        if v != root:
            active_children[parent[v]] += 1
    return frozenset(seeds)


def sigma_tree(T: Graph, params: SpreadParams) -> SigmaResult:
    """Spreading number of a tree, with a validated witness, without search.

    ``p = 1``: one leaf of each part of :func:`subtree_partition` spreads
    the whole tree, and the part's last vertex in BFS order is one: none of
    its children is in the part.  With unlimited white budget vertex 0
    alone suffices.  ``p >= 2``: the value is independent of ``q`` and
    equals the size of a minimum ``p``-neighbor bootstrap percolating set,
    which :func:`_percolating_seeds` builds.  Either witness is revalidated
    by a closure under the requested parameters.
    """
    _require_tree(T)
    if params.p >= 2:
        seeds = _percolating_seeds(T, params.p)
    elif params.q_is_infinite:
        seeds = frozenset({0})
    else:
        seeds = frozenset(part[-1] for part in _parts(T, params.q))
    return _exact(T, params, seeds)


def tree_lower_bound(n: int, p: int) -> int:
    """``ceil(((p-1)n + 1) / p)``: no tree on n vertices does better (p >= 2)."""
    _require_int("bound", "n", n, 1)
    _require_int("bound", "p", p, 2)
    return ((p - 1) * n + p) // p


class UpperBoundReport(NamedTuple):
    """Result of :func:`tree_upper_bound`: the bound, whether it is attained, and why."""

    bound: int
    attained: bool
    reason: str

    def to_json(self) -> dict:
        return self._asdict()


def tree_upper_bound(T: Graph, p: int, q: int | float) -> UpperBoundReport:
    """Extremal upper bound for trees of order at least 5, any ``q``.

    ``p = 2``: at most ``n - 1``, with equality exactly for stars.
    ``p >= 3``: at most ``n``, with equality exactly when every degree is
    below ``p``.
    """
    _require_tree(T)
    _require_int("extremal bound", "p", p, 2)
    SpreadParams(p, q)  # reject malformed q the same way the engine would
    n = T.n
    if n < 5:
        raise ValueError("extremal bound requires at least 5 vertices")
    if p == 2:
        is_star = T.max_degree == n - 1
        return UpperBoundReport(
            bound=n - 1,
            attained=is_star,
            reason="star" if is_star else "has two branching/internal vertices",
        )
    if T.max_degree < p:
        return UpperBoundReport(
            bound=n, attained=True, reason=f"maximum degree {T.max_degree} below p"
        )
    return UpperBoundReport(
        bound=n,
        attained=False,
        reason="a vertex of degree >= p exists, so its complement spreads",
    )


class PnpStep(NamedTuple):
    """Per-step bookkeeping for the tightness certificate."""

    vertex: int
    pulled: tuple[int, ...]  # seed-component vertices absorbed at this step
    blue_neighbors: int  # neighbors of ``vertex`` inside the step's forest
    seed_edges: int  # edges inside seed part of the forest (k_t)
    forest_components: int  # components of the forest (c_t)

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "pulled": list(self.pulled),
            "blue_neighbors": self.blue_neighbors,
            "seed_edges": self.seed_edges,
            "forest_components": self.forest_components,
        }


class PnpReport(NamedTuple):
    """Outcome of checking property P(n,p) for one set and ordering."""

    holds: bool
    reason: str | None
    seed_set: frozenset[int]
    ordering: tuple[int, ...]
    remainder: int  # rem(n-1, p)
    excess_sum: int  # sum over steps of (blue_neighbors - p)
    seed_edges: int  # |E(T[S])|
    steps: tuple[PnpStep, ...]

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "reason": self.reason,
            "set": sorted(self.seed_set),
            "ordering": list(self.ordering),
            "remainder": self.remainder,
            "excess_sum": self.excess_sum,
            "seed_edges": self.seed_edges,
            "steps": [s.to_json() for s in self.steps],
        }


def check_property_pnp(
    T: Graph, p: int, S, ordering
) -> PnpReport:
    """Evaluate the tightness certificate for ``(S, ordering)``.

    The growing forest starts from the first ordered vertex plus every seed
    component adjacent to it; each later vertex joins together with the
    still-unused seed components adjacent to it.  Requirements: the seed
    set has the lower-bound size and every ordered vertex has at least
    ``p`` neighbors inside its own forest (the size then makes the excess
    over ``p`` and the seed set's edges add up to ``rem(n-1, p)``).  One
    search finds the seed components, and each step's counts are running
    totals, a forest's components being its vertices minus its edges:
    linear time, up to sorting each step's pulled seeds.
    """
    _require_tree(T)
    _require_int("certificate", "p", p, 2)
    S = frozenset(S)
    if not all(_is_int(v) and 0 <= v < T.n for v in S):
        raise ValueError("seed set contains unknown vertices")
    ordering = tuple(ordering)
    if not all(map(_is_int, ordering)) or sorted(ordering) != sorted(set(range(T.n)) - S):
        raise ValueError("ordering is not a permutation of the non-seed vertices")
    n = T.n
    need = tree_lower_bound(n, p)
    remainder = (n - 1) % p
    # Components of T[S]: every non-seed is marked visited, so each search
    # stays inside S; a component is keyed by its lowest vertex, its root.
    parent = [-2 if v in S else -1 for v in range(n)]
    root_of = [-1] * n  # -1 off S
    members: dict[int, list[int]] = {}  # seed components not yet pulled
    for r in range(n):
        if parent[r] == -2:
            members[r] = _bfs(T.adj, r, parent)
            for s in members[r]:
                root_of[s] = r
    seed_edges_total = len(S) - len(members)  # a forest: vertices - components
    steps: list[PnpStep] = []
    if len(S) == need:
        in_forest = bytearray(n)
        forest_size = k_t = blue_total = 0
        for v in ordering:
            pulled: list[int] = []
            for u in T.adj[v]:
                part = members.pop(root_of[u], None)
                if part is not None:
                    pulled += part
                    k_t += len(part) - 1
            for x in (v, *pulled):
                in_forest[x] = 1
            forest_size += 1 + len(pulled)
            nfi = sum(in_forest[u] for u in T.adj[v])
            blue_total += nfi
            # The forest's edges are its seed edges plus each step's edges back
            # into the forest, so its components are vertices minus those.
            steps.append(
                PnpStep(
                    vertex=v,
                    pulled=tuple(sorted(pulled)),
                    blue_neighbors=nfi,
                    seed_edges=k_t,
                    forest_components=forest_size - k_t - blue_total,
                )
            )
        assert not ordering or all(in_forest), "complete ordering must absorb every seed"
        # Each edge of T is a seed edge or a forced-neighbor edge, and |S| = need
        # leaves floor((n-1)/p) ordered vertices: seed edges + excess is exactly
        # rem(n-1, p), so a certificate whose steps all reach p always holds.
        assert n - 1 == seed_edges_total + blue_total
        assert seed_edges_total + blue_total - p * len(ordering) == remainder
    short = [t for t, step in enumerate(steps, 1) if step.blue_neighbors < p]
    reason = None
    if len(S) != need:
        reason = f"seed set has size {len(S)}, certificate needs {need}"
    elif short:
        first = short[0]
        reason = f"step {first}: vertex {ordering[first - 1]} has fewer than {p} forest neighbors"
    return PnpReport(
        holds=reason is None,
        reason=reason,
        seed_set=S,
        ordering=ordering,
        remainder=remainder,
        excess_sum=sum(step.blue_neighbors - p for step in steps),
        seed_edges=seed_edges_total,
        steps=tuple(steps),
    )


def search_property_pnp(T: Graph, p: int) -> PnpReport | None:
    """A tightness certificate for the tree, or None if it has none.

    A certificate's seed set spreads under ``(p, infinity)``, so one exists
    only if the spreading number meets the lower bound.  Conversely, in the
    closure order of a spreading set of the bound's size every vertex has
    ``p`` blue neighbors, all in its forest: each is an earlier ordered
    vertex or a seed whose component the vertex pulls at that step.  So the
    minimum seed set of :func:`sigma_tree` with its closure order is a
    certificate whenever the bound is met (linear time).
    """
    _require_int("certificate", "p", p, 2)
    res = sigma_tree(T, SpreadParams(p, INFINITY))
    if res.value != tree_lower_bound(T.n, p):
        return None
    report = check_property_pnp(T, p, res.witness, res.trace.forced)
    assert report.holds, "spreading order must certify"
    return report


def tight_tree(n: int, p: int) -> Graph:
    """A tree of order ``n`` whose spreading number meets the lower bound.

    Seeds ``0..f-1`` (f the bound) and forced vertices ``f..n-1`` form two
    independent sets; consecutive forced vertices share one seed neighbor,
    each grabbing ``p`` seeds, with the last taking all leftovers.
    """
    _require_int("construction", "p", p, 2)
    _require_int("construction", "n", n, p + 1)
    f = tree_lower_bound(n, p)
    t = n - f
    edges = []
    for i in range(1, t):
        lo = (i - 1) * (p - 1)
        edges.extend((f - 1 + i, w) for w in range(lo, lo + p))
    lo = (t - 1) * (p - 1)
    edges.extend((n - 1, w) for w in range(lo, f))
    return Graph.from_edges(n, edges)
