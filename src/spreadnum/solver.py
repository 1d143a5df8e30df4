"""Exact minimum spreading sets by ascending-cardinality subset search.

This is the reference oracle for every formula and tree algorithm in the
package.  Each cardinality level is searched in full before the next, so
the first feasible cardinality is optimal and no branch-and-bound
bookkeeping is needed.  Within a level one depth-first search visits
candidate sets in lexicographic order, and every prefix keeps its closure:
a child adds one more seed to its parent's fixpoint and runs the rule from
there instead of starting over.  A vertex the prefix closure already
colors is never added, because the set would close like one of the
previous level, which failed or lies below the static bound.  Vertices of
degree below ``p`` can never be forced and are fixed in every candidate.
Each component is searched on its own, renumbered in id order so every
node's state has the component's size, and without recursion.

The edge potential ``H = p * |white| - |edges with a white end|`` prunes
the search.  Coloring a vertex with ``c`` blue neighbors changes ``H`` by
``c - p``, so a force never lowers it and a seed lowers it by at most
``p``; it is 0 once every vertex is blue.  A prefix whose closure has
``H > p * r`` with ``r`` seeds still to choose therefore has no spreading
completion and is not extended.  At the all-white state this is the static
bound ``|S| >= n - E/p``, the perimeter argument for grids at ``p = 3``.

A completion cutoff ends each level's loop early.  A child that adds
``free[i]`` can later add only seeds from ``free[i+1:]``, so none of its
completions colors more than the closure of the prefix plus ``free[i:]``.
That set shrinks as ``i`` grows; past the last ``i`` where it spreads no
child has a spreading completion.  A failing suffix leaves a fort, a white
set no outside vertex can force into, that misses every remaining
candidate (Brimkov, Fast & Hicks, EJOR 2019).  The edge potential bound is
empty at ``p = 1`` on any graph with a cycle; the cutoff is not.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .engine import SigmaResult, SpreadParams, _exact, _spread
from .graphs import Graph


class BudgetExhausted(RuntimeError):
    """Search gave up before proving a value; never reports a wrong exact.

    ``lower_bound`` is the best cardinality proven unreachable plus one (or
    the static bound) at the moment the budget ran out.
    """

    def __init__(
        self, message: str, *, evaluations: int, lower_bound: int | None = None
    ) -> None:
        super().__init__(message)
        self.evaluations = evaluations
        self.lower_bound = lower_bound


#: Evaluation cap applied when no budget is given, so a search on an
#: oversized graph reports exhaustion instead of running forever.  One
#: evaluation is one closure-kernel call, a node of the subset search or a
#: step of a completion-cutoff scan; the 5x5 grid at (3, 3) takes 194 of
#: them.  Pass ``Budget(None)`` to lift it.
DEFAULT_EVALUATION_BUDGET = 5_000_000


class Budget:
    """Counts closure evaluations; hardware-independent 'gave up' behavior.

    The subset search charges one evaluation per call of the closure
    kernel: the root of each level closes the fixed low-degree vertices,
    every other node adds one seed to a prefix closure, and each step of a
    completion-cutoff scan adds one candidate to the scan's closure.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("budget must be a positive evaluation count")
        self.limit = limit
        self.used = 0

    def charge(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted(
                f"closure-evaluation budget of {self.limit} exhausted",
                evaluations=self.used - 1,
            )


def _as_budget(budget: int | Budget | None) -> Budget:
    if isinstance(budget, Budget):
        return budget
    return Budget(DEFAULT_EVALUATION_BUDGET if budget is None else budget)


def lower_bound(G: Graph, params: SpreadParams) -> int:
    """Static lower bound on the spreading number; never exceeds it.

    Takes the best of: ``min(p, n)``; the number of vertices of degree below
    ``p`` (they can never be forced); and the edge term ``ceil(n - E/p)``
    (see the module docstring).  On trees the edge term is
    ``ceil(((p-1)n + 1) / p)``, on ``m x n`` grids at ``p = 3`` it is
    ``ceil((mn + m + n) / 3)``.
    """
    return _degree_bound(G.degrees, params.p)


def _degree_bound(degrees: Sequence[int], p: int) -> int:
    """:func:`lower_bound` of a union of components with these degrees."""
    n = len(degrees)
    return max(
        min(p, n),
        sum(1 for d in degrees if d < p),
        -((sum(degrees) // 2 - p * n) // p),
    )


def _spreading_sets(
    adj: Sequence[Sequence[int]], params: SpreadParams, budget: Budget, k: int
) -> Iterator[frozenset[int]]:
    """Spreading sets of size ``k`` of the graph with adjacency ``adj``, in
    lexicographic order; all minimum ones when ``k`` is its spreading number.

    Every set holds all vertices of degree below ``p`` (they can never be
    forced) plus free vertices chosen depth first in ascending order.  Each
    prefix keeps its closure, and a child adds its one seed to a copy of
    it.  A vertex the prefix closure already colors is never added: the
    set would close exactly like the set without it, one smaller, so it
    cannot be a minimum spreading set.  Each prefix also carries its edge
    potential ``h`` (see the module docstring), which the kernel's gains
    update incrementally; a prefix with ``r`` seeds still to choose is extended
    only if ``h <= p * r``.

    A node whose children still choose seeds also finds its completion
    cutoff ``c`` (see the module docstring): a copy of its closure takes
    ``free[-1]``, ``free[-2]``, ... down to the first ``free[c]`` after
    which it spreads, and the loop stops after child ``c``; with no such
    ``c`` at or after ``start`` the node has no children.  The kernel
    resumes, so one scan costs at most one closure's coloring work.  Both
    prunes cut only subtrees with no spreading completion, so the sets
    found and their order do not depend on them.  Every kernel call costs
    one budget evaluation: each node, the root and the pruned ones
    included, and each scan step that adds a white candidate.  Suspended
    nodes wait on an explicit stack, not on Python's call stack.
    """
    n, p = len(adj), params.p
    qe = params.effective_q(n)
    deg = [len(nbrs) for nbrs in adj]
    forced = tuple(v for v in range(n) if deg[v] < p)
    free = [v for v in range(n) if deg[v] >= p]
    charge = budget.charge

    def extend(
        blue: bytearray, bc: list[int], h: int, start: int, members: tuple[int, ...]
    ) -> Iterator:
        rest = k - len(members) - 1
        stop = len(free) - rest
        if rest:
            # Completion cutoff: the last c whose suffix closure spreads.
            cut, cut_bc, c = bytearray(blue), bc[:], len(free)
            while 0 in cut:
                c -= 1
                if c < start:
                    return
                if not cut[free[c]]:
                    charge()
                    _spread(adj, deg, p, qe, cut, cut_bc, (free[c],))
            stop = min(stop, c + 1)
        for i in range(start, stop):
            v = free[i]
            if blue[v]:
                continue
            charge()
            child, child_bc = bytearray(blue), bc[:]
            child_h = h + _spread(adj, deg, p, qe, child, child_bc, (v,))
            if rest:
                if child_h <= p * rest:
                    yield extend(child, child_bc, child_h, i + 1, members + (v,))
            elif 0 not in child:
                yield frozenset(members + (v,))

    charge()
    blue, bc = bytearray(n), [0] * n
    h = p * n - sum(deg) // 2 + _spread(adj, deg, p, qe, blue, bc, forced)
    if len(forced) < k:
        stack = [extend(blue, bc, h, 0, forced)]
        while stack:
            found = next(stack[-1], None)
            if found is None:
                stack.pop()
            elif isinstance(found, frozenset):
                yield found
            else:
                stack.append(found)
    elif 0 not in blue:
        yield frozenset(forced)


def sigma_exact(
    G: Graph, params: SpreadParams, budget: int | Budget | None = None
) -> SigmaResult:
    """Exact spreading number with a re-validated witness and trace.

    Components are independent (the rule never crosses them), so the value
    is the sum of per-component minima, each the first cardinality level at
    which the search finds a set.  Deterministic: candidate sets are
    enumerated in a fixed lexicographic order.  A budget that runs out at
    level ``k`` reports the solved minima plus ``k`` plus the static bounds
    of the components not yet searched.  Without an explicit budget the
    search is capped at :data:`DEFAULT_EVALUATION_BUDGET` closure
    evaluations and raises :class:`BudgetExhausted` beyond that, so the
    call always terminates.
    """
    if G.n < 1:
        raise ValueError("graph must have at least one vertex")
    b = _as_budget(budget)
    witness: set[int] = set()
    parts = [sorted(comp) for comp in G.components()]
    bounds = [_degree_bound([G.degrees[v] for v in part], params.p) for part in parts]
    for idx, part in enumerate(parts):
        # Renumbered in id order, so each node's state is the component's size.
        pos = {v: i for i, v in enumerate(part)}
        adj = [tuple(pos[w] for w in G.adj[v]) for v in part]
        for k in range(bounds[idx], len(part) + 1):
            try:
                found = next(_spreading_sets(adj, params, b, k), None)
            except BudgetExhausted as exc:
                exc.lower_bound = len(witness) + k + sum(bounds[idx + 1 :])
                raise
            if found is not None:
                break
        else:
            raise AssertionError("the full vertex set always spreads")
        witness.update(part[v] for v in found)
    return _exact(G, params, frozenset(witness))


def enumerate_minimum_sets(
    G: Graph,
    params: SpreadParams,
    limit: int | None = None,
    budget: int | Budget | None = None,
) -> list[frozenset[int]]:
    """All spreading sets of minimum cardinality, or the first ``limit`` of
    them in lexicographic order.

    Each returned set has been validated by running it to closure; output is
    sorted, so repeated runs agree element for element.
    """
    return _minimum_sets(G, params, _as_budget(budget), limit)[1]


def _minimum_sets(
    G: Graph, params: SpreadParams, budget: Budget, limit: int | None
) -> tuple[int, list[frozenset[int]]]:
    """The spreading number and :func:`enumerate_minimum_sets`, from one
    :func:`sigma_exact` search."""
    k = sigma_exact(G, params, budget).value
    sets = _spreading_sets(G.adj, params, budget, k)
    return k, list(islice(sets, limit))
