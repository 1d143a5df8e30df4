"""The spreading color change rule: closures, traces, and set validation.

A white vertex turns blue once it has at least ``p`` blue neighbors and one
of those blue neighbors has at most ``q`` white neighbors.  The rule is
monotone (blue sets only grow, white-neighbor counts only shrink), so the
closure of a seed set is unique no matter in which order eligible vertices
are processed.  One kernel colors every vertex: the seeds in id order, then
one forced vertex at a time in a canonical order, lowest eligible white id
first, attributed to its lowest-id usable blue neighbor.  Traces are
therefore reproducible fixtures.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .graphs import Graph, _require_int

#: Distinguished "no white-degree constraint" value for q.
INFINITY = math.inf

_STATUSES = frozenset({"exact", "formula", "open", "not_covered"})


@dataclass(frozen=True)
class SpreadParams:
    """The pair ``(p, q)``: blue-neighbor threshold and forcer white budget.

    ``q`` is a positive integer or :data:`INFINITY`; infinity is a
    distinguished value, never an integer sentinel.
    """

    p: int
    q: int | float

    def __post_init__(self) -> None:
        _require_int("SpreadParams", "p", self.p, 1)
        if self.q != INFINITY and not (isinstance(self.q, int) and self.q >= 1):
            raise ValueError(f"q must be a positive integer or INFINITY, got {self.q!r}")

    @property
    def q_is_infinite(self) -> bool:
        return self.q == INFINITY

    def effective_q(self, n: int) -> int:
        """Finite threshold equivalent to q on a graph with ``n`` vertices."""
        return n if self.q_is_infinite else self.q


@dataclass(frozen=True)
class SpreadTrace:
    """Replayable record of one closure run.

    ``steps`` lists ``(forcer, forced)`` pairs in the order vertices turned
    blue; a forcer that colors several neighbors appears in consecutive
    steps.  ``final`` is always ``initial`` plus the forced vertices.
    """

    initial: frozenset[int]
    steps: tuple[tuple[int, int], ...]
    final: frozenset[int]

    @property
    def forced(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.steps)

    def to_json(self) -> dict:
        return {
            "initial": sorted(self.initial),
            "steps": [[f, w] for f, w in self.steps],
            "final": sorted(self.final),
        }


@dataclass(frozen=True)
class SigmaResult:
    """A computed spreading number.

    ``status`` is one of ``exact`` (solver-proven), ``formula`` (closed
    form), ``open`` (unresolved case) or ``not_covered`` (no known formula).
    ``value`` is absent for the last two.  A witness, when present, is a
    minimum spreading set of the stated size.
    """

    value: int | None
    status: str
    witness: frozenset[int] | None = None
    trace: SpreadTrace | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.witness is not None and self.value != len(self.witness):
            raise ValueError("witness size disagrees with value")

    def to_json(self) -> dict:
        doc: dict = {"status": self.status}
        if self.value is not None:
            doc["value"] = self.value
        if self.witness is not None:
            doc["witness"] = sorted(self.witness)
        if self.trace is not None:
            doc["trace"] = self.trace.to_json()
        if self.note is not None:
            doc["note"] = self.note
        return doc


def _spread(
    adj: tuple[tuple[int, ...], ...],
    deg: tuple[int, ...],
    p: int,
    qe: int,
    blue: bytearray,
    bc: list[int],
    seeds: Iterable[int],
    steps: list[tuple[int, int]] | None = None,
) -> int:
    """Add ``seeds`` to the closure ``blue`` and run the rule to the new
    fixpoint in place; O(E + n log n).  Returns the change in the edge
    potential ``p * |white| - |edges with a white end|``.

    ``bc[v]`` counts the blue neighbors of ``v``, so ``v`` has
    ``deg[v] - bc[v]`` white ones.  The all-white state is a closure, and by
    monotonicity the result is the closure of the old blue set plus
    ``seeds``.  Every vertex turns blue by popping one heap: seed ``v`` with
    key ``v - n``, so the seeds pop first in id order, and a white vertex
    with its own id the moment it becomes eligible.  ``queued`` marks the
    blue and heaped vertices, and every eligible white vertex is queued: a
    fixpoint has none, and each coloring queues what it makes eligible.
    Once the seeds are blue, each pop is thus the lowest eligible id, which
    ``steps`` records with its lowest-id usable blue neighbor.  Coloring
    ``w`` removes one white vertex and ``bc[w]`` edges with a white end, so
    the potential changes by the sum of ``bc[w] - p``.
    """
    push, pop = heapq.heappush, heapq.heappop
    n = len(blue)
    queued = bytearray(blue)
    heap: list[int] = []
    for v in seeds:
        if not queued[v]:
            queued[v] = 1
            push(heap, v - n)
    gain = 0
    while heap:
        w = pop(heap)
        if w < 0:
            w += n
        elif steps is not None:
            for u in adj[w]:
                if blue[u] and deg[u] - bc[u] <= qe:
                    steps.append((u, w))
                    break
            else:
                raise AssertionError("queued vertex lost its usable blue neighbor")
        gain += bc[w] - p
        blue[w] = 1
        for x in adj[w]:
            bc[x] += 1
            if blue[x]:
                # x just crossed the white-budget threshold: its white
                # neighbors with enough blue support become eligible.
                if deg[x] - bc[x] == qe:
                    for y in adj[x]:
                        if not queued[y] and bc[y] >= p:
                            push(heap, y)
                            queued[y] = 1
            elif not queued[x] and bc[x] == p:
                for u in adj[x]:
                    if blue[u] and deg[u] - bc[u] <= qe:
                        push(heap, x)
                        queued[x] = 1
                        break
        if deg[w] - bc[w] <= qe:
            # w itself is a usable forcer from now on.
            for y in adj[w]:
                if not queued[y] and bc[y] >= p:
                    push(heap, y)
                    queued[y] = 1
    return gain


def _check_seeds(G: Graph, seeds: Iterable[int]) -> frozenset[int]:
    S = frozenset(seeds)
    for v in S:
        if not (isinstance(v, int) and 0 <= v < G.n):
            raise ValueError(f"seed vertex {v!r} not in 0..{G.n - 1}")
    return S


def _closed(
    G: Graph, params: SpreadParams, seeds: Iterable[int], steps=None
) -> tuple[frozenset[int], bytearray]:
    """The checked seed set and the blue flags of its closure."""
    S = _check_seeds(G, seeds)
    blue = bytearray(G.n)
    q = params.effective_q(G.n)
    _spread(G.adj, G.degrees, params.p, q, blue, [0] * G.n, S, steps)
    return S, blue


def closure(
    G: Graph, params: SpreadParams, seeds: Iterable[int]
) -> tuple[frozenset[int], SpreadTrace]:
    """Maximal blue set reachable from ``seeds``, with a replayable trace."""
    steps: list[tuple[int, int]] = []
    S, blue = _closed(G, params, seeds, steps)
    final = frozenset(compress(range(G.n), blue))
    return final, SpreadTrace(initial=S, steps=tuple(steps), final=final)


def _exact(G: Graph, params: SpreadParams, seeds: frozenset[int]) -> SigmaResult:
    """The one maker of ``exact`` results: minimum ``seeds``, re-validated."""
    final, trace = closure(G, params, seeds)
    assert final == frozenset(range(G.n)), "witness failed re-validation"
    return SigmaResult(value=len(seeds), status="exact", witness=seeds, trace=trace)


def closure_set(G: Graph, params: SpreadParams, seeds: Iterable[int]) -> frozenset[int]:
    """Like :func:`closure` but skips trace bookkeeping."""
    return frozenset(compress(range(G.n), _closed(G, params, seeds)[1]))


def is_spreading_set(G: Graph, params: SpreadParams, seeds: Iterable[int]) -> bool:
    """True iff the closure of ``seeds`` is the whole vertex set."""
    return all(_closed(G, params, seeds)[1])


_ANY = object()  # a forcer that stands for any usable blue neighbor


def _replay(G: Graph, params: SpreadParams, initial, steps) -> bytearray | None:
    """Color ``initial``, then each ``(forcer, forced)`` step in order, with
    blue-neighbor counts ``bc`` as in :func:`_spread`; None at the first step
    that breaks the rule.  Forcer :data:`_ANY` accepts any usable blue
    neighbor.  An id outside ``0..n-1`` fails instead of raising.
    """
    n, adj, deg = G.n, G.adj, G.degrees
    p, qe = params.p, params.effective_q(n)
    if not all(isinstance(v, int) and 0 <= v < n for v in initial):
        return None
    blue, bc = bytearray(n), [0] * n
    for v in initial:
        if not blue[v]:
            blue[v] = 1
            for u in adj[v]:
                bc[u] += 1
    for forcer, w in steps:
        if not (isinstance(w, int) and 0 <= w < n) or blue[w] or bc[w] < p:
            return None
        if forcer is _ANY:
            forcers = adj[w]
        elif isinstance(forcer, int) and 0 <= forcer < n and forcer in adj[w]:
            forcers = (forcer,)
        else:
            return None
        for u in forcers:
            if blue[u] and deg[u] - bc[u] <= qe:
                break
        else:
            return None
        blue[w] = 1
        for u in adj[w]:
            bc[u] += 1
    return blue


def check_spreading_sequence(
    G: Graph,
    params: SpreadParams,
    seeds: Iterable[int],
    sequence: Iterable[int],
) -> bool:
    """Check that coloring ``sequence`` in order is consistent with the rule.

    ``sequence`` must be a permutation of the non-seed vertices; at each step
    the next vertex needs at least ``p`` blue neighbors, one of which has at
    most ``q`` white neighbors (the vertex being colored counts as white).
    """
    S = _check_seeds(G, seeds)
    seq = list(sequence)
    if len(set(seq)) != len(seq) or set(seq) != set(range(G.n)) - S:
        raise ValueError("sequence is not a permutation of the non-seed vertices")
    return _replay(G, params, S, ((_ANY, w) for w in seq)) is not None


def verify_trace(G: Graph, params: SpreadParams, trace: SpreadTrace) -> bool:
    """Replay a trace: every force must be legal and end at ``final``."""
    blue = _replay(G, params, trace.initial, trace.steps)
    if blue is None:
        return False
    return frozenset(compress(range(G.n), blue)) == frozenset(trace.final)
