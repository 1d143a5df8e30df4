"""Hardness-reduction gadget builders and desk-scale certification.

Two constructions transfer known-hard problems into this setting.  The
q-forcing gadget hangs a clique chain off every vertex so that q-forcing
the result costs exactly the zero-forcing number of the base graph.  The
spreading gadget adds ``p - 1`` universal vertices, each carrying ``p``
private leaves, so that (p,q)-spreading the result costs exactly the
q-forcing number of the base graph plus ``p (p - 1)``.  The certifiers
recompute both sides exactly on small graphs and also validate the
constructive "lift" of every minimum base set.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .engine import SpreadParams, is_spreading_set
from .graphs import Graph, _check_size, _require_int
from .solver import Budget, _as_budget, enumerate_minimum_sets, sigma_exact


def build_qforcing_gadget(G: Graph, q: int) -> Graph:
    """Attach the clique-chain gadget to every vertex; needs ``q >= 2``.

    Vertex ``i`` gains companions ``a1..a(q-1)``, ``b1..bq``, ``c1..cq``:
    the a's hang off ``i``, the a's and b's form one clique, the b's and
    c's another.  Output has ``3 q n`` vertices; labels record each
    companion's role and owner, e.g. ``"b2^i"``.  A gadget over
    ``graphs.MAX_GRAPH_SIZE`` raises ``ValueError`` before it is built.
    """
    _require_int("gadget", "q", q, 2)
    # Each vertex gains q - 1 edges to its a's and the a-b and b-c cliques,
    # which share the b-b edges: q (7q - 5) / 2 edges in all.
    _check_size(3 * q * G.n, G.edge_count + G.n * q * (7 * q - 5) // 2)
    n = G.n
    edges = list(G.edges())
    labels = {v: f"v{v}" for v in range(n)}
    for i in range(n):
        base = n + i * (3 * q - 1)
        a = list(range(base, base + q - 1))
        b = list(range(base + q - 1, base + 2 * q - 1))
        c = list(range(base + 2 * q - 1, base + 3 * q - 1))
        for j, v in enumerate(a, 1):
            labels[v] = f"a{j}^{i}"
            edges.append((i, v))
        for j, v in enumerate(b, 1):
            labels[v] = f"b{j}^{i}"
        for j, v in enumerate(c, 1):
            labels[v] = f"c{j}^{i}"
        edges.extend(combinations(a + b, 2))
        edges.extend(combinations(b + c, 2))
    return Graph.from_edges(3 * q * n, edges, labels)


def build_spreading_gadget(G: Graph, p: int) -> Graph:
    """Add ``p - 1`` universal vertices with ``p`` private leaves each.

    Output has ``n + (p - 1) + p (p - 1)`` vertices; universal vertices are
    labeled ``"u1".."u(p-1)"`` and leaves ``"leaf j^uk"``.  A gadget over
    ``graphs.MAX_GRAPH_SIZE`` raises ``ValueError`` before it is built.
    """
    _require_int("gadget", "p", p, 2)
    _check_size(G.n + (p - 1) + p * (p - 1), G.edge_count + (p - 1) * (G.n + p))
    n = G.n
    edges = list(G.edges())
    labels = {v: f"v{v}" for v in range(n)}
    leaf_base = n + p - 1
    for k in range(1, p):
        u = n + k - 1
        labels[u] = f"u{k}"
        edges.extend((u, v) for v in range(n))
        for j in range(1, p + 1):
            leaf = leaf_base + (k - 1) * p + (j - 1)
            labels[leaf] = f"leaf{j}^u{k}"
            edges.append((u, leaf))
    return Graph.from_edges(n + (p - 1) + p * (p - 1), edges, labels)


def gadget_leaves(G: Graph) -> frozenset[int]:
    """Vertices labeled as gadget leaves (the forced part of any lift)."""
    return frozenset(v for v, lab in G.label_map.items() if lab.startswith("leaf"))


class QForcingCertificate(NamedTuple):
    """Exact comparison of zero forcing on G and q-forcing on its gadget."""

    zero_forcing: int
    gadget_forcing: int
    equal: bool
    lifts_checked: int
    lifts_valid: bool

    def to_json(self) -> dict:
        return self._asdict()


class SpreadingCertificate(NamedTuple):
    """Exact comparison of q-forcing on G and spreading on its gadget."""

    forcing: int
    gadget_spreading: int
    expected: int
    equal: bool
    lifts_checked: int
    lifts_valid: bool

    def to_json(self) -> dict:
        return self._asdict()


def _certify(
    G: Graph, gadget: Graph, base: SpreadParams, params: SpreadParams,
    budget: int | Budget | None, lift_limit: int | None,
) -> tuple[int, int, int, bool]:
    """Both certifiers' flow on one budget and a gadget built (so checked)
    before it: the value of ``G`` under ``base``, the gadget's under
    ``params``, the number of minimum sets of ``G`` lifted (up to
    ``lift_limit``), and whether every lift ``S | leaves`` spreads the gadget."""
    shared = _as_budget(budget)
    sets = enumerate_minimum_sets(G, base, lift_limit, shared)
    leaves = gadget_leaves(gadget)
    lifts_valid = all(is_spreading_set(gadget, params, S | leaves) for S in sets)
    return len(sets[0]), sigma_exact(gadget, params, shared).value, len(sets), lifts_valid


def certify_qforcing_gadget(
    G: Graph, q: int, budget: int | None = None, lift_limit: int | None = None
) -> QForcingCertificate:
    """Check ``q-forcing(gadget) == zero-forcing(G)`` by exact search.

    Also validates the constructive direction: every minimum zero-forcing
    set of ``G`` (up to ``lift_limit`` of them) must q-force the gadget
    as-is, since original vertices keep their ids and there are no leaves.
    """
    zero, value, checked, valid = _certify(
        G, build_qforcing_gadget(G, q), SpreadParams(1, 1), SpreadParams(1, q),
        budget, lift_limit,
    )
    return QForcingCertificate(zero, value, value == zero, checked, valid)


def certify_spreading_gadget(
    G: Graph, p: int, q: int, budget: int | None = None, lift_limit: int | None = None
) -> SpreadingCertificate:
    """Check ``spreading(gadget) == q-forcing(G) + p (p - 1)`` exactly.

    The gadget's leaves have degree 1 < p, so the solver pins them into
    every candidate automatically; the constructive lift of a minimum
    q-forcing set is that set plus all leaves.
    """
    forcing, value, checked, valid = _certify(
        G, build_spreading_gadget(G, p), SpreadParams(1, q), SpreadParams(p, q),
        budget, lift_limit,
    )
    expected = forcing + p * (p - 1)
    return SpreadingCertificate(forcing, value, expected, value == expected, checked, valid)
