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

from dataclasses import asdict, dataclass
from itertools import combinations

from .engine import SpreadParams, is_spreading_set
from .graphs import Graph, _check_size, _require_int
from .solver import _as_budget, _minimum_sets, sigma_exact


def _check_qforcing(G: Graph, q: int) -> None:
    _require_int("gadget", "q", q, 2)
    # Each vertex gains q - 1 edges to its a's and the a-b and b-c cliques,
    # which share the b-b edges: q (7q - 5) / 2 edges in all.
    _check_size(3 * q * G.n, G.edge_count + G.n * q * (7 * q - 5) // 2)


def _check_spreading(G: Graph, p: int) -> None:
    _require_int("gadget", "p", p, 2)
    _check_size(G.n + (p - 1) + p * (p - 1), G.edge_count + (p - 1) * (G.n + p))


def build_qforcing_gadget(G: Graph, q: int) -> Graph:
    """Attach the clique-chain gadget to every vertex; needs ``q >= 2``.

    Vertex ``i`` gains companions ``a1..a(q-1)``, ``b1..bq``, ``c1..cq``:
    the a's hang off ``i``, the a's and b's form one clique, the b's and
    c's another.  Output has ``3 q n`` vertices; labels record each
    companion's role and owner, e.g. ``"b2^i"``.  A gadget over
    ``graphs.MAX_GRAPH_SIZE`` raises ``ValueError`` before it is built.
    """
    _check_qforcing(G, q)
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
    _check_spreading(G, p)
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


@dataclass(frozen=True)
class QForcingCertificate:
    """Exact comparison of zero forcing on G and q-forcing on its gadget."""

    zero_forcing: int
    gadget_forcing: int
    equal: bool
    lifts_checked: int
    lifts_valid: bool

    to_json = asdict


@dataclass(frozen=True)
class SpreadingCertificate:
    """Exact comparison of q-forcing on G and spreading on its gadget."""

    forcing: int
    gadget_spreading: int
    expected: int
    equal: bool
    lifts_checked: int
    lifts_valid: bool

    to_json = asdict


def certify_qforcing_gadget(
    G: Graph, q: int, budget: int | None = None, lift_limit: int | None = None
) -> QForcingCertificate:
    """Check ``q-forcing(gadget) == zero-forcing(G)`` by exact search.

    Also validates the constructive direction: every minimum zero-forcing
    set of ``G`` (up to ``lift_limit`` of them) must q-force the gadget
    as-is, since original vertices keep their ids.
    """
    _check_qforcing(G, q)
    shared = _as_budget(budget)
    zero, lifts = _minimum_sets(G, SpreadParams(1, 1), shared, lift_limit)
    gadget = build_qforcing_gadget(G, q)
    qf_params = SpreadParams(1, q)
    lifts_valid = all(is_spreading_set(gadget, qf_params, S) for S in lifts)
    gadget_value = sigma_exact(gadget, qf_params, shared).value
    assert zero is not None and gadget_value is not None
    return QForcingCertificate(
        zero_forcing=zero,
        gadget_forcing=gadget_value,
        equal=gadget_value == zero,
        lifts_checked=len(lifts),
        lifts_valid=lifts_valid,
    )


def certify_spreading_gadget(
    G: Graph,
    p: int,
    q: int,
    budget: int | None = None,
    lift_limit: int | None = None,
) -> SpreadingCertificate:
    """Check ``spreading(gadget) == q-forcing(G) + p (p - 1)`` exactly.

    The gadget's leaves have degree 1 < p, so the solver pins them into
    every candidate automatically; the constructive lift of a minimum
    q-forcing set is that set plus all leaves.
    """
    _check_spreading(G, p)
    shared = _as_budget(budget)
    forcing, lifts = _minimum_sets(G, SpreadParams(1, q), shared, lift_limit)
    gadget = build_spreading_gadget(G, p)
    sp_params = SpreadParams(p, q)
    leaves = gadget_leaves(gadget)
    lifts_valid = all(is_spreading_set(gadget, sp_params, S | leaves) for S in lifts)
    gadget_value = sigma_exact(gadget, sp_params, shared).value
    assert forcing is not None and gadget_value is not None
    expected = forcing + p * (p - 1)
    return SpreadingCertificate(
        forcing=forcing,
        gadget_spreading=gadget_value,
        expected=expected,
        equal=gadget_value == expected,
        lifts_checked=len(lifts),
        lifts_valid=lifts_valid,
    )
