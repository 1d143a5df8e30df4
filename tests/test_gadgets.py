"""Gadget builders: structure, labels, and desk-scale certification."""

from __future__ import annotations

from itertools import combinations

import pytest

from spreadnum import (
    Budget,
    SpreadParams,
    build_qforcing_gadget,
    build_spreading_gadget,
    certify_qforcing_gadget,
    certify_spreading_gadget,
    complete,
    cycle,
    enumerate_minimum_sets,
    gadget_leaves,
    is_spreading_set,
    path,
    sigma_exact,
    star,
)
from spreadnum import graphs

from conftest import connected_graphs

P = SpreadParams


def _labeled(G, prefix, owner=None):
    suffix = f"^{owner}" if owner is not None else ""
    return [
        v
        for v, lab in G.label_map.items()
        if lab.startswith(prefix) and (owner is None or lab.endswith(suffix))
    ]


def test_qforcing_gadget_sizes():
    assert build_qforcing_gadget(path(3), 2).n == 18
    assert build_qforcing_gadget(path(1), 2).n == 6
    assert build_qforcing_gadget(cycle(4), 3).n == 36


def test_qforcing_gadget_structure():
    g = build_qforcing_gadget(path(3), 2)
    for i in range(3):
        a = _labeled(g, "a", i)
        b = _labeled(g, "b", i)
        c = _labeled(g, "c", i)
        assert (len(a), len(b), len(c)) == (1, 2, 2)
        # companions hang off their owner through the a-group only
        assert all(i in g.adj[v] for v in a)
        assert all(i not in g.adj[v] for v in b + c)
        # a+b and b+c are cliques; a and c never touch
        for u, v in combinations(a + b, 2):
            assert v in g.adj[u]
        for u, v in combinations(b + c, 2):
            assert v in g.adj[u]
        assert all(v not in g.adj[u] for u in a for v in c)
    # No leaves, so the certifier's lift `S | leaves` is the base set S itself.
    assert gadget_leaves(g) == frozenset()


def test_qforcing_gadget_clique_sizes_scale_with_budget():
    q = 3
    g = build_qforcing_gadget(path(2), q)
    for i in range(2):
        ab = _labeled(g, "a", i) + _labeled(g, "b", i)
        bc = _labeled(g, "b", i) + _labeled(g, "c", i)
        assert len(ab) == 2 * q - 1
        assert len(bc) == 2 * q
        for u, v in combinations(ab, 2):
            assert v in g.adj[u]
        for u, v in combinations(bc, 2):
            assert v in g.adj[u]


def test_qforcing_gadget_rejects_small_q():
    with pytest.raises(ValueError):
        build_qforcing_gadget(path(3), 1)


def test_spreading_gadget_sizes_and_degrees():
    g = build_spreading_gadget(path(3), 2)
    assert g.n == 6
    (u1,) = _labeled(g, "u")
    assert g.degree(u1) == 5  # three originals plus two leaves

    g = build_spreading_gadget(path(1), 2)
    assert g.n == 4

    g = build_spreading_gadget(cycle(4), 3)
    assert g.n == 12
    for u in _labeled(g, "u"):
        assert g.degree(u) == 7


def test_spreading_gadget_leaves():
    g = build_spreading_gadget(cycle(4), 3)
    leaves = gadget_leaves(g)
    assert len(leaves) == 3 * 2
    assert all(g.degree(v) == 1 for v in leaves)


def test_spreading_gadget_rejects_small_p():
    with pytest.raises(ValueError):
        build_spreading_gadget(path(3), 1)


def test_certify_qforcing_examples():
    for g, expect in [(path(3), 1), (complete(3), 2), (star(4), 2)]:
        cert = certify_qforcing_gadget(g, 2)
        assert cert.zero_forcing == expect
        assert cert.gadget_forcing == expect
        assert cert.equal and cert.lifts_valid
        assert cert.lifts_checked >= 1
    assert certify_qforcing_gadget(path(3), 2).to_json() == {
        "zero_forcing": 1,
        "gadget_forcing": 1,
        "equal": True,
        "lifts_checked": 2,
        "lifts_valid": True,
    }


def test_certify_spreading_examples():
    cert = certify_spreading_gadget(path(3), 2, 1)
    assert (cert.forcing, cert.gadget_spreading) == (1, 3)
    assert cert.equal and cert.lifts_valid

    cert = certify_spreading_gadget(cycle(4), 2, 1)
    assert (cert.forcing, cert.gadget_spreading) == (2, 4)
    assert cert.equal

    cert = certify_spreading_gadget(path(4), 3, 2)
    assert cert.to_json() == {
        "forcing": 1,
        "gadget_spreading": 7,
        "expected": 7,
        "equal": True,
        "lifts_checked": 4,
        "lifts_valid": True,
    }


def test_certify_disconnected_base_graph():
    """Both certificates on a base graph whose two parts interleave in id
    order, so every lift unions one minimum set from each part."""
    G = graphs.Graph.from_edges(5, [(0, 3), (1, 2), (2, 4)])
    cert = certify_qforcing_gadget(G, 2)
    assert (cert.zero_forcing, cert.gadget_forcing, cert.lifts_checked) == (2, 2, 4)
    assert cert.equal and cert.lifts_valid
    for p, q, gadget_value in [(2, 2, 4), (3, 1, 8)]:
        cert = certify_spreading_gadget(G, p, q)
        assert (cert.forcing, cert.gadget_spreading) == (2, gadget_value)
        assert cert.equal and cert.lifts_valid


def test_minimum_zero_forcing_sets_lift():
    for g in connected_graphs(4):
        gadget = build_qforcing_gadget(g, 2)
        for S in enumerate_minimum_sets(g, P(1, 1)):
            assert is_spreading_set(gadget, P(1, 2), S)


def test_minimum_forcing_sets_lift_with_leaves():
    for g in connected_graphs(4):
        for p, q in [(2, 1), (3, 2)]:
            gadget = build_spreading_gadget(g, p)
            leaves = gadget_leaves(gadget)
            for S in enumerate_minimum_sets(g, P(1, q), limit=4):
                assert is_spreading_set(gadget, P(p, q), S | leaves)


def test_connected_graph_corpus_counts():
    assert [len(connected_graphs(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]


@pytest.mark.parametrize("kind", ["qforcing", "spreading"])
def test_certifier_searches_the_base_graph_once(kind):
    """A certificate costs one enumeration of the base graph (which finds
    the minimum itself) plus one search of the gadget, nothing more."""
    G, p, q = cycle(5), 2, 2
    base_params = P(1, 1) if kind == "qforcing" else P(1, q)
    gadget = build_qforcing_gadget(G, q) if kind == "qforcing" else build_spreading_gadget(G, p)
    base, gadget_search, shared = Budget(None), Budget(None), Budget(None)
    enumerate_minimum_sets(G, base_params, limit=4, budget=base)
    sigma_exact(gadget, P(1, q) if kind == "qforcing" else P(p, q), gadget_search)
    if kind == "qforcing":
        certify_qforcing_gadget(G, q, shared, lift_limit=4)
    else:
        certify_spreading_gadget(G, p, q, shared, lift_limit=4)
    assert shared.used == base.used + gadget_search.used


@pytest.mark.parametrize("kind", ["qforcing", "spreading"])
def test_gadget_checks_come_before_any_work(monkeypatch, kind):
    """A bad parameter or an oversized gadget is rejected before the
    certifier searches the base graph or the builder allocates."""
    build = build_qforcing_gadget if kind == "qforcing" else build_spreading_gadget

    def certify(G, k, budget):
        if kind == "qforcing":
            return certify_qforcing_gadget(G, k, budget)
        return certify_spreading_gadget(G, k, 1, budget)

    budget = Budget(10)
    with pytest.raises(ValueError, match=">= 2"):
        certify(complete(5), 1, budget)
    assert budget.used == 0
    # The closed-form size is exact: a limit equal to the gadget's larger
    # count admits it, and one less rejects it.
    for G in (path(1), path(4), cycle(5), complete(4), graphs.Graph.from_edges(3, [])):
        for k in (2, 3, 4):
            g = build(G, k)
            with monkeypatch.context() as patch:
                patch.setattr(graphs, "MAX_GRAPH_SIZE", max(g.n, g.edge_count))
                assert build(G, k) == g
                patch.setattr(graphs, "MAX_GRAPH_SIZE", max(g.n, g.edge_count) - 1)
                with pytest.raises(ValueError, match="too large"):
                    build(G, k)
                budget = Budget(1)
                with pytest.raises(ValueError, match="too large"):
                    certify(G, k, budget)
                assert budget.used == 0
