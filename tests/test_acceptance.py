"""Acceptance suite: one test per shipping criterion, exact tolerances.

Each test prints a single ``criterion N [...]: PASS/FAIL`` line.  All
comparisons are exact integer/set equality (tolerance zero).  Every
spreading set produced while running the suite is also pushed through the
starter check (some member must keep at most q outside neighbors), which
criterion 9 reports in aggregate.
"""

from __future__ import annotations

import random
import time

from spreadnum import (
    INFINITY,
    FamilySpec,
    Graph,
    SpreadParams,
    closure,
    closure_set,
    complete,
    complete_bipartite,
    cycle,
    grid,
    grid_cell_id,
    grid_id_cell,
    grid_sigma,
    grid_witness,
    blue_perimeter,
    is_spreading_set,
    path,
    probe_grid_conjecture,
    search_property_pnp,
    sigma_closed_form,
    sigma_exact,
    sigma_tree,
    star,
    subtree_partition,
    tight_tree,
    tree_lower_bound,
    tree_upper_bound,
    certify_qforcing_gadget,
    certify_spreading_gadget,
)

from conftest import connected_graphs, naive_closure, random_graph, random_tree

P = SpreadParams
ALL_Q = (1, 2, 3, INFINITY)

_STARTER_CHECKS = [0]  # spreading sets validated against the starter lemma


def _assert_starter(G: Graph, params: SpreadParams, S) -> None:
    """Any spreading set other than everything contains a usable starter."""
    S = frozenset(S)
    qe = params.effective_q(G.n)
    if S != frozenset(range(G.n)):
        assert any(sum(u not in S for u in G.adj[v]) <= qe for v in S), (
            "spreading set with no startable member"
        )
    _STARTER_CHECKS[0] += 1


def _report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{name}]: {verdict} ({detail}, {time.time() - started:.1f}s)")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_1_closed_form_agreement():
    started = time.time()
    specs: list[tuple[FamilySpec, Graph]] = []
    for n in range(3, 10):
        specs.append((FamilySpec("path", (n,)), path(n)))
        specs.append((FamilySpec("cycle", (n,)), cycle(n)))
    for n in range(2, 8):
        specs.append((FamilySpec("complete", (n,)), complete(n)))
    for n in range(2, 9):
        specs.append((FamilySpec("star", (n,)), star(n)))
    for r in range(1, 8):
        for s in range(1, r + 1):
            if r + s <= 8:
                specs.append(
                    (FamilySpec("complete_bipartite", (r, s)), complete_bipartite(r, s))
                )
    checked = 0
    for spec, g in specs:
        for p in range(1, 6):
            for q in ALL_Q:
                res = sigma_closed_form(spec, P(p, q))
                assert res.status == "formula", (spec, p, q)
                exact = sigma_exact(g, P(p, q))
                assert exact.value == res.value, (spec, p, q, res.value, exact.value)
                _assert_starter(g, P(p, q), exact.witness)
                checked += 1
    _report(1, "closed-form agreement", True, f"{checked} covered combos exact", started)


def test_criterion_2_tree_partition_identity():
    started = time.time()
    rng = random.Random(20_02)
    checked = 0
    for _ in range(100):
        t = random_tree(rng.randrange(2, 13), rng)
        for q in (1, 2, 3):
            res = sigma_exact(t, P(1, q))
            assert len(subtree_partition(t, q)) == res.value, (t, q)
            _assert_starter(t, P(1, q), res.witness)
            checked += 1
    _report(2, "tree partition identity", True, f"{checked} (tree, q) pairs", started)


def test_criterion_3_tree_q_reduction():
    started = time.time()
    rng = random.Random(30_03)
    checked = 0
    for _ in range(100):
        t = random_tree(rng.randrange(2, 13), rng)
        for p in (2, 3):
            base = sigma_exact(t, P(p, 1)).value
            for q in (1, 2, INFINITY):
                res = sigma_exact(t, P(p, q))
                assert res.value == base, (t, p, q)
                _assert_starter(t, P(p, q), res.witness)
                checked += 1
    _report(3, "tree white-budget reduction", True, f"{checked} combos equal", started)


def test_criterion_4_tree_bounds_and_characterization():
    started = time.time()
    rng = random.Random(40_04)
    checked = 0
    for _ in range(200):
        n = rng.randrange(5, 13)
        t = random_tree(n, rng)
        for p in (2, 3):
            res = sigma_tree(t, P(p, 1))
            value = res.value
            _assert_starter(t, P(p, 1), res.witness)
            upper = tree_upper_bound(t, p, 1)
            assert tree_lower_bound(n, p) <= value <= upper.bound
            assert upper.attained == (value == upper.bound), (t, p)
            certificate = search_property_pnp(t, p)
            assert (certificate is not None) == (value == tree_lower_bound(n, p))
            exact = sigma_exact(t, P(p, INFINITY)).value
            assert (certificate is not None) == (exact == tree_lower_bound(n, p))
            if certificate is not None:
                assert certificate.holds
                spread = naive_closure(t, P(p, INFINITY), certificate.seed_set)
                assert spread == frozenset(range(n))
            checked += 1
    # the two 11-vertex reference trees certify at exactly the bound
    generated = tight_tree(11, 3)
    chained = Graph.from_edges(
        11,
        [(0, 8), (1, 8), (2, 8), (8, 9), (3, 9), (4, 9), (4, 10), (5, 10), (6, 10), (6, 7)],
    )
    for t in (generated, chained):
        assert sigma_tree(t, P(3, 1)).value == 8 == tree_lower_bound(11, 3)
        assert search_property_pnp(t, 3) is not None
    _report(4, "tree bounds + characterization", True, f"{checked} tree cases", started)


def test_criterion_5_grid_values():
    started = time.time()
    checked = 0
    for m, n in [(3, 3), (3, 4), (4, 4)]:
        g = grid(m, n)
        for p in (1, 2, 4, 5):
            for q in (1, 2, 3, 4, INFINITY):
                res = grid_sigma(p, q, m, n)
                if res.status != "formula":
                    continue
                exact = sigma_exact(g, P(p, q))
                assert exact.value == res.value, (m, n, p, q)
                _assert_starter(g, P(p, q), exact.witness)
                checked += 1
    small = grid(3, 3)
    v = {q: sigma_exact(small, P(3, q)).value for q in (1, 2, 3, 4)}
    assert v[3] == 5 and v[1] == 6
    assert v[1] > v[2] == v[3] == v[4]
    probes = []
    for m, n in [(3, 3), (3, 4), (4, 4), (5, 5), (6, 5), (6, 6)]:
        probe = probe_grid_conjecture(m, n)
        assert probe.equal is True, (m, n, probe)
        probes.append(f"{m}x{n}:{probe.sigma_33}")
    assert probes[-3:] == ["5x5:12", "6x5:15", "6x6:18"]
    _report(
        5,
        "grid values",
        True,
        f"{checked} formula cells exact; equal-budget probes {', '.join(probes)}",
        started,
    )


def test_criterion_6_grid_witnesses_at_scale():
    started = time.time()
    checked = 0
    for n in range(3, 51):
        for m in range(n, 51):
            g = grid(m, n)
            for p, q in [(1, 1), (2, 1), (2, 2), (4, 1)]:
                sig = grid_sigma(p, q, m, n)
                cells = grid_witness(p, q, m, n)
                assert len(cells) == sig.value, (m, n, p, q)
                ids = [grid_cell_id(c, r, m, n) for c, r in cells]
                assert is_spreading_set(g, P(p, q), ids), (m, n, p, q)
                _assert_starter(g, P(p, q), ids)
                checked += 1
    _report(6, "grid witnesses at scale", True, f"{checked} witnesses validated", started)


def test_criterion_7_perimeter_monotone():
    started = time.time()
    rng = random.Random(70_07)
    runs = 0
    full_boards = 0
    while runs < 50:
        m, n = rng.randrange(3, 13), rng.randrange(3, 13)
        g = grid(m, n)
        q = rng.choice([1, 2, 3, INFINITY])
        if runs % 3 == 0 and (q != 1 or min(m, n) >= 3):
            # start from a known witness so the board actually fills up
            seeds = {grid_cell_id(c, r, m, n) for c, r in grid_witness(2, q, m, n)}
        else:
            seeds = {v for v in range(g.n) if rng.random() < 0.4}
        _, trace = closure(g, P(2, q), seeds)
        cells = {grid_id_cell(v, m, n) for v in trace.initial}
        per = blue_perimeter(m, n, cells)
        for _, forced in trace.steps:
            cells.add(grid_id_cell(forced, m, n))
            nxt = blue_perimeter(m, n, cells)
            assert nxt <= per, (m, n, q)
            per = nxt
        if len(trace.final) == g.n:
            assert per == 2 * (m + n)
            full_boards += 1
        runs += 1
    assert full_boards >= 10  # the property on full boards was truly exercised
    _report(
        7,
        "perimeter monotonicity",
        True,
        f"50 closures, {full_boards} reached the full board",
        started,
    )


def test_criterion_8_gadget_equalities():
    started = time.time()
    qf = 0
    for g in [h for n in range(1, 5) for h in connected_graphs(n)]:
        cert = certify_qforcing_gadget(g, 2)
        assert cert.equal and cert.lifts_valid, g
        qf += 1
    for g in [h for n in range(1, 4) for h in connected_graphs(n)]:
        cert = certify_qforcing_gadget(g, 3)
        assert cert.equal and cert.lifts_valid, g
        qf += 1
    sp = 0
    for g in [h for n in range(1, 6) for h in connected_graphs(n)]:
        for p, q in [(2, 1), (2, 2), (3, 2)]:
            cert = certify_spreading_gadget(g, p, q)
            assert cert.equal and cert.lifts_valid, (g, p, q)
            sp += 1
    _report(
        8,
        "gadget equalities",
        True,
        f"{qf} forcing-gadget + {sp} spreading-gadget certificates",
        started,
    )


def test_criterion_9_engine_properties():
    started = time.time()
    rng = random.Random(90_09)
    instances = []
    for _ in range(100):
        kind = rng.randrange(3)
        if kind == 0:
            instances.append(random_graph(rng.randrange(2, 11), rng.uniform(0.15, 0.7), rng))
        elif kind == 1:
            instances.append(random_tree(rng.randrange(2, 12), rng))
        else:
            instances.append(grid(rng.randrange(2, 5), rng.randrange(2, 5)))
    for g in instances:
        p = rng.randrange(1, 4)
        q = rng.choice([1, 2, 3, INFINITY])
        params = P(p, q)
        seeds = frozenset(v for v in range(g.n) if rng.random() < 0.35)
        reference = closure_set(g, params, seeds)
        # order independence: 20 uniformly random one-at-a-time orders
        for _ in range(20):
            assert naive_closure(g, params, seeds, rng) == reference
        # idempotence
        assert closure_set(g, params, reference) == reference
        # degree-starved vertices outside the seed never turn blue
        for v in range(g.n):
            if g.degree(v) < p and v not in seeds:
                assert v not in reference
        # relaxing q or p only grows the closure
        assert reference <= closure_set(g, P(p, q + 1 if q is not INFINITY else q), seeds)
        if p > 1:
            assert reference <= closure_set(g, P(p - 1, q), seeds)
        # a white budget at the maximum degree is no constraint at all
        if g.max_degree >= 1:
            assert closure_set(g, P(p, g.max_degree), seeds) == closure_set(
                g, P(p, INFINITY), seeds
            )
    # value-level assertions on a smaller sub-corpus
    for g in instances[:30]:
        p = rng.randrange(1, 4)
        q = rng.choice([1, 2])
        res = sigma_exact(g, P(p, q))
        assert res.value >= min(p, g.n)
        if g.max_degree < p:
            assert res.value == g.n
        assert res.value >= sigma_exact(g, P(p, q + 1)).value
        if p > 1:
            assert res.value >= sigma_exact(g, P(p - 1, q)).value
        if g.max_degree <= q:
            assert res.value == sigma_exact(g, P(p, INFINITY)).value
        _assert_starter(g, P(p, q), res.witness)
    _report(
        9,
        "engine properties",
        True,
        f"100 instances x 20 orders; starter lemma on {_STARTER_CHECKS[0]} spreading sets",
        started,
    )
