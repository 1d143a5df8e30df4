"""Spreading rule engine: closures, traces, sequences, rule invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnum import (
    INFINITY,
    Graph,
    SpreadParams,
    SpreadTrace,
    check_spreading_sequence,
    closure,
    closure_set,
    complete,
    cycle,
    grid,
    is_spreading_set,
    path,
    star,
    verify_trace,
)
from spreadnum.engine import _spread

from conftest import naive_closure, naive_replay, random_graph, random_tree

P = SpreadParams


def _corpus(seed=11, count=40):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            graphs.append(random_graph(rng.randrange(2, 11), rng.uniform(0.15, 0.7), rng))
        elif kind == 1:
            graphs.append(random_tree(rng.randrange(2, 12), rng))
        else:
            graphs.append(grid(rng.randrange(2, 5), rng.randrange(2, 5)))
    return graphs, rng


def _random_params(rng):
    return P(rng.randrange(1, 4), rng.choice([1, 2, 3, INFINITY]))


def test_params_validation():
    with pytest.raises(ValueError):
        P(0, 1)
    with pytest.raises(ValueError):
        P(1, 0)
    with pytest.raises(ValueError):
        P(1, 2.5)
    with pytest.raises(ValueError):
        P(1, float("nan"))
    assert P(1, INFINITY).q_is_infinite
    assert P(1, float("inf")).q_is_infinite  # any infinite float is accepted
    assert P(2, 3).effective_q(10) == 3
    assert P(2, INFINITY).effective_q(10) == 10


def test_single_blue_vertex_stuck_on_square():
    final, trace = closure(cycle(4), P(1, 1), {0})
    assert final == frozenset({0})
    assert trace.steps == ()


def test_hub_counterexample_single_seed_spreads(hub_counterexample):
    final, trace = closure(hub_counterexample, P(1, 2), {9})
    assert final == frozenset(range(10))
    # canonical fixture: lowest eligible white forced first, lowest usable forcer
    assert trace.steps == (
        (9, 3), (3, 7), (9, 8), (8, 1), (1, 6), (6, 0), (6, 2), (7, 4), (7, 5),
    )


def test_alternating_path_percolates():
    final, _ = closure(path(5), P(2, INFINITY), {0, 2, 4})
    assert final == frozenset(range(5))


def test_empty_seed_closure_is_empty():
    final, trace = closure(path(4), P(1, 1), set())
    assert final == frozenset()
    assert trace.initial == frozenset()


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError):
        closure(path(3), P(1, 1), {5})
    for bad in (True, 1.0):  # ids are exactly int, never bool or float
        with pytest.raises(ValueError, match="seed vertex"):
            closure(path(3), P(1, 1), [bad])
        assert not check_spreading_sequence(path(3), P(1, 1), {0}, [bad, 2])


def test_is_spreading_set_examples():
    K5 = complete(5)
    for combo in [(0, 1, 2), (1, 3, 4), (0, 2, 4)]:
        assert is_spreading_set(K5, P(2, 2), combo)
    # center plus the four corners of the 3x3 grid
    assert is_spreading_set(grid(3, 3), P(3, 3), {0, 2, 4, 6, 8})
    assert not is_spreading_set(grid(3, 3), P(3, 1), {0, 2, 4, 6, 8})
    g = random_graph(7, 0.4, random.Random(3))
    assert is_spreading_set(g, P(3, 2), range(7))  # everything blue already


def test_closure_set_matches_closure():
    graphs, rng = _corpus(seed=5, count=20)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.4}
        final, trace = closure(g, params, seeds)
        assert closure_set(g, params, seeds) == final
        assert final == trace.final == trace.initial | set(trace.forced)


def test_engine_agrees_with_naive_oracle():
    graphs, rng = _corpus(seed=23, count=40)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        expected = naive_closure(g, params, seeds)
        assert closure_set(g, params, seeds) == expected


def test_canonical_trace_matches_reference_rescan():
    from conftest import naive_canonical_trace

    graphs, rng = _corpus(seed=29, count=40)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        final, trace = closure(g, params, seeds)
        ref_steps, ref_final = naive_canonical_trace(g, params, seeds)
        assert trace.steps == ref_steps
        assert final == ref_final


def test_order_independence_random_orders():
    graphs, rng = _corpus(seed=31, count=15)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        reference = closure_set(g, params, seeds)
        for _ in range(20):
            assert naive_closure(g, params, seeds, rng) == reference


def test_idempotence():
    graphs, rng = _corpus(seed=47, count=25)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        once = closure_set(g, params, seeds)
        assert closure_set(g, params, once) == once


def test_low_degree_vertices_never_forced():
    graphs, rng = _corpus(seed=59, count=25)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        final = closure_set(g, params, seeds)
        for v in range(g.n):
            if g.degree(v) < params.p and v not in seeds:
                assert v not in final


def test_relaxing_either_parameter_grows_closure():
    graphs, rng = _corpus(seed=61, count=25)
    for g in graphs:
        p = rng.randrange(2, 4)
        q = rng.randrange(1, 4)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        base = closure_set(g, P(p, q), seeds)
        assert base <= closure_set(g, P(p, q + 1), seeds)
        assert base <= closure_set(g, P(p - 1, q), seeds)
        assert base <= closure_set(g, P(p, INFINITY), seeds)


def test_large_q_equivalent_to_unbounded():
    graphs, rng = _corpus(seed=71, count=25)
    for g in graphs:
        p = rng.randrange(1, 4)
        q = g.max_degree  # already unconstrained at this point
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        if q >= 1:
            assert closure_set(g, P(p, q), seeds) == closure_set(g, P(p, INFINITY), seeds)


def test_every_spreading_set_has_a_starter():
    # unless already complete, some member must keep at most q outside neighbors
    graphs, rng = _corpus(seed=83, count=30)
    for g in graphs:
        params = _random_params(rng)
        qe = params.effective_q(g.n)
        seeds = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        if seeds != frozenset(range(g.n)) and is_spreading_set(g, params, seeds):
            assert any(
                sum(u not in seeds for u in g.adj[v]) <= qe for v in seeds
            )


def test_eligibility_is_monotone_along_trace():
    graphs, rng = _corpus(seed=97, count=12)
    for g in graphs:
        params = _random_params(rng)
        qe = params.effective_q(g.n)
        seeds = {v for v in range(g.n) if rng.random() < 0.3}
        _, trace = closure(g, params, seeds)
        blue = set(trace.initial)
        eligible_before: set[int] = set()

        def eligible(blue):
            return {
                w
                for w in range(g.n)
                if w not in blue
                and sum(u in blue for u in g.adj[w]) >= params.p
                and any(
                    u in blue and sum(x not in blue for x in g.adj[u]) <= qe
                    for u in g.adj[w]
                )
            }

        for _, forced in trace.steps:
            now = eligible(blue)
            assert eligible_before - blue <= now  # once eligible, stays eligible
            assert forced in now
            blue.add(forced)
            eligible_before |= now


def test_traces_replay(hub_counterexample):
    graphs, rng = _corpus(seed=101, count=20)
    graphs.append(hub_counterexample)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        _, trace = closure(g, params, seeds)
        assert verify_trace(g, params, trace)


def test_verify_trace_rejects_bad_step():
    g = path(3)
    bad = SpreadTrace(
        initial=frozenset({0}), steps=((0, 2),), final=frozenset({0, 2})
    )
    assert not verify_trace(g, P(1, 1), bad)  # 0 is not adjacent to 2
    unnamed = SpreadTrace(
        initial=frozenset({0}), steps=((None, 1),), final=frozenset({0, 1})
    )
    assert not verify_trace(g, P(1, 1), unnamed)  # a trace names every forcer
    named_by_bool = SpreadTrace(
        initial=frozenset({0}), steps=((False, 1),), final=frozenset({0, 1})
    )
    assert not verify_trace(g, P(1, 1), named_by_bool)  # ids are exactly int
    # The middle vertex has two white neighbors when it forces the first.
    both = SpreadTrace(
        initial=frozenset({1}), steps=((1, 0), (1, 2)), final=frozenset({0, 1, 2})
    )
    assert not verify_trace(g, P(1, 1), both)
    assert verify_trace(g, P(1, 2), both)


def test_trace_json_round_trip():
    g = path(5)
    _, trace = closure(g, P(1, 2), {2})
    assert trace.to_json() == {
        "initial": [2],
        "steps": [[2, 1], [1, 0], [2, 3], [3, 4]],
        "final": [0, 1, 2, 3, 4],
    }


def test_check_sequences_on_chained_tight_tree(chained_tight_tree):
    params = P(3, INFINITY)
    seeds = frozenset(range(8))
    good = [(8, 9, 10), (8, 10, 9), (10, 8, 9)]
    bad = [(9, 8, 10), (9, 10, 8), (10, 9, 8)]
    for seq in good:
        assert check_spreading_sequence(chained_tight_tree, params, seeds, seq)
    for seq in bad:
        assert not check_spreading_sequence(chained_tight_tree, params, seeds, seq)


def test_check_sequence_empty_when_everything_seeded():
    g = star(4)
    assert check_spreading_sequence(g, P(2, 1), range(4), [])


def test_check_sequence_rejects_non_permutation():
    g = path(4)
    with pytest.raises(ValueError):
        check_spreading_sequence(g, P(1, 1), {0}, [1, 2])
    with pytest.raises(ValueError):
        check_spreading_sequence(g, P(1, 1), {0}, [1, 1, 2, 3])


def test_spreading_never_crosses_components():
    from spreadnum import Graph

    g = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)])  # vertex 6 isolated
    final = closure_set(g, P(1, 2), {0})
    assert final == frozenset({0, 1, 2})
    final = closure_set(g, P(1, 2), {0, 3})
    assert final == frozenset({0, 1, 2, 3, 4, 5})
    assert closure_set(g, P(1, 2), {6}) == frozenset({6})


def test_closure_is_deterministic():
    graphs, rng = _corpus(seed=113, count=10)
    for g in graphs:
        params = _random_params(rng)
        seeds = {v for v in range(g.n) if rng.random() < 0.35}
        first = closure(g, params, seeds)
        for _ in range(3):
            assert closure(g, params, seeds) == first


@st.composite
def _resume_cases(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    params = P(draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, INFINITY])))
    seeds = draw(st.lists(st.integers(0, n - 1), unique=True))
    v = draw(st.integers(0, n - 1))
    return Graph.from_edges(n, edges), params, seeds, v, draw(st.randoms())


@settings(max_examples=300, deadline=None)
@given(_resume_cases())
def test_resume_from_closure_matches_fresh_closure(case):
    g, params, seeds, v, rng = case
    adj, deg, p, qe = g.adj, g.degrees, params.p, params.effective_q(g.n)

    def counts(blue):
        return [sum(blue[u] for u in adj[w]) for w in range(g.n)]

    def close(S):
        blue = bytearray(g.n)
        _spread(adj, deg, p, qe, blue, [0] * g.n, S)
        return blue

    expected = close(seeds + [v])
    # Two routes to cl(S): one fresh closure, and single-seed resumes from
    # the all-white state in a random order.
    start = close(seeds)
    chained, chained_bc = bytearray(g.n), [0] * g.n
    for s in rng.sample(seeds, len(seeds)):
        if not chained[s]:
            _spread(adj, deg, p, qe, chained, chained_bc, (s,))
    assert chained == start and chained_bc == counts(start)
    if start[v]:
        # Adding a vertex the closure already colors changes nothing; the
        # subset search relies on this to skip such vertices.
        assert expected == start
        return
    for blue, bc in ((start, counts(start)), (chained, chained_bc)):
        _spread(adj, deg, p, qe, blue, bc, (v,))
        assert blue == expected
        assert bc == counts(expected)
    final = frozenset(w for w in range(g.n) if expected[w])
    assert final == naive_closure(g, params, seeds + [v], rng)


@settings(max_examples=300, deadline=None)
@given(_resume_cases())
def test_resume_gains_track_the_edge_potential(case):
    # The subset search prunes on h = p*|white| - |edges with a white end|,
    # kept as the sum of resume gains; a seed may lower it by at most p.
    g, params, seeds, v, rng = case
    adj, deg, p, qe = g.adj, g.degrees, params.p, params.effective_q(g.n)
    blue, bc = bytearray(g.n), [0] * g.n
    h = p * g.n - g.edge_count
    for s in rng.sample(seeds + [v], len(seeds) + 1):
        if blue[s]:
            continue
        gain = _spread(adj, deg, p, qe, blue, bc, (s,))
        assert gain >= -p
        h += gain
        blue_bc = sum(blue[u] for w in range(g.n) if blue[w] for u in adj[w])
        assert h == p * blue.count(0) - g.edge_count + blue_bc // 2


@settings(max_examples=150, deadline=None)
@given(_resume_cases())
def test_kernel_adds_several_seeds_at_once(case):
    # One call with a batch of seeds on a non-empty fixpoint: repeats and
    # vertices already blue are ignored, and the gain is still the change
    # in the edge potential.
    g, params, seeds, v, rng = case
    adj, deg, p, qe = g.adj, g.degrees, params.p, params.effective_q(g.n)
    blue, bc = bytearray(g.n), [0] * g.n
    _spread(adj, deg, p, qe, blue, bc, seeds + [v])
    batch = rng.choices(range(g.n), k=rng.randrange(1, 2 * g.n + 1)) + [v, v]
    new_seeds = {s for s in batch if not blue[s]}

    def potential():
        blue_bc = sum(blue[u] for w in range(g.n) if blue[w] for u in adj[w])
        return p * blue.count(0) - g.edge_count + blue_bc // 2

    h = potential()
    gain = _spread(adj, deg, p, qe, blue, bc, batch)
    assert gain >= -p * len(new_seeds)
    assert h + gain == potential()
    expected = naive_closure(g, params, seeds + [v] + batch, rng)
    assert blue == bytearray(w in expected for w in range(g.n))
    assert bc == [sum(blue[u] for u in adj[w]) for w in range(g.n)]


_TAMPERS = (
    "none",
    "swap",
    "non_neighbor_forcer",
    "other_neighbor_forcer",
    "drop",
    "out_of_range",
    "seed_in_sequence",
)


@st.composite
def _replay_cases(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    params = P(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, INFINITY])))
    seeds = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1))
    _, trace = closure(g, params, seeds)
    initial, steps, final = set(trace.initial), list(trace.steps), set(trace.final)
    tamper = draw(st.sampled_from(_TAMPERS))
    if tamper == "swap" and len(steps) >= 2:
        index = st.integers(0, len(steps) - 1)
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        steps[i], steps[j] = steps[j], steps[i]
    elif tamper == "non_neighbor_forcer" and steps:
        i = draw(st.integers(0, len(steps) - 1))
        w = steps[i][1]
        others = [u for u in range(n) if u != w and u not in g.adj[w]]
        if others:
            steps[i] = (draw(st.sampled_from(others)), w)
    elif tamper == "other_neighbor_forcer" and steps:
        i = draw(st.integers(0, len(steps) - 1))
        forcer, w = steps[i]
        # A blue neighbor can only be wrong by having too many white ones.
        blue = initial.union(x for _, x in steps[:i])
        others = [u for u in g.adj[w] if u != forcer and u in blue]
        if others:
            steps[i] = (draw(st.sampled_from(others)), w)
    elif tamper == "drop" and steps:
        del steps[draw(st.integers(0, len(steps) - 1))]
    elif tamper == "out_of_range":
        bad = draw(st.sampled_from([-1, -n, n, n + 3]))
        where = draw(st.sampled_from(["initial", "forcer", "forced", "final"]))
        if where == "initial":
            initial.add(bad)
        elif where == "final":
            final.add(bad)
        elif steps:
            i = draw(st.integers(0, len(steps) - 1))
            forcer, w = steps[i]
            steps[i] = (bad, w) if where == "forcer" else (forcer, bad)
    elif tamper == "seed_in_sequence":
        s = draw(st.sampled_from(sorted(initial)))
        forcer = draw(st.sampled_from(g.adj[s] or (s,)))
        steps.insert(draw(st.integers(0, len(steps))), (forcer, s))
    # Steps that run past a stalled closure give a permutation that fails
    # the rule rather than the permutation check.
    if draw(st.booleans()):
        for w in draw(st.permutations(sorted(set(range(n)) - final))):
            steps.append((draw(st.integers(0, n - 1)), w))
            final.add(w)
    return g, params, SpreadTrace(frozenset(initial), tuple(steps), frozenset(final))


@settings(max_examples=400, deadline=None)
@given(_replay_cases())
def test_trace_and_sequence_checks_match_naive_replay(case):
    g, params, trace = case
    expected = naive_replay(g, params, trace.initial, trace.steps)
    assert verify_trace(g, params, trace) == (expected == trace.final)
    seq = trace.forced
    rest = set(range(g.n)) - set(trace.initial)
    if not set(trace.initial) <= set(range(g.n)) or sorted(seq) != sorted(rest):
        with pytest.raises(ValueError):
            check_spreading_sequence(g, params, trace.initial, seq)
        return
    bare = naive_replay(g, params, trace.initial, [(None, w) for w in seq])
    assert check_spreading_sequence(g, params, trace.initial, seq) == (bare is not None)
