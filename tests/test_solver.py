"""Exact solver: values, witnesses, bounds, budgets, determinism."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnum import (
    INFINITY,
    Budget,
    BudgetExhausted,
    Graph,
    SpreadParams,
    complete,
    cycle,
    enumerate_minimum_sets,
    grid,
    is_spreading_set,
    lower_bound,
    path,
    sigma_exact,
    star,
    verify_trace,
)

from conftest import naive_is_spreading, naive_sigma, random_graph, random_tree

P = SpreadParams


def test_known_values():
    assert sigma_exact(complete(5), P(2, 2)).value == 3
    assert sigma_exact(cycle(6), P(1, 1)).value == 2
    assert sigma_exact(grid(3, 3), P(3, 1)).value == 6


def test_matches_unpruned_brute_force():
    rng = random.Random(2024)
    for _ in range(25):
        g = random_graph(rng.randrange(2, 8), rng.uniform(0.2, 0.8), rng)
        params = P(rng.randrange(1, 4), rng.choice([1, 2, INFINITY]))
        assert sigma_exact(g, params).value == naive_sigma(g, params)


def test_witness_and_trace_are_valid():
    rng = random.Random(77)
    for _ in range(20):
        g = random_graph(rng.randrange(2, 9), rng.uniform(0.2, 0.7), rng)
        params = P(rng.randrange(1, 4), rng.choice([1, 2, 3, INFINITY]))
        res = sigma_exact(g, params)
        assert res.status == "exact"
        assert len(res.witness) == res.value
        assert is_spreading_set(g, params, res.witness)
        assert verify_trace(g, params, res.trace)
        assert res.trace.final == frozenset(range(g.n))


def test_deterministic_witness():
    g = random_graph(9, 0.35, random.Random(5))
    first = sigma_exact(g, P(2, 2))
    for _ in range(3):
        again = sigma_exact(g, P(2, 2))
        assert again.value == first.value
        assert again.witness == first.witness


def test_witness_and_enumeration_are_lexicographically_first():
    rng = random.Random(4321)
    checked = with_low_degree = 0
    while checked < 40:
        g = random_graph(rng.randrange(2, 10), rng.uniform(0.25, 0.75), rng)
        if not g.is_connected:
            continue
        params = P(rng.randrange(1, 4), rng.choice([1, 2, 3, INFINITY]))
        k = naive_sigma(g, params)
        minimum = [
            frozenset(c)
            for c in combinations(range(g.n), k)
            if naive_is_spreading(g, params, c)
        ]
        assert sigma_exact(g, params).witness == minimum[0]
        assert enumerate_minimum_sets(g, params) == sorted(minimum, key=sorted)
        limit = rng.randrange(1, 4)
        assert enumerate_minimum_sets(g, params, limit=limit) == sorted(
            minimum[:limit], key=sorted
        )
        checked += 1
        with_low_degree += min(g.degrees) < params.p
    assert with_low_degree >= 10


def test_every_degree_below_p_forces_full_set():
    g = path(4)  # max degree 2
    res = sigma_exact(g, P(3, 1))
    assert res.value == 4
    assert res.witness == frozenset(range(4))


def test_relaxation_monotonicity_of_sigma():
    rng = random.Random(404)
    for _ in range(15):
        g = random_graph(rng.randrange(2, 8), rng.uniform(0.25, 0.75), rng)
        p = rng.randrange(2, 4)
        q = rng.randrange(1, 3)
        base = sigma_exact(g, P(p, q)).value
        assert base >= sigma_exact(g, P(p, q + 1)).value
        assert base >= sigma_exact(g, P(p - 1, q)).value
        assert base >= sigma_exact(g, P(p, INFINITY)).value


def test_bounded_degree_equivalence():
    rng = random.Random(505)
    for _ in range(10):
        g = random_graph(rng.randrange(2, 8), rng.uniform(0.2, 0.6), rng)
        p = rng.randrange(1, 4)
        q = max(g.max_degree, 1)
        assert sigma_exact(g, P(p, q)).value == sigma_exact(g, P(p, INFINITY)).value


def test_minimum_respects_static_lower_bound():
    rng = random.Random(606)
    for _ in range(15):
        g = random_graph(rng.randrange(2, 9), rng.uniform(0.2, 0.7), rng)
        params = P(rng.randrange(1, 4), rng.choice([1, 2, INFINITY]))
        assert sigma_exact(g, params).value >= lower_bound(g, params)
        assert sigma_exact(g, params).value >= min(params.p, g.n)


def test_disconnected_graphs_sum_components():
    two_paths = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    res = sigma_exact(two_paths, P(1, 1), budget=None)
    assert res.value == 2
    assert is_spreading_set(two_paths, P(1, 1), res.witness)
    with_isolated = Graph.from_edges(4, [(0, 1)])
    assert sigma_exact(with_isolated, P(1, 1)).value == 3


def test_lower_bound_examples():
    assert lower_bound(path(5), P(2, INFINITY)) == 3
    assert lower_bound(complete(4), P(3, 1)) == 3
    assert lower_bound(Graph.from_edges(3, []), P(1, 1)) == 3


def test_lower_bound_tree_term():
    # the edge term ceil(n - E/p) is ceil(((p-1)n + 1)/p) on trees and
    # ceil((mn + m + n)/3) on m x n grids at p = 3
    assert lower_bound(path(11), P(2, 1)) == 6  # two endpoints, bound says 6
    assert lower_bound(cycle(11), P(2, 1)) == 6 == sigma_exact(cycle(11), P(2, 1)).value
    assert lower_bound(grid(5, 5), P(3, 3)) == (5 * 5 + 5 + 5 + 2) // 3 == 12


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    params = P(draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, INFINITY])))
    return Graph.from_edges(n, edges), params


@settings(max_examples=150, deadline=None)
@given(_small_graphs())
def test_lower_bound_never_exceeds_the_unpruned_minimum(case):
    # The search starts at lower_bound and prunes with the same edge
    # potential, so compare both with the brute-force oracle.
    g, params = case
    assert lower_bound(g, params) <= sigma_exact(g, params).value == naive_sigma(g, params)


@settings(max_examples=300, deadline=None)
@given(_small_graphs())
def test_pruned_search_yields_the_unpruned_sequence(case):
    # Both prunes (the edge potential and the completion cutoff) drop only
    # subtrees without a spreading set, so the search must produce exactly
    # the minimum spreading sets that brute force finds, in its order.
    g, params = case
    k = naive_sigma(g, params)
    minimum = [
        frozenset(c)
        for c in combinations(range(g.n), k)
        if naive_is_spreading(g, params, c)
    ]
    assert enumerate_minimum_sets(g, params) == sorted(minimum, key=sorted)
    assert sigma_exact(g, params).witness == minimum[0]
    # A limit keeps the first sets of each component and merges the unions,
    # which must still be the first sets of the whole graph.
    for limit in (1, 2, 3):
        assert enumerate_minimum_sets(g, params, limit=limit) == minimum[:limit]


@settings(max_examples=150, deadline=None)
@given(_small_graphs(), _small_graphs(), st.integers(0, 2))
def test_disjoint_union_searches_each_component_alone(first, second, isolated):
    # Each component is searched alone, renumbered in id order; a search
    # that read or colored a vertex outside its component, or mapped its
    # witness back wrongly, would change a value, a witness or a count.
    # The parts' ids alternate in the union, so their components interleave.
    (a, params), (b, _) = first, second
    b = Graph.from_edges(b.n + isolated, b.edges())
    slots = sorted([(i, 0) for i in range(a.n)] + [(i, 1) for i in range(b.n)])
    ia: dict[int, int] = {}
    ib: dict[int, int] = {}
    for new, (i, part) in enumerate(slots):
        (ia, ib)[part][i] = new
    edges = [(ia[u], ia[v]) for u, v in a.edges()]
    union = Graph.from_edges(a.n + b.n, edges + [(ib[u], ib[v]) for u, v in b.edges()])
    used = [Budget(None) for _ in range(3)]
    ra, rb, ru = (sigma_exact(g, params, u) for g, u in zip((a, b, union), used))
    assert ru.value == ra.value + rb.value
    assert ru.witness == {ia[v] for v in ra.witness} | {ib[v] for v in rb.witness}
    assert used[2].used == used[0].used + used[1].used
    # The minimum sets of the union are the lex-sorted product of the parts',
    # and a limit keeps the first of them.
    sa = [frozenset(ia[v] for v in s) for s in enumerate_minimum_sets(a, params)]
    sb = [frozenset(ib[v] for v in s) for s in enumerate_minimum_sets(b, params)]
    product = sorted((x | y for x in sa for y in sb), key=sorted)
    assert enumerate_minimum_sets(union, params) == product
    for limit in (1, 2, 3):
        assert enumerate_minimum_sets(union, params, limit=limit) == product[:limit]


def test_enumeration_searches_each_component_once():
    # A perfect matching at (1, 1): each pair costs one root and one node
    # per set it yields, so the evaluations grow linearly with the pairs,
    # not with their square as in one search over the whole graph.  At
    # limit 4 the merge also charges its at most 4 x 2 unions per pair.
    g = Graph.from_edges(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
    for limit, evaluations in ((1, 2000), (4, 10_990)):
        used = Budget(None)
        sets = enumerate_minimum_sets(g, P(1, 1), limit=limit, budget=used)
        assert used.used == evaluations and len(sets) == limit
        assert sets[0] == frozenset(range(0, 2000, 2))


def test_enumeration_budget_bounds_the_merged_sets():
    # 30 pairs have 2^30 minimum sets but cost only 90 search evaluations;
    # the merge charges each union before building it, so the budget stops
    # the product at once instead of building it.
    g = Graph.from_edges(60, [(2 * i, 2 * i + 1) for i in range(30)])
    with pytest.raises(BudgetExhausted) as info:
        enumerate_minimum_sets(g, P(1, 1), budget=Budget(10_000))
    assert info.value.evaluations <= 10_000
    assert info.value.lower_bound == 30


def test_many_components_take_linear_time():
    import time

    # 40,000 matched pairs and 40,000 isolated vertices: 60,000 components.
    # Each is searched at its own size in about a second; a search whose
    # every node held state for the whole graph would take half a minute.
    n = 80_000
    g = Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 4)])
    start = time.time()
    res = sigma_exact(g, P(1, 1), Budget(None))
    assert res.value == 60_000
    assert res.witness == frozenset(range(0, n // 2, 2)) | set(range(n // 2, n))
    assert time.time() - start < 10


def test_enumerate_path_endpoints():
    sets = enumerate_minimum_sets(path(3), P(1, 1))
    assert sets == [frozenset({0}), frozenset({2})]


def test_enumerate_triangle_pairs():
    sets = enumerate_minimum_sets(complete(3), P(1, 1))
    assert sets == [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})]


def test_enumerate_star_leaves_unique():
    sets = enumerate_minimum_sets(star(5), P(2, INFINITY))
    assert sets == [frozenset({1, 2, 3, 4})]


def test_enumerate_disconnected_products_of_components():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    sets = enumerate_minimum_sets(g, P(1, 1))
    assert sets == [
        frozenset({0, 3}),
        frozenset({0, 5}),
        frozenset({2, 3}),
        frozenset({2, 5}),
    ]


def test_enumerate_respects_limit_and_validates():
    g = complete(4)
    sets = enumerate_minimum_sets(g, P(1, 1), limit=2)
    assert len(sets) == 2
    for s in sets:
        assert is_spreading_set(g, P(1, 1), s)
    for bad in (0, -1, 2.5, True):  # rejected before any search
        used = Budget(None)
        with pytest.raises(ValueError):
            enumerate_minimum_sets(grid(3, 3), P(1, 1), limit=bad, budget=used)
        assert used.used == 0


def test_budget_exhaustion_raises_with_bounds():
    g = grid(3, 3)
    with pytest.raises(BudgetExhausted) as info:
        sigma_exact(g, P(2, 2), budget=3)
    exc = info.value
    assert exc.evaluations == 3
    assert exc.lower_bound is not None
    assert exc.lower_bound <= sigma_exact(g, P(2, 2)).value


def test_budget_exhaustion_in_later_component_keeps_solved_bounds():
    params = P(2, 1)
    parts = [path(3), grid(3, 3), cycle(6)]
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    g = Graph.from_edges(offset, edges)
    first, second, rest = parts
    used = 0
    for h in (first, second):
        solo = Budget(None)
        sigma_exact(h, params, solo)
        used += solo.used
    # The budget runs out on the second component's last evaluation, which
    # belongs to the level of its optimum, above its static bound.
    assert sigma_exact(second, params).value > lower_bound(second, params)
    assert sigma_exact(rest, params).value > lower_bound(rest, params)
    with pytest.raises(BudgetExhausted) as info:
        sigma_exact(g, params, budget=used - 1)
    exc = info.value
    assert exc.evaluations == used - 1
    assert exc.lower_bound == (
        sigma_exact(first, params).value
        + sigma_exact(second, params).value
        + lower_bound(rest, params)
    )


def test_budget_object_is_shared_across_calls():
    shared = Budget(10_000)
    sigma_exact(path(4), P(1, 1), shared)
    used_after_first = shared.used
    sigma_exact(path(4), P(1, 1), shared)
    assert shared.used > used_after_first


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        Budget(0)


def test_budget_counts_cutoff_scans_on_the_5x5_grid():
    # 194 evaluations: search nodes plus the completion-cutoff scan steps
    # (579 with the edge potential alone).
    used = Budget(None)
    assert sigma_exact(grid(5, 5), P(3, 3), used).value == 12
    assert used.used == 194


def test_default_budget_bounds_unbudgeted_calls():
    from spreadnum.solver import DEFAULT_EVALUATION_BUDGET, _as_budget

    assert _as_budget(None).limit == DEFAULT_EVALUATION_BUDGET
    assert _as_budget(7).limit == 7
    unlimited = Budget(None)
    assert _as_budget(unlimited) is unlimited and unlimited.limit is None


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        sigma_exact(Graph.from_edges(0, []), P(1, 1))


def test_tree_values_on_random_trees_match_brute_force():
    rng = random.Random(808)
    for _ in range(10):
        t = random_tree(rng.randrange(2, 8), rng)
        params = P(rng.randrange(1, 4), rng.choice([1, 2, INFINITY]))
        assert sigma_exact(t, params).value == naive_sigma(t, params)
