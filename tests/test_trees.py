"""Tree partition, spreading values, bounds, and tightness certificates."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnum import (
    INFINITY,
    Graph,
    Partition,
    SpreadParams,
    check_property_pnp,
    closure,
    cycle,
    is_spreading_set,
    partition_is_valid,
    path,
    search_property_pnp,
    sigma_exact,
    sigma_tree,
    star,
    subtree_partition,
    tight_tree,
    tree_lower_bound,
    tree_upper_bound,
    verify_trace,
)
from spreadnum.trees import _rooted

from conftest import naive_is_spreading, naive_pnp_report, naive_sigma, random_tree

P = SpreadParams


def _spider(legs: int, leg_len: int) -> Graph:
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


# ---------------------------------------------------------------------------
# rooted layering


def test_rooted_tree_layering():
    order, parent = _rooted(star(5))
    assert order[0] == 0  # lowest-id non-leaf
    assert parent == [-1, 0, 0, 0, 0]

    rng = random.Random(41)
    for _ in range(10):
        t = random_tree(rng.randrange(2, 14), rng)
        order, parent = _rooted(t)
        root = order[0]
        assert root == min((v for v in range(t.n) if t.degree(v) >= 2), default=0)
        assert parent[root] == -1
        assert sorted(order) == list(range(t.n))
        position = {v: i for i, v in enumerate(order)}
        for v in order[1:]:
            assert parent[v] in t.adj[v]
            assert position[parent[v]] < position[v]


def test_rooted_tree_rejects_bad_input():
    with pytest.raises(ValueError):
        _rooted(cycle(4))


# ---------------------------------------------------------------------------
# subtree_partition


def test_partition_path_single_part():
    parts = subtree_partition(path(5), 1)
    assert len(parts) == 1
    assert parts.parts[0] == frozenset(range(5))


def test_partition_star_splits_excess_leaves():
    parts = subtree_partition(star(5), 1)
    assert len(parts) == 3  # center degree 4, budget 2 per part


def test_partition_single_vertex():
    assert len(subtree_partition(path(1), 3)) == 1


def test_partition_rejects_non_tree():
    with pytest.raises(ValueError):
        subtree_partition(cycle(4), 1)
    with pytest.raises(ValueError):
        subtree_partition(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
    with pytest.raises(ValueError):
        subtree_partition(path(4), 0)


def test_partition_legality_random():
    rng = random.Random(99)
    for _ in range(40):
        t = random_tree(rng.randrange(1, 16), rng)
        q = rng.randrange(1, 4)
        parts = subtree_partition(t, q)
        assert partition_is_valid(t, q, parts)
        # Seeding any one leaf of each part spreads the tree at (1, q).
        leaves = [[v for v in part if sum(u in part for u in t.adj[v]) <= 1] for part in parts]
        for seeds in itertools.product(*leaves):
            assert naive_is_spreading(t, P(1, q), seeds)


def test_partition_is_valid_rejects_broken_partitions():
    def parts(*sets):
        return Partition(tuple(frozenset(s) for s in sets))

    assert partition_is_valid(path(5), 1, parts({0, 1, 2}, {3, 4}))
    assert not partition_is_valid(path(5), 1, parts(range(5), ()))  # empty part
    assert not partition_is_valid(path(5), 1, parts({0, 1, 2}, {2, 3, 4}))  # overlap
    assert not partition_is_valid(path(5), 1, parts({0, 1, 2}, {3}))  # 4 uncovered
    assert not partition_is_valid(path(5), 1, parts(range(5), {7}))  # unknown vertex
    assert not partition_is_valid(path(5), 1, parts({0, 2}, {1}, {3, 4}))  # disconnected
    assert not partition_is_valid(star(4), 1, parts(range(4)))  # center degree 3 > 2
    assert partition_is_valid(star(4), 2, parts(range(4)))
    # Vertex ids are exactly int: True is not vertex 1, and 1.0 is no id.
    assert not partition_is_valid(path(5), 1, parts({0, True, 2}, {3, 4}))
    assert not partition_is_valid(path(5), 1, parts({0, 1.0, 2}, {3, 4}))


def test_partition_is_valid_rejects_non_tree():
    # the edge-count connectivity test only holds on trees
    with pytest.raises(ValueError):
        partition_is_valid(cycle(4), 3, Partition((frozenset(range(4)),)))
    with pytest.raises(ValueError):
        partition_is_valid(
            Graph.from_edges(4, [(0, 1), (2, 3)]),
            1,
            Partition((frozenset({0, 1}), frozenset({2, 3}))),
        )


def test_partition_count_matches_exact_forcing():
    rng = random.Random(7)
    for _ in range(30):
        t = random_tree(rng.randrange(2, 13), rng)
        for q in (1, 2, 3):
            assert len(subtree_partition(t, q)) == sigma_exact(t, P(1, q)).value


def test_high_degree_root_count():
    # star-like: forcing number is the degree excess over the budget
    for n in (5, 7, 9):
        for q in (1, 2):
            assert len(subtree_partition(star(n), q)) == max((n - 1) - q, 1)


def _broom(handle: int, bristles: int) -> Graph:
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle - 1 + j) for j in range(1, bristles + 1)]
    return Graph.from_edges(handle + bristles, edges)


def _double_broom(handle: int, left: int, right: int) -> Graph:
    edges = [(i, i + 1) for i in range(handle - 1)]
    nxt = handle
    for _ in range(left):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(right):
        edges.append((handle - 1, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges)


def _complete_kary(k: int, depth: int) -> Graph:
    edges = []
    frontier = [0]
    nxt = 1
    for _ in range(depth):
        new_frontier = []
        for v in frontier:
            for _ in range(k):
                edges.append((v, nxt))
                new_frontier.append(nxt)
                nxt += 1
        frontier = new_frontier
    return Graph.from_edges(nxt, edges)


def test_partition_structured_families_vs_solver():
    # high-degree vertices at several depths, the hard shapes for the
    # bottom-up pass
    shapes = [
        _broom(4, 5),
        _broom(2, 6),
        _double_broom(3, 4, 4),
        _double_broom(4, 3, 5),
        _complete_kary(3, 2),
        _complete_kary(2, 3),
        _spider(4, 2),
        _spider(5, 2),
    ]
    for t in shapes:
        assert t.is_tree
        for q in (1, 2, 3):
            parts = subtree_partition(t, q)
            assert partition_is_valid(t, q, parts)
            assert len(parts) == sigma_exact(t, P(1, q)).value, (t, q)


def test_sigma_tree_structured_families_vs_solver():
    for t in [_broom(4, 4), _double_broom(3, 3, 3), _complete_kary(2, 3), _spider(3, 3)]:
        for p in (2, 3):
            for q in (1, 2, INFINITY):
                assert sigma_tree(t, P(p, q)).value == sigma_exact(t, P(p, q)).value


def test_partition_scales_linearly():
    import time

    rng = random.Random(57)
    t = random_tree(3000, rng)
    start = time.time()
    for q in (1, 2):
        parts = subtree_partition(t, q)
        assert partition_is_valid(t, q, parts)
        # one leaf per part spreads the whole tree, so the count is an
        # upper bound actually achieved by a forcing process
        res = sigma_tree(t, P(1, q))
        assert res.value == len(parts)
    assert time.time() - start < 10


def test_non_tree_graph_beats_partition_bound(hub_counterexample):
    # on general graphs one seed can outperform any bounded-degree partition
    assert sigma_exact(hub_counterexample, P(1, 2)).value == 1
    assert hub_counterexample.max_degree > 3  # so a one-part partition is impossible


# ---------------------------------------------------------------------------
# sigma_tree


def test_sigma_tree_examples():
    assert sigma_tree(star(11), P(2, 7)).value == 10
    assert sigma_tree(tight_tree(11, 3), P(3, 1)).value == 8
    assert sigma_tree(path(7), P(2, 1)).value == 4


def test_sigma_tree_single_vertex_unbounded_budget():
    assert sigma_tree(path(1), P(1, INFINITY)).value == 1
    assert sigma_tree(path(6), P(1, INFINITY)).value == 1


def test_sigma_tree_matches_solver_for_forcing():
    rng = random.Random(13)
    for _ in range(25):
        t = random_tree(rng.randrange(2, 13), rng)
        q = rng.choice([1, 2, 3, INFINITY])
        res = sigma_tree(t, P(1, q))
        assert res.value == sigma_exact(t, P(1, q)).value
        assert is_spreading_set(t, P(1, q), res.witness)
        assert verify_trace(t, P(1, q), res.trace)
        if q != INFINITY:
            # exactly one seed per part, and it is a leaf of its part
            for part in subtree_partition(t, q):
                (v,) = part & res.witness
                assert sum(u in part for u in t.adj[v]) <= 1


@st.composite
def _small_trees(draw):
    n = draw(st.integers(1, 9))
    label = draw(st.permutations(range(n)))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    return Graph.from_edges(n, [(label[v], label[u]) for v, u in enumerate(parents, 1)])


@settings(max_examples=100, deadline=None)
@given(_small_trees(), st.integers(1, 3), st.sampled_from([1, 2, 3, INFINITY]))
def test_sigma_tree_matches_brute_force(t, p, q):
    res = sigma_tree(t, P(p, q))
    assert res.value == naive_sigma(t, P(p, q))
    assert naive_is_spreading(t, P(p, q), res.witness)


def test_sigma_tree_independent_of_q_when_p_large():
    rng = random.Random(17)
    for _ in range(15):
        t = random_tree(rng.randrange(2, 12), rng)
        for p in (2, 3):
            q1 = sigma_exact(t, P(p, 1)).value
            for q in (2, INFINITY):
                assert sigma_exact(t, P(p, q)).value == q1
                res = sigma_tree(t, P(p, q))
                assert res.value == q1
                assert is_spreading_set(t, P(p, q), res.witness)


def _p2plus_corpus(chained: Graph) -> list[Graph]:
    rng = random.Random(61)
    trees = [random_tree(n, rng) for n in range(1, 15) for _ in range(4)]
    trees += [path(n) for n in (1, 2, 3, 6, 11)] + [star(n) for n in (2, 5, 9)]
    trees += [_spider(3, 2), _spider(4, 3), chained]
    trees += [tight_tree(n, p) for p in (2, 3, 4) for n in (p + 1, p + 6)]
    return trees


@pytest.mark.parametrize("p", [2, 3, 4])
def test_sigma_tree_p2plus_matches_solver(p, chained_tight_tree):
    for t in _p2plus_corpus(chained_tight_tree):
        value = sigma_exact(t, P(p, 1)).value
        for q in (1, 2, 3, INFINITY):
            res = sigma_tree(t, P(p, q))
            assert res.value == value, (t, p, q)
            assert naive_is_spreading(t, P(p, q), res.witness)
        assert tree_lower_bound(t.n, p) <= value
        if t.n >= 5:
            assert value <= tree_upper_bound(t, p, 1).bound


def test_sigma_tree_p2plus_scales_linearly():
    import time

    t = random_tree(20000, random.Random(67))
    start = time.time()
    for p in (2, 3):
        res = sigma_tree(t, P(p, 1))
        assert is_spreading_set(t, P(p, 1), res.witness)
        assert verify_trace(t, P(p, 1), res.trace)
        assert tree_lower_bound(t.n, p) <= res.value <= tree_upper_bound(t, p, 1).bound
    assert time.time() - start < 10


def test_sigma_tree_rejects_non_tree():
    with pytest.raises(ValueError, match="expected a tree"):
        sigma_tree(cycle(5), P(2, 1))
    # Every tree entry point checks its input, itself or through sigma_tree.
    for call in (
        lambda T: search_property_pnp(T, 2),
        lambda T: check_property_pnp(T, 2, [0, 1], [2, 3, 4]),
        lambda T: tree_upper_bound(T, 2, 1),
    ):
        with pytest.raises(ValueError, match="expected a tree"):
            call(cycle(5))


# ---------------------------------------------------------------------------
# bounds


def test_tree_lower_bound_values():
    assert tree_lower_bound(11, 3) == 8
    assert tree_lower_bound(2, 2) == 2
    assert tree_lower_bound(5, 2) == 3
    assert sigma_exact(path(5), P(2, INFINITY)).value == 3


def test_tree_lower_bound_rejects_small_p():
    with pytest.raises(ValueError):
        tree_lower_bound(5, 1)
    with pytest.raises(ValueError):
        tree_lower_bound(0, 2)


def test_upper_bound_star_attains():
    rep = tree_upper_bound(star(7), 2, 1)
    assert rep.to_json() == {"bound": 6, "attained": True, "reason": "star"}


def test_upper_bound_low_degree_attains():
    rep = tree_upper_bound(path(6), 4, 1)
    assert rep.bound == 6 and rep.attained
    assert sigma_exact(path(6), P(4, 1)).value == 6


def test_upper_bound_spider_not_attained():
    spider = _spider(3, 2)
    rep = tree_upper_bound(spider, 3, 2)
    assert rep.bound == 7 and not rep.attained
    assert sigma_exact(spider, P(3, 2)).value <= 6


def test_upper_bound_rejects_small_trees_and_p():
    with pytest.raises(ValueError):
        tree_upper_bound(path(4), 2, 1)
    with pytest.raises(ValueError):
        tree_upper_bound(path(6), 1, 1)


def test_bounds_sandwich_random_trees():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randrange(5, 13)
        t = random_tree(n, rng)
        for p in (2, 3):
            value = sigma_tree(t, P(p, 1)).value
            rep = tree_upper_bound(t, p, 1)
            assert tree_lower_bound(n, p) <= value <= rep.bound
            assert rep.attained == (value == rep.bound)


# ---------------------------------------------------------------------------
# tightness certificates


def test_tight_tree_construction():
    t = tight_tree(11, 3)
    assert t.is_tree and t.n == 11
    seeds = frozenset(range(8))
    assert is_spreading_set(t, P(3, 1), seeds)


def test_certificate_for_generated_tight_tree():
    t = tight_tree(11, 3)
    report = check_property_pnp(t, 3, frozenset(range(8)), (8, 9, 10))
    assert report.holds
    assert report.remainder == (11 - 1) % 3
    assert report.excess_sum == 1  # the last vertex grabs one extra seed
    assert report.seed_edges == 0  # seeds are independent in this construction


def test_certificate_chained_variant(chained_tight_tree):
    seeds = frozenset(range(8))
    good = check_property_pnp(chained_tight_tree, 3, seeds, (8, 9, 10))
    assert good.holds
    bad = check_property_pnp(chained_tight_tree, 3, seeds, (9, 8, 10))
    assert not bad.holds
    assert "step 1" in bad.reason


def test_certificate_report_json_golden(chained_tight_tree):
    report = check_property_pnp(chained_tight_tree, 3, frozenset(range(8)), (8, 9, 10))
    assert report.to_json() == {
        "holds": True,
        "reason": None,
        "set": [0, 1, 2, 3, 4, 5, 6, 7],
        "ordering": [8, 9, 10],
        "remainder": 1,
        "excess_sum": 0,
        "seed_edges": 1,
        "steps": [
            {
                "vertex": 8,
                "pulled": [0, 1, 2],
                "blue_neighbors": 3,
                "seed_edges": 0,
                "forest_components": 1,
            },
            {
                "vertex": 9,
                "pulled": [3, 4],
                "blue_neighbors": 3,
                "seed_edges": 0,
                "forest_components": 1,
            },
            {
                "vertex": 10,
                "pulled": [5, 6, 7],
                "blue_neighbors": 3,
                "seed_edges": 1,
                "forest_components": 1,
            },
        ],
    }


def test_certificate_matches_naive_oracle(chained_tight_tree):
    cases = []
    for p in (2, 3, 4):
        for n in (p + 1, p + 4, 3 * p + 2, 25):
            t = tight_tree(n, p)
            seeds = range(tree_lower_bound(n, p))
            _, trace = closure(t, P(p, INFINITY), seeds)
            cases.append((t, p, seeds, trace.forced))
    cases.append((chained_tight_tree, 3, range(8), (8, 9, 10)))
    cases.append((chained_tight_tree, 3, range(8), (9, 8, 10)))
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randrange(2, 16)
        t = random_tree(n, rng)
        p = rng.choice((2, 3, 4))
        k = min(n, max(0, tree_lower_bound(n, p) + rng.choice((-1, 0, 0, 1))))
        seeds = rng.sample(range(n), k)
        rest = [v for v in range(n) if v not in seeds]
        rng.shuffle(rest)
        cases.append((t, p, seeds, rest))
        final, trace = closure(t, P(p, INFINITY), seeds)
        if len(final) == n:  # every step sees p forest neighbors
            cases.append((t, p, seeds, trace.forced))
    verdicts = set()
    for t, p, seeds, order in cases:
        doc = check_property_pnp(t, p, seeds, order).to_json()
        assert doc == naive_pnp_report(t, p, seeds, order)
        verdicts.add(doc["reason"].split()[0] if doc["reason"] else "holds")
    assert verdicts == {"holds", "step", "seed"}  # "seed set has size ..."


def test_certificate_wrong_size_reports_not_raises():
    report = check_property_pnp(path(5), 2, frozenset({0, 1}), (2, 3, 4))
    assert not report.holds
    assert "size" in report.reason


def test_certificate_rejects_bad_ordering():
    with pytest.raises(ValueError):
        check_property_pnp(path(5), 2, frozenset({0, 2, 4}), (1, 1, 3))
    with pytest.raises(ValueError):
        check_property_pnp(path(5), 2, frozenset({0, 2, 4}), (1,))
    with pytest.raises(ValueError, match="unknown vertices"):
        check_property_pnp(path(5), 2, frozenset({0, 2, 7}), (1, 3, 4))
    # Vertex ids are exactly int, in the seed set and in the ordering.
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match="unknown vertices"):
            check_property_pnp(path(5), 2, {0, bad, 3}, (2, 4))
        with pytest.raises(ValueError, match="not a permutation"):
            check_property_pnp(path(5), 2, {0, 2, 4}, (bad, 3))


def test_certificate_requires_p_at_least_2():
    with pytest.raises(ValueError, match="p >= 2"):
        check_property_pnp(path(3), 1, frozenset({0}), (1, 2))
    with pytest.raises(ValueError, match="p >= 2"):
        search_property_pnp(path(3), 1)


def test_star_has_no_certificate_exhaustively():
    # every seed set of the required size fails, over all orderings: the
    # certificate requires p forest neighbors, impossible around one center
    from itertools import combinations, permutations

    t = star(5)
    need = tree_lower_bound(5, 2)
    for combo in combinations(range(5), need):
        rest = [v for v in range(5) if v not in combo]
        for order in permutations(rest):
            assert not check_property_pnp(t, 2, frozenset(combo), order).holds


def test_search_finds_and_rejects():
    assert search_property_pnp(tight_tree(11, 3), 3) is not None
    assert search_property_pnp(star(5), 2) is None
    found = search_property_pnp(path(5), 2)
    assert found is not None and found.holds


def test_search_agrees_with_attainment():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randrange(4, 15)
        t = random_tree(n, rng)
        for p in (2, 3, 4):
            report = search_property_pnp(t, p)
            bound = tree_lower_bound(n, p)
            attained = sigma_tree(t, P(p, 1)).value == bound
            assert (report is not None) == attained
            assert (report is not None) == (sigma_exact(t, P(p, INFINITY)).value == bound)
            if report is not None:
                assert report.holds
                assert naive_is_spreading(t, P(p, INFINITY), report.seed_set)


def test_search_scales_linearly():
    import time

    start = time.time()
    big = search_property_pnp(tight_tree(20001, 3), 3)
    assert big is not None and big.holds
    assert len(big.seed_set) == tree_lower_bound(20001, 3)
    long_path = search_property_pnp(path(2000), 2)
    assert long_path is not None and long_path.holds
    assert search_property_pnp(star(2000), 2) is None
    assert time.time() - start < 10


def test_tight_tree_input_validation():
    with pytest.raises(ValueError):
        tight_tree(3, 1)
    with pytest.raises(ValueError):
        tight_tree(2, 2)


def test_tight_trees_attain_bound_various_sizes():
    for p in (2, 3, 4):
        for n in range(p + 1, p + 9):
            t = tight_tree(n, p)
            assert t.is_tree and t.n == n
            assert sigma_tree(t, P(p, 1)).value == tree_lower_bound(n, p)
