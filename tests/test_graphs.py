"""Graph construction, parsing, families, and structure queries."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadnum import (
    Budget,
    FamilySpec,
    Graph,
    GraphFormatError,
    SpreadParams,
    build_family,
    build_qforcing_gadget,
    build_spreading_gadget,
    certify_qforcing_gadget,
    certify_spreading_gadget,
    check_property_pnp,
    complete,
    complete_bipartite,
    cycle,
    family_from_tokens,
    grid,
    grid_sigma,
    parse_edge_list,
    path,
    search_property_pnp,
    serialize_edge_list,
    star,
    subtree_partition,
    tight_tree,
    tree_lower_bound,
    tree_upper_bound,
)

from spreadnum import graphs
from spreadnum.graphs import FAMILIES

from conftest import _components_within


def test_parse_small_path():
    # Lines end where str.splitlines ends them, at \r\n and \x0b too.
    for text in ("0 1\n1 2", "0 1\r\n1 2", "0 1\x0b1 2"):
        g = parse_edge_list(text)
        assert g.n == 3
        assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_header_only():
    g = parse_edge_list("n 3")
    assert g.n == 3
    assert g.edge_count == 0


def test_parse_hub_counterexample(hub_counterexample):
    text = "0 6\n1 6\n2 6\n6 7\n1 8\n8 9\n9 3\n3 7\n4 7\n5 7"
    g = parse_edge_list(text)
    assert g == hub_counterexample
    assert g.degree(6) == g.degree(7) == 4


def test_parse_rejects_self_loop_with_line_number():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_edge_list("0 1\n2 2")


def test_parse_rejects_non_integer():
    with pytest.raises(GraphFormatError, match="non-integer"):
        parse_edge_list("0 x")


def test_parse_rejects_negative_and_bad_shape():
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 -1")
    with pytest.raises(GraphFormatError):
        parse_edge_list("0 1 2")
    with pytest.raises(GraphFormatError):
        parse_edge_list("n 2\nn 3")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 x", "line 2: non-integer token in '1 x'"),
        ("0 1\n 0  1  2 ", "line 2: expected 'u v', got ' 0  1  2 '"),
        ("7", "line 1: expected 'u v', got '7'"),
        ("n 2\nn 3", "line 2: duplicate 'n' header"),
        ("n 2 3", "line 1: header must be 'n COUNT'"),
        ("\nn", "line 2: header must be 'n COUNT'"),
        ("n x", "line 1: non-integer vertex count 'x'"),
        ("n -1", "line 1: negative vertex count"),
        ("0 -1", "line 1: negative vertex id"),
        ("-1 -1", "line 1: negative vertex id"),
        ("0 1\n2 2", "line 2: self-loop at vertex 2"),
        ("n 2\n0 5", "vertex id 5 outside header count 2"),
        # The first bad line in the document wins, whatever its kind.
        ("0 1\n2 2\n3 x", "line 2: self-loop at vertex 2"),
        ("0 x\n2 2", "line 1: non-integer token in '0 x'"),
        ("0 x\nn 2\n0 5", "line 1: non-integer token in '0 x'"),
        # Lines end where str.splitlines ends them: \r\n is one boundary,
        # \x0b is one too, and the quoted line keeps neither.
        ("0 1\r\n1 x", "line 2: non-integer token in '1 x'"),
        ("0 1\x0b1 x", "line 2: non-integer token in '1 x'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(GraphFormatError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_parse_collapses_duplicate_edges():
    g = parse_edge_list("0 1\n1 0\n0 1")
    assert g.edge_count == 1


def test_negative_header_rejected():
    with pytest.raises(GraphFormatError, match="line 1: negative vertex count"):
        parse_edge_list("n -1\n")


def test_header_with_extra_isolated_vertices():
    g = parse_edge_list("n 5\n0 1")
    assert g.n == 5
    assert g.degrees == (1, 1, 0, 0, 0)


def test_header_bounds_vertex_ids():
    # The header fixes the vertex count wherever it appears in the document.
    assert parse_edge_list("0 5\nn 6").n == 6
    for text in ("n 2\n0 5", "0 5\nn 2", "n 0\n0 1"):
        with pytest.raises(GraphFormatError, match="header count"):
            parse_edge_list(text)


def test_round_trip_degenerate_graphs():
    empty = Graph.from_edges(0, [])
    assert serialize_edge_list(empty) == "n 0\n"
    assert parse_edge_list(serialize_edge_list(empty)) == empty
    isolated = Graph.from_edges(3, [])
    assert parse_edge_list(serialize_edge_list(isolated)) == isolated
    assert not empty.is_connected and not empty.is_tree
    assert empty.components() == [] and empty.max_degree == 0


def test_serialize_golden_text():
    assert serialize_edge_list(grid(3, 2)) == "n 6\n0 1\n0 2\n1 3\n2 3\n2 4\n3 5\n4 5\n"
    isolated = Graph.from_edges(6, [(4, 1), (1, 3), (3, 4)])
    assert serialize_edge_list(isolated) == "n 6\n1 3\n1 4\n3 4\n"


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError, match="vertex count >= 0"):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError, match="unknown vertex 2"):
        Graph.from_edges(2, [(0, 1)], {2: "x"})
    # Ids are exactly int: a bool would be stored and serialized as "True",
    # and a float index would fail with TypeError instead.
    for edge in [(False, True), (0, 1.0)]:
        with pytest.raises(ValueError, match="integer ids below n="):
            Graph.from_edges(3, [edge])
    with pytest.raises(ValueError, match="unknown vertex True"):
        Graph.from_edges(2, [(0, 1)], {True: "x"})


# One case per call site of ``graphs._require_int``: the call with the bad
# value in place (and a budget for the certifiers), the parameter's name, and
# its minimum.
_INT_SITES = [
    pytest.param(lambda x, b: Graph.from_edges(x, []), "vertex count", 0, id="from_edges"),
    pytest.param(lambda x, b: path(x), "size", 1, id="path"),
    pytest.param(lambda x, b: cycle(x), "size", 3, id="cycle"),
    pytest.param(lambda x, b: complete(x), "size", 1, id="complete"),
    pytest.param(lambda x, b: complete_bipartite(x, 2), "size", 1, id="bipartite-r"),
    pytest.param(lambda x, b: complete_bipartite(2, x), "size", 1, id="bipartite-s"),
    pytest.param(lambda x, b: star(x), "size", 1, id="star"),
    pytest.param(lambda x, b: grid(x, 2), "size", 1, id="grid-m"),
    pytest.param(lambda x, b: grid(2, x), "size", 1, id="grid-n"),
    pytest.param(lambda x, b: FamilySpec("cycle", (x,)), "size", 3, id="FamilySpec"),
    pytest.param(lambda x, b: SpreadParams(x, 1), "p", 1, id="SpreadParams"),
    pytest.param(lambda x, b: SpreadParams(1, x), "q", 1, id="SpreadParams-q"),
    pytest.param(lambda x, b: grid_sigma(2, 1, 3, x), "dimensions", 1, id="board"),
    pytest.param(lambda x, b: subtree_partition(path(4), x), "q", 1, id="subtree_partition"),
    pytest.param(lambda x, b: tree_lower_bound(x, 2), "n", 1, id="tree_lower_bound-n"),
    pytest.param(lambda x, b: tree_lower_bound(5, x), "p", 2, id="tree_lower_bound-p"),
    pytest.param(lambda x, b: tree_upper_bound(path(6), x, 1), "p", 2, id="tree_upper_bound"),
    pytest.param(lambda x, b: check_property_pnp(path(4), x, [], []), "p", 2, id="check_pnp"),
    pytest.param(lambda x, b: search_property_pnp(path(4), x), "p", 2, id="search_pnp"),
    pytest.param(lambda x, b: tight_tree(5, x), "p", 2, id="tight_tree-p"),
    pytest.param(lambda x, b: tight_tree(x, 2), "n", 3, id="tight_tree-n"),
    pytest.param(lambda x, b: certify_qforcing_gadget(path(3), x, b), "q", 2, id="qforcing"),
    pytest.param(lambda x, b: certify_spreading_gadget(path(3), x, 2, b), "p", 2, id="spreading"),
]


@pytest.mark.parametrize("call, name, minimum", _INT_SITES)
@pytest.mark.parametrize("kind", ["small", "float", "none", "bool"])
def test_integer_parameters_share_one_check(call, name, minimum, kind):
    bad = {"small": min(0, minimum - 1), "float": 2.5, "none": None, "bool": True}[kind]
    budget = Budget(10)
    with pytest.raises(ValueError, match=re.escape(f"integer {name} >= {minimum}, got {bad}")):
        call(bad, budget)
    assert budget.used == 0  # rejected before any search


@pytest.mark.parametrize("bad", [0, 2.5, True], ids=["small", "float", "bool"])
def test_budget_limit_shares_the_integer_check(bad):
    with pytest.raises(ValueError, match=re.escape(f"budget requires integer limit >= 1, got {bad}")):
        Budget(bad)
    with pytest.raises(ValueError, match="integer limit"):
        Budget("5")
    assert Budget(None).limit is None  # None stays unlimited


def test_star_shape():
    g = star(5)
    assert sorted(g.degrees) == [1, 1, 1, 1, 4]


def test_grid_shape():
    g = grid(3, 3)
    assert g.n == 9
    assert g.edge_count == 12
    assert g.max_degree == 4
    assert g.degree(4) == 4  # center cell (2, 2)


def test_grid_matches_product_vertex_for_vertex():
    # Beyond the small boards: one row, one column and two rows, long.
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 13)]
    for m, n in shapes + [(1, 500), (500, 1), (2, 300), (300, 2)]:
        g = grid(m, n)
        # Cell (c, r), 0-based, is joined to (c, r + 1) and (c + 1, r).
        edges = [
            (c * n + r, c * n + r + 1) for c in range(m) for r in range(n - 1)
        ] + [((c - 1) * n + r, c * n + r) for c in range(1, m) for r in range(n)]
        assert g == Graph.from_edges(m * n, edges)


def test_grid_id_convention():
    g = grid(4, 3)
    # cell (c, r) -> (c-1)*n + (r-1); (2,1) and (1,1) are horizontal neighbors
    assert 0 in g.adj[3]
    assert 1 in g.adj[0]


@pytest.mark.parametrize(
    "spec, n, edges",
    [
        (FamilySpec("path", (6,)), 6, 5),
        (FamilySpec("cycle", (6,)), 6, 6),
        (FamilySpec("complete", (5,)), 5, 10),
        (FamilySpec("complete_bipartite", (3, 2)), 5, 6),
        (FamilySpec("star", (7,)), 7, 6),
        (FamilySpec("grid", (4, 5)), 20, 31),
    ],
)
def test_family_sizes(spec, n, edges):
    # The size the limit check computes before building is the built size.
    assert FAMILIES[spec.family][2](*spec.args) == (n, edges)
    g = build_family(spec)
    assert g.n == n
    assert g.edge_count == edges
    assert sum(g.degrees) == 2 * g.edge_count  # handshake


def test_size_limit_rejects_before_building(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", 12)
    assert parse_edge_list("n 12").n == 12
    assert build_family(FamilySpec("grid", (3, 3))).edge_count == 12
    too_large = [
        lambda: parse_edge_list("n 13"),
        lambda: parse_edge_list("0 12"),
        lambda: parse_edge_list("0 1\n" * 13),
        lambda: build_family(FamilySpec("path", (13,))),
        lambda: build_family(FamilySpec("grid", (3, 4))),  # 12 vertices, 17 edges
        lambda: build_family(FamilySpec("complete", (6,))),  # 6 vertices, 15 edges
    ]
    for build in too_large:
        with pytest.raises(ValueError, match="too large"):
            build()


def test_grid_edge_count_formula():
    for m in range(1, 7):
        for n in range(1, 7):
            assert grid(m, n).edge_count == 2 * m * n - m - n


def test_complete_edge_count_formula():
    for n in range(1, 8):
        assert complete(n).edge_count == n * (n - 1) // 2


def test_family_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FamilySpec("path", (0,))
    with pytest.raises(ValueError):
        FamilySpec("cycle", (2,))
    with pytest.raises(ValueError):
        FamilySpec("grid", (3,))
    with pytest.raises(ValueError):
        FamilySpec("unknown", (3,))
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("cartesian_product", (2, 2))


def test_family_from_tokens():
    assert family_from_tokens(["grid", "3", "4"]) == FamilySpec("grid", (3, 4))
    with pytest.raises(ValueError):
        family_from_tokens(["grid", "3", "x"])
    with pytest.raises(ValueError):
        family_from_tokens([])


def test_structure_report_path():
    g = path(5)
    assert g.max_degree == 2 and min(g.degrees) == 1
    assert g.is_tree and g.is_connected
    assert g.components() == [frozenset(range(5))]


def test_structure_report_cycle():
    g = cycle(6)
    assert g.max_degree == 2 and set(g.degrees) == {2}
    assert g.is_connected and not g.is_tree


def test_structure_report_hub_counterexample(hub_counterexample):
    assert hub_counterexample.max_degree == 4
    assert not hub_counterexample.is_tree  # contains the cycle 6,1,8,9,3,7
    assert hub_counterexample.is_connected


def test_structure_report_disconnected():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert not g.is_connected and not g.is_tree
    assert [sorted(c) for c in g.components()] == [[0, 1], [2, 3], [4]]


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph.from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_components_match_the_reference(g):
    # Sparse draws leave isolated vertices; n = 0 has no components.
    expected = _components_within(g, set(range(g.n)))
    assert g.components() == [frozenset(c) for c in expected]
    assert g.is_connected == (len(expected) == 1)


@settings(max_examples=100, deadline=None)
@given(_graphs(), st.randoms())
def test_round_trip_exact(g, rng):
    assert parse_edge_list(serialize_edge_list(g)) == g
    # The same graph as a messy document: header and pairs shuffled, pairs
    # repeated and in either order, padded with whitespace and blank lines.
    rows = [("n", g.n)] + [
        rng.sample([u, v], 2) for u, v in g.edges() for _ in range(rng.randrange(1, 3))
    ]
    pad = ("", " ", "\t", " \t ")
    lines = [rng.choice(pad) + f"{a}{rng.choice(pad[1:])}{b}" + rng.choice(pad) for a, b in rows]
    lines += [rng.choice(pad)] * rng.randrange(3)
    rng.shuffle(lines)
    assert parse_edge_list("\n".join(lines)) == g


def test_bipartite_layout():
    g = complete_bipartite(4, 2)
    assert sorted(g.degrees) == [2, 2, 2, 2, 4, 4]
