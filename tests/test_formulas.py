"""Closed forms, grid values, grid witnesses, perimeter, conjecture probe."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spreadnum import (
    INFINITY,
    FamilySpec,
    OpenProblemError,
    SigmaResult,
    SpreadParams,
    blue_perimeter,
    closure,
    grid,
    grid_cell_id,
    grid_id_cell,
    grid_sigma,
    grid_witness,
    is_spreading_set,
    probe_grid_conjecture,
    sigma_closed_form,
    sigma_exact,
)
from spreadnum.graphs import FAMILIES

from conftest import naive_closure

P = SpreadParams
ALL_Q = (1, 2, 3, INFINITY)


def test_family_examples():
    assert sigma_closed_form(FamilySpec("cycle", (8,)), P(2, 1)).value == 5
    assert sigma_closed_form(FamilySpec("complete_bipartite", (4, 2)), P(3, 1)).value == 5
    res = sigma_closed_form(FamilySpec("path", (4,)), P(3, 2))
    assert res.value == 4 and res.status == "formula"


def test_not_covered_cases():
    assert sigma_closed_form(FamilySpec("star", (6,)), P(1, 2)).value == 3  # max(1, n-1-q)
    res = sigma_closed_form(FamilySpec("complete_bipartite", (3, 3)), P(2, 1))
    assert res.status == "formula" and res.value == 4  # max(p, 3 - q) + (3 - q)+
    with pytest.raises(ValueError):
        SigmaResult(None, "not_covered")  # the status is retired


def test_paths_against_solver():
    for n in range(1, 9):
        for p in range(1, 5):
            for q in ALL_Q:
                res = sigma_closed_form(FamilySpec("path", (n,)), P(p, q))
                assert res.status == "formula"
                assert res.value == sigma_exact(grid(n, 1), P(p, q)).value


def test_cycles_against_solver():
    for n in range(3, 9):
        g = FamilySpec("cycle", (n,))
        for p in range(1, 5):
            for q in ALL_Q:
                res = sigma_closed_form(g, P(p, q))
                assert res.status == "formula"
                from spreadnum import cycle

                assert res.value == sigma_exact(cycle(n), P(p, q)).value


def test_complete_against_solver():
    from spreadnum import complete

    for n in range(2, 8):
        for p in range(1, n + 3):
            for q in ALL_Q:
                res = sigma_closed_form(FamilySpec("complete", (n,)), P(p, q))
                assert res.status == "formula"
                assert res.value == sigma_exact(complete(n), P(p, q)).value


def test_bipartite_covered_regime_against_solver():
    from spreadnum import complete_bipartite

    for r in range(1, 7):
        for s in range(1, r + 1):
            if r + s > 8:
                continue
            g = complete_bipartite(r, s)
            for p in range(1, r + 2):
                for q in ALL_Q:
                    res = sigma_closed_form(FamilySpec("complete_bipartite", (r, s)), P(p, q))
                    assert res.status == "formula"
                    assert res.value == sigma_exact(g, P(p, q)).value


def test_every_family_has_a_closed_form():
    # sigma_closed_form dispatches on the family name, so a family added to
    # FAMILIES without a closed form would raise KeyError here.
    for name, (_, arity, _) in FAMILIES.items():
        spec = FamilySpec(name, (3 if name == "cycle" else 1,) * arity)
        for p, q in [(1, 1), (2, 2), (3, INFINITY), (5, 1)]:
            assert isinstance(sigma_closed_form(spec, P(p, q)), SigmaResult), (name, p, q)


def test_star_formula_against_solver():
    from spreadnum import star

    for n in range(2, 8):
        for p in range(1, n + 2):
            for q in ALL_Q:
                res = sigma_closed_form(FamilySpec("star", (n,)), P(p, q))
                assert res.status == "formula"
                assert res.value == sigma_exact(star(n), P(p, q)).value


# ---------------------------------------------------------------------------
# grids


def test_grid_values_examples():
    assert grid_sigma(2, 4, 10, 5).value == 8
    assert grid_sigma(2, 1, 6, 5).value == 6
    assert grid_sigma(4, 2, 5, 5).value == 20
    assert grid_sigma(1, 1, 7, 4).value == 4
    assert grid_sigma(1, 3, 7, 4).value == 1
    assert grid_sigma(5, 1, 4, 4).value == 16


def test_grid_open_and_degenerate_cases():
    assert grid_sigma(3, 4, 10, 10).status == "open"
    assert grid_sigma(3, 1, 8, 3).status == "open"
    assert grid_sigma(3, 1, 9, 1).value == 9  # single row is a path
    assert grid_sigma(3, 3, 2, 2).value == 4  # the square is a 4-cycle
    assert grid_sigma(2, 1, 7, 2).value == 5
    assert grid_sigma(2, 2, 7, 2).value == 5
    assert grid_sigma(4, 1, 7, 2).value == 14  # max degree 3 < 4


def test_grid_symmetric_in_dimensions():
    for p, q in [(1, 1), (2, 1), (2, 3), (4, 2), (5, 1)]:
        a = grid_sigma(p, q, 7, 4)
        b = grid_sigma(p, q, 4, 7)
        assert (a.value, a.status) == (b.value, b.status)


def test_grid_against_solver_small():
    # Together these boards reach every regime of the grid table.
    boards = [(3, 3), (3, 4), (2, 2), (2, 3), (1, 5), (2, 4), (1, 1), (1, 2), (2, 5), (4, 4)]
    for m, n in boards:
        g = grid(m, n)
        for p in (1, 2, 3, 4, 5):
            for q in ALL_Q:
                res = grid_sigma(p, q, m, n)
                if res.status != "formula":
                    continue
                assert res.value == sigma_exact(g, P(p, q)).value, (m, n, p, q)
    # 2-row boards at (2, 2): the diagonal branch, proven for every length.
    for m in range(3, 11):
        res = grid_sigma(2, 2, m, 2)
        assert res.status == "formula" and res.value == (m + 3) // 2
        assert res.value == sigma_exact(grid(m, 2), P(2, 2)).value, m
        assert len(grid_witness(2, 2, 2, m)) == res.value
    # 2-row boards at (2, 1), the 2 x 2 square included, and at p = 3.
    cases = [(m, 2, 1, (m + 4) // 2) for m in range(2, 13)]
    cases += [(m, 3, q, m + 2) for m in range(3, 11) for q in (1, 2, 3, 4, INFINITY)]
    for m, p, q, value in cases:
        res = grid_sigma(p, q, m, 2)
        assert res.status == "formula" and res.value == value, (m, p, q)
        assert res.value == sigma_exact(grid(m, 2), P(p, q)).value, (m, p, q)
        assert len(grid_witness(p, q, 2, m)) == res.value


def test_grid_witness_examples():
    assert grid_witness(2, 4, 10, 5) == frozenset(
        {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (7, 5), (9, 5), (10, 5)}
    )
    assert grid_witness(2, 1, 6, 5) == frozenset(
        {(1, 1), (2, 1), (4, 1), (6, 1), (1, 3), (1, 5)}
    )
    w = grid_witness(4, 1, 3, 3)
    assert w == frozenset(
        {(1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (2, 3), (3, 3)}
    )


def test_grid_witness_open_and_uncovered():
    with pytest.raises(OpenProblemError):
        grid_witness(3, 3, 5, 5)
    assert len(grid_witness(2, 1, 9, 2)) == 6
    with pytest.raises(ValueError):
        grid_witness(2, 1, 2000, 2000)  # over MAX_GRAPH_SIZE


def test_grid_witness_validates_moderate_sweep():
    for n in range(3, 9):
        for m in range(n, 9):
            g = grid(m, n)
            for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (2, INFINITY), (4, 1), (5, 1)]:
                sig = grid_sigma(p, q, m, n)
                cells = grid_witness(p, q, m, n)
                assert len(cells) == sig.value
                ids = [grid_cell_id(c, r, m, n) for c, r in cells]
                assert is_spreading_set(g, P(p, q), ids)


def test_grid_witness_transposed_dimensions():
    w = grid_witness(2, 1, 5, 6)  # fewer columns than rows
    g = grid(5, 6)
    ids = [grid_cell_id(c, r, 5, 6) for c, r in w]
    assert len(w) == grid_sigma(2, 1, 5, 6).value
    assert is_spreading_set(g, P(2, 1), ids)


def test_grid_witness_small_strips():
    for m, n, p, q in [(1, 1, 1, 1), (6, 1, 2, 1), (5, 1, 2, 2), (2, 2, 2, 1),
                       (2, 2, 2, 2), (7, 2, 1, 1), (7, 2, 2, 3), (2, 6, 1, 2)]:
        cells = grid_witness(p, q, m, n)
        ids = [grid_cell_id(c, r, m, n) for c, r in cells]
        assert len(cells) == grid_sigma(p, q, m, n).value
        assert is_spreading_set(grid(m, n), P(p, q), ids)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 6),
    st.sampled_from([1, 2, 3, 4, INFINITY]),
)
@example(1, 7, 2, 1)  # 1 x M strips at (2, 1) take the diagonal seed
@example(8, 1, 2, 1)
@example(1, 2, 2, 1)
def test_grid_table_values_and_witnesses_agree(m, n, p, q):
    res = grid_sigma(p, q, m, n)
    assert res == grid_sigma(p, q, n, m)
    if res.status == "open":
        with pytest.raises(OpenProblemError):
            grid_witness(p, q, m, n)
        return
    assert res.status == "formula"
    cells = grid_witness(p, q, m, n)
    assert len(cells) == res.value
    assert all(1 <= c <= m and 1 <= r <= n for c, r in cells)
    ids = [grid_cell_id(c, r, m, n) for c, r in cells]
    assert naive_closure(grid(m, n), P(p, q), ids) == frozenset(range(m * n))


def test_cell_id_round_trip():
    for v in range(12):
        c, r = grid_id_cell(v, 4, 3)
        assert grid_cell_id(c, r, 4, 3) == v
    with pytest.raises(ValueError):
        grid_cell_id(5, 1, 4, 3)
    with pytest.raises(ValueError):
        grid_id_cell(12, 4, 3)
    # Coordinates and ids are exactly int.
    for bad in ((1.5, 1), (1, 2.0), (True, 1)):
        with pytest.raises(ValueError, match="outside"):
            grid_cell_id(*bad, 3, 3)
    for bad in (4.0, True):
        with pytest.raises(ValueError, match="outside"):
            grid_id_cell(bad, 3, 3)


@pytest.mark.parametrize(
    "call, args",
    [(grid_id_cell, (4, 3, 3.0)), (grid_cell_id, (2, 2, 3, 3.0)), (grid_cell_id, (1, 1, 2.5, 2))],
)
def test_cell_id_rejects_non_integer_board(call, args):
    with pytest.raises(ValueError, match="grid requires integer dimensions"):
        call(*args)


def test_three_three_separation():
    g = grid(3, 3)
    v1 = sigma_exact(g, P(3, 1)).value
    v2 = sigma_exact(g, P(3, 2)).value
    v3 = sigma_exact(g, P(3, 3)).value
    v4 = sigma_exact(g, P(3, 4)).value
    assert v1 == 6 and v3 == 5
    assert v1 > v2 == v3 == v4


# ---------------------------------------------------------------------------
# perimeter


def test_perimeter_basics():
    assert blue_perimeter(5, 5, [(1, 1)]) == 4
    assert blue_perimeter(5, 5, [(1, 1), (2, 1)]) == 6
    assert blue_perimeter(5, 5, [(1, 1), (2, 2)]) == 8  # diagonal does not touch
    full = [(c, r) for c in range(1, 5) for r in range(1, 4)]
    assert blue_perimeter(4, 3, full) == 2 * (4 + 3)


def test_perimeter_rejects_out_of_range():
    with pytest.raises(ValueError):
        blue_perimeter(3, 3, [(4, 1)])
    with pytest.raises(ValueError):
        blue_perimeter(3, 3, [(0, 2)])
    with pytest.raises(ValueError, match="outside 3 x 3 grid"):
        blue_perimeter(3, 3, [(1.5, 1), (2, 2)])
    with pytest.raises(ValueError, match="outside 3 x 3 grid"):
        blue_perimeter(3, 3, [(2, 2), (True, 3)])
    for m, n in ((0, 4), (3, -3), (2.5, 3)):
        with pytest.raises(ValueError, match="dimensions"):
            blue_perimeter(m, n, [])


def test_perimeter_never_increases_along_two_neighbor_closures():
    rng = random.Random(321)
    for _ in range(15):
        m, n = rng.randrange(3, 8), rng.randrange(3, 8)
        g = grid(m, n)
        q = rng.choice([1, 2, 3, INFINITY])
        seeds = {v for v in range(g.n) if rng.random() < 0.45}
        _, trace = closure(g, P(2, q), seeds)
        cells = {grid_id_cell(v, m, n) for v in trace.initial}
        per = blue_perimeter(m, n, cells)
        for _, forced in trace.steps:
            cells.add(grid_id_cell(forced, m, n))
            nxt = blue_perimeter(m, n, cells)
            assert nxt <= per
            per = nxt


# ---------------------------------------------------------------------------
# conjecture probe


def test_probe_examples():
    probe = probe_grid_conjecture(3, 3)
    assert probe.to_json() == {"m": 3, "n": 3, "sigma_33": 5, "sigma_34": 5, "equal": True}


def test_probe_budget_partial():
    probe = probe_grid_conjecture(3, 3, budget=2)
    assert probe.sigma_33 is None
    assert probe.equal is None
