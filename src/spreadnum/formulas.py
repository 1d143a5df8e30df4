"""Closed-form spreading numbers, grid witness constructions, perimeter.

Every value returned with status ``formula`` has a proof behind it; anything
outside the proven table comes back ``not_covered``, and the genuinely
unresolved grid cases (``p = 3`` with small white budgets) come back
``open``.  Witness generators reproduce the explicit constructions used in
the proofs and re-validate themselves through the engine before returning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .engine import SigmaResult, SpreadParams, is_spreading_set
from .graphs import FamilySpec, _require_int, build_family


class OpenProblemError(Exception):
    """Raised when a witness is requested for a case nobody has resolved."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _formula(value: int) -> SigmaResult:
    return SigmaResult(value=value, status="formula")


def _not_covered(note: str) -> SigmaResult:
    return SigmaResult(value=None, status="not_covered", note=note)


def _check_board(m: int, n: int) -> None:
    for side in (m, n):
        _require_int("grid", "dimensions", side, 1)


def _sigma_cycle(n: int, p: int, q: int | float) -> SigmaResult:
    if p == 1:
        return _formula(2 if q == 1 else 1)
    if p == 2:
        return _formula(_ceil_div(n + 1, 2) if q == 1 else _ceil_div(n, 2))
    return _formula(n)


def _sigma_complete(n: int, p: int, q: int | float) -> SigmaResult:
    if p > n - 1:
        return _formula(n)
    if p + q >= n:
        return _formula(p)
    return _formula(n - q)


def _sigma_complete_bipartite(r: int, s: int, p: int, q: int | float) -> SigmaResult:
    big, small = max(r, s), min(r, s)
    if p > big:
        return _formula(r + s)  # p exceeds the maximum degree
    if small < p <= big:
        if q >= small:
            return _formula(big)
        return _formula(big + small - q)
    return _not_covered(f"no closed form for complete bipartite with p <= {small}")


def _sigma_star(n: int, p: int, q: int | float) -> SigmaResult:
    """At ``p = 1``, ``max(1, n - 1 - q)``: each leaf forces the center; the
    center then needs at most ``q`` white leaves; seeding the center costs
    one more than seeding a leaf."""
    if p >= n:
        return _formula(n)
    if 2 <= p:
        return _formula(n - 1)
    return _formula(max(1, n - 1 - q))


#: family name -> closed form, called with the family's size parameters, p, q
_CLOSED_FORMS = {
    "path": lambda n, p, q: grid_sigma(p, q, 1, n),  # the 1 x n grid
    "cycle": _sigma_cycle,
    "complete": _sigma_complete,
    "complete_bipartite": _sigma_complete_bipartite,
    "star": _sigma_star,
    "grid": lambda m, n, p, q: grid_sigma(p, q, m, n),
}


def sigma_closed_form(spec: FamilySpec, params: SpreadParams) -> SigmaResult:
    """Closed-form value for a named family, or ``not_covered``.

    Covered: cycles, complete graphs, stars, complete bipartite graphs in
    the regime where p separates the two sides, and grids and paths (which
    delegate to :func:`grid_sigma`, a path as the 1 x n grid).
    """
    return _CLOSED_FORMS[spec.family](*spec.args, params.p, params.q)


def grid_sigma(p: int, q: int | float, m: int, n: int) -> SigmaResult:
    """Spreading number of the ``m x n`` grid, by parameter regime.

    With ``N`` the smaller and ``M`` the larger dimension: ``p`` above the
    maximum degree ``min(M-1, 2) + min(N-1, 2)`` forces every cell;
    ``p=1`` gives ``N`` for ``q=1`` and 1 otherwise; ``p=2`` has no proven
    formula on 2-row grids (``M >= 3``) with ``q=1``, and otherwise gives
    ``ceil((N+M+1)/2)`` at ``q=1`` with ``N >= 3``, 3 at ``q=1`` on the
    2 x 2 square, and ``ceil((N+M)/2)``; ``p=3`` is an open problem;
    ``p=4`` gives ``2M + 2N - 4 + floor((M-2)(N-2)/2)``.
    """
    return _grid_case(p, q, m, n)[0]


def _grid_case(p: int, q: int | float, m: int, n: int):
    """The grid's regime, decided once: its :class:`SigmaResult` and a
    zero-argument builder of witness cells, 1-based ``(col, row)`` on the
    ``M x N`` board with ``M >= N``, or ``None`` when there is no formula."""
    SpreadParams(p, q)  # reject malformed p and q before the board
    _check_board(m, n)
    M, N = max(m, n), min(m, n)
    if p > min(M - 1, 2) + min(N - 1, 2):  # p exceeds the maximum degree
        return _formula(M * N), lambda: {(c, r) for c in range(1, M + 1) for r in range(1, N + 1)}
    if p == 1:
        if q == 1:
            return _formula(N), lambda: {(1, r) for r in range(1, N + 1)}
        return _formula(1), lambda: {(1, 1)}
    if p == 2:
        if N == 2 < M and q == 1:
            note = "2-row grids with small white budget have no proven formula"
            return _not_covered(note), None
        if q == 1 and N >= 3:
            return _formula(_ceil_div(N + M + 1, 2)), lambda: _first_row_col_seed(M, N)
        if q == 1 and M == 2:  # the 4-cycle: any three vertices
            return _formula(3), lambda: {(1, 1), (1, 2), (2, 1)}
        # On a single row the every-other-cell pattern already meets the
        # strict white budget, so the diagonal seed covers q = 1 too.  Under
        # (2, inf) the blue perimeter never grows (Bollobas) and must reach
        # 2(N+M) from at most 4 per seed; a finite q only colors less.  On
        # 2 x M only the diagonal seed's first forcer has 2 white neighbors.
        return _formula(_ceil_div(N + M, 2)), lambda: _diagonal_seed(M, N)
    if p == 3:
        return SigmaResult(value=None, status="open"), None
    # p == 4 on grids with both sides >= 3: all boundary vertices are forced
    # and the interior needs a vertex cover.
    value = 2 * M + 2 * N - 4 + ((M - 2) * (N - 2)) // 2
    return _formula(value), lambda: _boundary_plus_cover(M, N)


def grid_cell_id(c: int, r: int, m: int, n: int) -> int:
    """Vertex id of 1-based cell ``(col, row)`` in the ``m x n`` grid."""
    if not (1 <= c <= m and 1 <= r <= n):
        raise ValueError(f"cell ({c}, {r}) outside {m} x {n} grid")
    return (c - 1) * n + (r - 1)


def grid_id_cell(v: int, m: int, n: int) -> tuple[int, int]:
    """1-based cell ``(col, row)`` of vertex ``v`` in the ``m x n`` grid; the inverse
    of :func:`grid_cell_id`, to read a trace as cells for :func:`blue_perimeter`."""
    if not 0 <= v < m * n:
        raise ValueError(f"vertex {v} outside {m} x {n} grid")
    return (v // n + 1, v % n + 1)


def _diagonal_seed(M: int, N: int) -> set[tuple[int, int]]:
    """Diagonal plus every-other-column top-row cells; spreads at p=2."""
    cells = {(i, i) for i in range(1, N + 1)}
    col = N + 2
    while col <= M:
        cells.add((col, N))
        col += 2
    if (M - N) % 2 == 1:
        cells.add((M, N))
    return cells


def _first_row_col_seed(M: int, N: int) -> set[tuple[int, int]]:
    """Bottom-row/left-column seed for the strict ``q = 1`` regime.

    Shape depends on the parities: a doubled start in the bottom row plus
    every other column, and every other row up the left column, with a
    doubled cell at whichever end the parity demands.
    """
    if (M + N) % 2 == 1:
        if M % 2 == 1:  # put the even side along the bottom row
            return {(r, c) for (c, r) in _first_row_col_seed(N, M)}
        cols = {1, 2} | set(range(4, M + 1, 2))
        rows = set(range(3, N + 1, 2))
    elif M % 2 == 1:  # both odd
        cols = {1, 2} | set(range(4, M, 2)) | {M}
        rows = set(range(3, N + 1, 2))
    else:  # both even
        cols = {1} | set(range(2, M + 1, 2))
        rows = set(range(3, N - 2, 2)) | {N - 1, N}
    return {(c, 1) for c in cols} | {(1, r) for r in rows}


def _boundary_plus_cover(M: int, N: int) -> set[tuple[int, int]]:
    """All boundary cells plus the smaller interior chessboard class."""
    cells = {
        (c, r)
        for c in range(1, M + 1)
        for r in range(1, N + 1)
        if c in (1, M) or r in (1, N)
    }
    cells |= {
        (c, r)
        for c in range(2, M)
        for r in range(2, N)
        if (c + r) % 2 == 1
    }
    return cells


def grid_witness(p: int, q: int | float, m: int, n: int) -> frozenset[tuple[int, int]]:
    """Explicit minimum spreading set for a covered grid case.

    Returns 1-based ``(col, row)`` cells; the set is re-validated through
    the engine and matches :func:`grid_sigma` in size.  Open cases raise
    :class:`OpenProblemError`; cases without a proven formula, and grids
    over :data:`~spreadnum.graphs.MAX_GRAPH_SIZE`, raise ``ValueError``.
    """
    sig, witness = _grid_case(p, q, m, n)
    if sig.status == "open":
        raise OpenProblemError(f"no witness known for p={p} on the {m}x{n} grid")
    if witness is None:
        raise ValueError(sig.note)
    G = build_family(FamilySpec("grid", (m, n)))
    cells = witness()
    if n > m:
        cells = {(r, c) for (c, r) in cells}
    assert len(cells) == sig.value, "witness size must match the formula"
    ids = [grid_cell_id(c, r, m, n) for c, r in cells]
    assert is_spreading_set(G, SpreadParams(p, q), ids), "witness failed validation"
    return frozenset(cells)


def blue_perimeter(m: int, n: int, cells) -> int:
    """Total boundary length of the union of unit squares at ``cells``.

    Equals ``4 |S| - 2 (number of axis-adjacent pairs inside S)``.  The
    full board measures ``2 (m + n)``.
    """
    _check_board(m, n)
    S = set()
    for c, r in cells:
        if not (1 <= c <= m and 1 <= r <= n):
            raise ValueError(f"cell ({c}, {r}) outside {m} x {n} board")
        S.add((c, r))
    adjacent = sum(
        ((c + 1, r) in S) + ((c, r + 1) in S)
        for (c, r) in S
    )
    return 4 * len(S) - 2 * adjacent


@dataclass(frozen=True)
class ConjectureProbe:
    """Desk-scale evidence for the equality of two open grid values."""

    m: int
    n: int
    sigma_33: int | None
    sigma_34: int | None
    equal: bool | None

    to_json = asdict


def probe_grid_conjecture(m: int, n: int, budget: int | None = None) -> ConjectureProbe:
    """Exactly compare the grid's (3,3)- and (3,4)-spreading numbers.

    Results are evidence, not proof; a shared evaluation budget may leave
    either side unresolved (reported as None).  Grids over
    :data:`~spreadnum.graphs.MAX_GRAPH_SIZE` raise ``ValueError``.
    """
    # The module's only solver use: the other formulas never load the solver.
    from .solver import BudgetExhausted, _as_budget, sigma_exact

    G = build_family(FamilySpec("grid", (m, n)))
    shared = _as_budget(budget)
    values: list[int | None] = []
    for qq in (3, 4):
        try:
            values.append(sigma_exact(G, SpreadParams(3, qq), shared).value)
        except BudgetExhausted:
            values.append(None)
    s33, s34 = values
    equal = (s33 == s34) if (s33 is not None and s34 is not None) else None
    return ConjectureProbe(m=m, n=n, sigma_33=s33, sigma_34=s34, equal=equal)
