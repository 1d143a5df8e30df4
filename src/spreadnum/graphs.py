"""Undirected simple graphs with dense integer vertex ids, plus named families.

Vertices are always ``0..n-1``.  Graphs are immutable after construction and
safe to share between threads or workers.  The only ingestion format is a
plain edge-list text document (one ``u v`` pair per line, optional ``n COUNT``
header that admits isolated vertices and bounds every id below ``COUNT``);
serialization reproduces it bit-exactly.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class GraphFormatError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


#: Most vertices, and most edges, of a graph built from a description: an
#: edge-list document, a named family or a gadget.  A larger one is rejected
#: before anything is allocated for it.  The largest inputs the tests and the
#: benchmark build this way are 10^5-vertex trees and 300 x 300 grids.
MAX_GRAPH_SIZE = 1_000_000


def _check_size(vertices: int, edges: int) -> None:
    if vertices > MAX_GRAPH_SIZE or edges > MAX_GRAPH_SIZE:
        raise ValueError(
            f"graph too large: {vertices} vertices and {edges} edges, "
            f"at most {MAX_GRAPH_SIZE} of each"
        )


def _is_int(value) -> bool:
    """The one integer test: exactly ``int``, never ``bool`` (hot loops inline it)."""
    return type(value) is int


def _require_int(what: str, name: str, value: int, minimum: int) -> None:
    """The package's one integer-parameter check, shared by every module."""
    if not _is_int(value) or value < minimum:
        raise ValueError(f"{what} requires integer {name} >= {minimum}, got {value}")


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[int, str], ...] | None = None


class Graph(_GraphFields):
    """Immutable undirected simple graph.

    ``adj[v]`` is the sorted tuple of neighbors of ``v``.  ``labels`` is an
    optional sorted tuple of ``(vertex, label)`` pairs used by gadget builders
    to tag constructed vertices.  The class declares no ``__slots__``, so its
    cached properties have an instance ``__dict__`` to live in.
    """

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: dict[int, str] | None = None,
    ) -> "Graph":
        """Build a graph on vertices ``0..n-1``; duplicate edges collapse."""
        _require_int("graph", "vertex count", n, 0)
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u!r}, {v!r}) needs integer ids below n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        lab = None
        if labels is not None:
            for v in labels:
                if not (_is_int(v) and 0 <= v < n):
                    raise ValueError(f"label on unknown vertex {v!r}")
            lab = tuple(sorted(labels.items()))
        return Graph(n, tuple(tuple(sorted(s)) for s in nbrs), lab)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj))

    @cached_property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @cached_property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once, as ``(u, v)`` with ``u < v``, sorted."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    @cached_property
    def label_map(self) -> dict[int, str]:
        return dict(self.labels) if self.labels else {}

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by smallest contained vertex."""
        parent = [-2] * self.n
        return [
            frozenset(_bfs(self.adj, s, parent))
            for s in range(self.n)
            if parent[s] == -2
        ]

    @cached_property
    def is_connected(self) -> bool:
        return self.n > 0 and len(_bfs(self.adj, 0, [-2] * self.n)) == self.n

    @cached_property
    def is_tree(self) -> bool:
        return self.is_connected and self.edge_count == self.n - 1


def _bfs(adj, root: int, parent: list[int]) -> list[int]:
    """Breadth-first order from ``root`` over the vertices whose ``parent`` is
    -2 (unvisited), recording each one's BFS parent (-1 at ``root``).  A
    vertex whose ``parent`` is anything else is never entered, so a caller
    confines the search to a vertex subset by marking the rest first."""
    parent[root] = -1
    order = [root]
    for u in order:
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                order.append(v)
    return order


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document.

    Lines are ``u v`` integer pairs (0-based ids); an optional ``n COUNT``
    line anywhere bounds the ids and fixes the vertex count, so isolated
    vertices survive.  Self-loops and non-integer tokens are rejected with
    their line number.  A document with more than :data:`MAX_GRAPH_SIZE`
    vertices or edges raises ``ValueError`` before the graph is built.
    """
    header: int | None = None
    us: list[int] = []
    vs: list[int] = []
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), 1):
        if len(tokens) == 2 and tokens[0] != "n":
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raw = text.splitlines()[lineno - 1]
                raise GraphFormatError(f"line {lineno}: non-integer token in {raw!r}") from None
            if u < 0 or v < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
            us.append(u)
            vs.append(v)
        elif not tokens:
            continue
        elif tokens[0] == "n":
            if header is not None:
                raise GraphFormatError(f"line {lineno}: duplicate 'n' header")
            if len(tokens) != 2:
                raise GraphFormatError(f"line {lineno}: header must be 'n COUNT'")
            try:
                header = int(tokens[1])
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: non-integer vertex count {tokens[1]!r}"
                ) from None
            if header < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
        else:
            raw = text.splitlines()[lineno - 1]
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
    max_id = max(max(us, default=-1), max(vs, default=-1))
    if header is not None and max_id >= header:
        raise GraphFormatError(f"vertex id {max_id} outside header count {header}")
    n = max_id + 1 if header is None else header
    _check_size(n, len(us))
    # Every pair is already checked: exact ints, non-negative, no loop, below n.
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(us, vs):
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def serialize_edge_list(G: Graph) -> str:
    """Deterministic edge-list text; ``parse_edge_list`` round-trips it."""
    return f"n {G.n}\n" + "".join(
        f"{u} {v}\n" for u, nbrs in enumerate(G.adj) for v in nbrs if v > u
    )


# ---------------------------------------------------------------------------
# Named families


def path(n: int) -> Graph:
    """Path on ``n`` vertices: ``i`` joined to ``i + 1``."""
    _require_int("path", "size", n, 1)
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices: ``i`` joined to ``(i + 1) mod n``."""
    _require_int("cycle", "size", n, 3)
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    _require_int("complete", "size", n, 1)
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(r: int, s: int) -> Graph:
    """Complete bipartite graph: sides ``0..r-1`` and ``r..r+s-1``."""
    _require_int("complete_bipartite", "size", r, 1)
    _require_int("complete_bipartite", "size", s, 1)
    return Graph.from_edges(r + s, ((i, r + j) for i in range(r) for j in range(s)))


def star(n: int) -> Graph:
    """Star on ``n`` vertices: center 0 joined to leaves ``1..n-1``."""
    _require_int("star", "size", n, 1)
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def grid(m: int, n: int) -> Graph:
    """Grid with ``m`` columns and ``n`` rows; cell ``(c, r)`` (1-based) has
    id ``(c - 1) * n + (r - 1)``.  This is the Cartesian product of the paths
    P_m and P_n, built directly a column at a time: ``v``'s neighbors are
    ``(v - n, v - 1, v + 1, v + n)``, already sorted, clipped at the border.
    One row has the adjacency of one column, so it is built as one."""
    _require_int("grid", "size", m, 1)
    _require_int("grid", "size", n, 1)
    if n == 1:
        m, n = 1, m
    cells = m * n
    adj: list[tuple[int, ...]] = []
    for top in range(0, cells, n):
        ranges = [range(top - 1, top + n - 1), range(top + 1, top + n + 1)]
        if top:
            ranges.insert(0, range(top - n, top))
        if top + n < cells:
            ranges.append(range(top + n, top + 2 * n))
        column = list(zip(*ranges))
        column[0] = tuple(w for w in column[0] if w != top - 1)
        column[-1] = tuple(w for w in column[-1] if w != top + n)
        adj += column
    return Graph(cells, tuple(adj))


#: name -> (builder, parameter count, parameters -> (vertices, edges))
FAMILIES = {
    "path": (path, 1, lambda n: (n, n - 1)),
    "cycle": (cycle, 1, lambda n: (n, n)),
    "complete": (complete, 1, lambda n: (n, n * (n - 1) // 2)),
    "complete_bipartite": (complete_bipartite, 2, lambda r, s: (r + s, r * s)),
    "star": (star, 1, lambda n: (n, n - 1)),
    "grid": (grid, 2, lambda m, n: (m * n, m * (n - 1) + n * (m - 1))),
}


class FamilySpec(NamedTuple("FamilySpec", [("family", str), ("args", tuple)])):
    """A named graph family with its parameters.

    ``args`` holds the family's integer size parameters.  They are validated
    on construction so closed-form evaluators can trust a spec without
    building the graph.
    """

    __slots__ = ()

    def __new__(cls, family: str, args: tuple) -> FamilySpec:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if len(args) != FAMILIES[family][1]:
            raise ValueError(f"{family} takes {FAMILIES[family][1]} parameter(s), got {len(args)}")
        minimum = 3 if family == "cycle" else 1
        for a in args:
            _require_int(family, "size", a, minimum)
        return super().__new__(cls, family, args)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph described by ``spec``; a family member with more
    than :data:`MAX_GRAPH_SIZE` vertices or edges raises ``ValueError``."""
    builder, _, size = FAMILIES[spec.family]
    _check_size(*size(*spec.args))
    return builder(*spec.args)


def family_from_tokens(tokens: list[str]) -> FamilySpec:
    """Parse CLI-style tokens like ``["grid", "3", "3"]``."""
    if not tokens:
        raise ValueError("empty family description")
    name, raw_args = tokens[0], tokens[1:]
    try:
        args = tuple(int(a) for a in raw_args)
    except ValueError:
        raise ValueError(f"non-integer family parameter in {raw_args}") from None
    return FamilySpec(name, args)

