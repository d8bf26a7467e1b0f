"""Simple undirected graphs and the whitespace edge-list format.

The on-disk format is one "u v" pair per line, 0-based ids, lines starting
with '#' or '%' ignored.  The writer always emits u < v sorted
lexicographically, so serialization is canonical and round-trips exactly.
A Graph holds sorted neighbour tuples, and keeps its BFS depth from vertex 0
and its CSR arrays once something asks for them; the forced core of
simplicial vertices, read off the distances, lives on intervals.Instance.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .errors import EdgeListParseError, ValidationError

COMMENT_CHARS = "#%"


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Duplicate edges collapse; self-loops are rejected.  Connectivity is not
    required here: solver entry points enforce it separately so that parsing
    and inspection still work on arbitrary input.
    """

    __slots__ = ("n", "m", "adj", "_depth", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValidationError("graph needs at least one vertex")
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            neighbors[u].append(v)
            neighbors[v].append(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(nbrs))) for nbrs in neighbors
        )
        self.m = sum(map(len, self.adj)) // 2
        self._depth = -1    # bfs_depth's answer (None: disconnected); -1 until it runs
        self._csr = None    # csr's arrays, once built

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bfs_depth(g: Graph) -> int | None:
    """Depth of a BFS from vertex 0, which is vertex 0's eccentricity, or
    None when the BFS leaves some vertex unreached.  Run once per graph."""
    if g._depth == -1:
        g._depth = _scan_depth(g)
    return g._depth


def _scan_depth(g: Graph) -> int | None:
    seen = bytearray(g.n)
    seen[0] = 1
    frontier = [0]
    reached = 1
    depth = 0
    while True:
        found = []
        for u in frontier:
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    found.append(v)
        if not found:
            return depth if reached == g.n else None
        reached += len(found)
        depth += 1
        frontier = found


def csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists as CSR: nbrs[start[v]:start[v + 1]] are v's neighbours.

    Built once per graph and kept, read-only.  The ids take the narrowest
    unsigned dtype that holds n - 1.
    """
    if g._csr is None:
        g._csr = _build_csr(g)
    return g._csr


def _build_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    start = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, g.adj), dtype=np.intp, count=g.n), out=start[1:])
    nbrs = np.fromiter(chain.from_iterable(g.adj), dtype=np.min_scalar_type(g.n - 1),
                       count=int(start[-1]))
    start.setflags(write=False)
    nbrs.setflags(write=False)
    return start, nbrs


def is_connected(g: Graph) -> bool:
    """True iff a BFS from vertex 0 reaches all n vertices."""
    return bfs_depth(g) is not None


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise ValidationError("graph is disconnected")


def parse_edge_list(text: str | Iterable[str], one_based: bool = False,
                    strict: bool = False) -> Graph:
    """Parse edge-list text into a Graph.

    Args:
        text: full file contents, or an iterable of lines.
        one_based: subtract 1 from every vertex id before validation.
        strict: additionally require the parsed graph to be connected.

    Non-contiguous vertex ids are compacted to 0..n-1 in order of first
    appearance; already-contiguous ids are kept as written.
    """
    lines = text.splitlines() if isinstance(text, str) else list(text)
    raw_edges: list[tuple[int, int]] = []
    first_seen: dict[int, None] = {}
    for line_no, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s[0] in COMMENT_CHARS:
            continue
        parts = s.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {line_no}: expected two vertex ids, got {s!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {line_no}: non-integer vertex id in {s!r}", line_no) from None
        if one_based:
            u -= 1
            v -= 1
        if u < 0 or v < 0:
            raise EdgeListParseError(
                f"line {line_no}: negative vertex id in {s!r}", line_no)
        if u == v:
            raise ValidationError(f"line {line_no}: self-loop at vertex {u}")
        first_seen.setdefault(u)
        first_seen.setdefault(v)
        raw_edges.append((u, v))
    if not raw_edges:
        raise EdgeListParseError("no edges found in input", 0)
    ids = list(first_seen)
    top = max(ids)
    if len(ids) == top + 1:
        # contiguous 0..top: keep ids as written
        n = top + 1
        edges = raw_edges
    else:
        remap = {orig: idx for idx, orig in enumerate(ids)}
        n = len(ids)
        edges = [(remap[u], remap[v]) for u, v in raw_edges]
    g = Graph(n, edges)
    if strict:
        require_connected(g)
    return g


def write_edge_list(g: Graph) -> str:
    """Canonical text form: 0-based "u v" lines, u < v, lexicographic order."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())
