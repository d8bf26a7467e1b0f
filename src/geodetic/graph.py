"""Simple undirected graphs and the whitespace edge-list format.

The on-disk format is one "u v" pair per line, 0-based ids, lines starting
with '#' or '%' ignored.  The writer always emits u < v sorted
lexicographically, so serialization is canonical and round-trips exactly.

A Graph stores its adjacency only as read-only CSR arrays: nbrs[start[v]:
start[v + 1]] are v's neighbours, ascending.  They are built by one sort of
integer edge codes u*n + v (u < v) in both orientations (csr_of_codes), so
no per-edge Python object is kept; generate hands its codes to that builder
directly, and Graph(n, edges) encodes its pairs first.  The neighbour
tuples (adj) are built from the arrays on first read.  A Graph keeps its
BFS depth from vertex 0 once computed; the forced core of simplicial
vertices, read off the distances, lives on intervals.Instance.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Iterable, Iterator

import numpy as np

from .errors import EdgeListParseError, ValidationError

COMMENT_CHARS = "#%"


def csr_of_codes(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (start, nbrs) of the edges with distinct int64 codes u*n + v, u < v.

    Both orientations of every code are sorted together, so each vertex's
    neighbours come out ascending.  start is intp; the ids take the
    narrowest unsigned dtype that holds n - 1.  Both arrays are read-only.
    """
    u, v = np.divmod(codes, n)
    both = np.concatenate((codes, v * n + u))
    both.sort()
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(u, minlength=n) + np.bincount(v, minlength=n), out=start[1:])
    nbrs = (both % n).astype(np.min_scalar_type(n - 1))
    start.setflags(write=False)
    nbrs.setflags(write=False)
    return start, nbrs


def _edge_codes(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Distinct sorted codes u*n + v (u < v) of the pairs in edges.

    A bad pair raises as a check of each pair in input order would: the
    first pair that is out of range or a self-loop is the one reported.
    """
    pairs = edges if isinstance(edges, list) else list(edges)
    lo = None
    try:
        if set(map(len, pairs)) <= {2}:
            flat = np.fromiter(map(index, chain.from_iterable(pairs)), dtype=np.int64,
                               count=2 * len(pairs))
            lo, hi = np.sort(flat.reshape(-1, 2), axis=1).T
    except (TypeError, OverflowError):
        pass  # a pair without a length, an id that is no int, or one beyond int64
    if lo is None or ((lo < 0) | (hi >= n) | (lo == hi)).any():
        checked = []
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"vertex id out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            checked.append((index(u), index(v)))
        return _edge_codes(n, checked)
    codes = lo * n + hi
    codes.sort()
    return codes[np.diff(codes, prepend=-1) != 0]


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Duplicate edges collapse; self-loops are rejected.  Connectivity is not
    required here: solver entry points enforce it separately so that parsing
    and inspection still work on arbitrary input.
    """

    __slots__ = ("n", "m", "_start", "_nbrs", "_adj", "_depth")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValidationError("graph needs at least one vertex")
        self._set(n, *csr_of_codes(n, _edge_codes(n, edges)))

    @classmethod
    def of_csr(cls, n: int, start: np.ndarray, nbrs: np.ndarray) -> Graph:
        """The graph whose CSR arrays csr_of_codes returned, taken as they are."""
        g = cls.__new__(cls)
        g._set(n, start, nbrs)
        return g

    def _set(self, n: int, start: np.ndarray, nbrs: np.ndarray) -> None:
        self.n = n
        self.m = len(nbrs) // 2
        self._start = start
        self._nbrs = nbrs
        self._adj = None    # the neighbour tuples, once read
        self._depth = -1    # bfs_depth's answer (None: disconnected); -1 until it runs

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, built from the CSR arrays on first read."""
        if self._adj is None:
            ids, start = self._nbrs.tolist(), self._start.tolist()
            self._adj = tuple(tuple(ids[a:b]) for a, b in zip(start, start[1:]))
        return self._adj

    def degree(self, v: int) -> int:
        return int(self._start[v + 1] - self._start[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._nbrs[self._start[v]:self._start[v + 1]].tolist())

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        rows = np.repeat(np.arange(self.n), np.diff(self._start))
        upper = self._nbrs > rows
        return zip(rows[upper].tolist(), self._nbrs[upper].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self._start, other._start)
                and np.array_equal(self._nbrs, other._nbrs))

    def __hash__(self) -> int:
        return hash((self.n, self._start.tobytes(), self._nbrs.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bfs_depth(g: Graph) -> int | None:
    """Depth of a BFS from vertex 0, which is vertex 0's eccentricity, or
    None when the BFS leaves some vertex unreached.  Run once per graph."""
    if g._depth == -1:
        g._depth = _scan_depth(g)
    return g._depth


# A BFS level with fewer frontier vertices than this is scanned in Python;
# a wider one in a few numpy calls, whose fixed cost (about 15 us) would
# dominate the thousands of narrow levels of a long, thin graph.
NARROW_FRONTIER = 16


def _scan_depth(g: Graph) -> int | None:
    # seen is one bytearray, read by the Python steps and, through seen_np,
    # by the numpy steps; a numpy step gathers the frontier's neighbour
    # lists from the CSR arrays at once and keeps each unseen id once: of
    # an id's positions in new, only the one whose write into last stuck
    # reads it back
    start, nbrs = csr(g)
    bounds = start.tolist()
    seen = bytearray(g.n)
    seen[0] = 1
    seen_np = np.frombuffer(seen, dtype=bool)
    last = np.empty(g.n, dtype=np.intp)
    frontier = [0]
    reached = 1
    depth = 0
    while True:
        if len(frontier) < NARROW_FRONTIER:
            found = []
            for u in frontier:
                for v in nbrs[bounds[u]:bounds[u + 1]].tolist():
                    if not seen[v]:
                        seen[v] = 1
                        found.append(v)
        else:
            wide = np.array(frontier)
            lo = start[wide]
            count = start[1:][wide] - lo
            ends = np.cumsum(count)
            new = nbrs[np.arange(ends[-1]) + np.repeat(lo - ends + count, count)]
            new = new[~seen_np[new]]
            seen_np[new] = True
            pos = np.arange(len(new))
            last[new] = pos
            found = new[last[new] == pos].tolist()
        if not found:
            return depth if reached == g.n else None
        reached += len(found)
        depth += 1
        frontier = found


def csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists as CSR: nbrs[start[v]:start[v + 1]] are v's neighbours.

    These are the graph's own read-only arrays; the ids take the narrowest
    unsigned dtype that holds n - 1.
    """
    return g._start, g._nbrs


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
    return "".join([f"{u} {v}\n" for u, v in g.edges()])
