"""Shortest-path structure: distances, interval sets, closures.

The interval I(i, j) is the set of vertices lying on at least one shortest
i-j path, endpoints included; I(i, i) = {i}.  A vertex k is in I(i, j)
exactly when d(i, k) + d(k, j) = d(i, j), which is how the table is built
from the distance matrix.  Intervals are integer bitmasks in a plain square
list of lists, read in place as table[i][j]; the two orientations of a pair
share one int object.  An Instance bundles a connected graph with its
distances and forced core (the vertices inside no shortest path, which every
geodetic set contains) so that several solvers share one build.  Its table
is built on first read, at most once; its rows give row v alone (one n x n
compare, interval_row) until the table exists, and the table's own rows
after.  Greedy, exact and brute force read the table; locally greedy,
add-one, the final check of every result and `geodetic verify` read only
the rows of the vertices they pick.

A Cover is a vertex set grown one vertex at a time, with its closure and,
for every vertex j, the union of I(s, j) over the members s.  Greedy, add-one,
locally greedy and the exact search's forced core all grow their sets
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, or_

import numpy as np

from .bitset import full_mask, mask_of, vertices_of
from .errors import ValidationError
from .graph import Graph, bfs_depth

# Largest interval table Instance.of will build, in estimated bytes.
TABLE_MEMORY_CAP = 4 << 30

# Peak memory allowed per P(k) entry of an LP export.  On paths with
# n = 200-400 (CPython 3.11, 64-bit Linux; fresh process, ru_maxrss minus the
# same command on P3), peak RSS grows by 5.0-5.7 bytes per entry for
# `geodetic export-ilp`, which streams its rows to the file, and by 27.5-28.9
# for export_ilp, which returns the text as one string.  32 bounds both with
# about 10% to spare.  It admits paths up to 929 vertices, whose ids have at
# most three digits, as at n = 400, so the terms are no longer than measured.
PK_ENTRY_BYTES = 32


def table_bytes(n: int) -> int:
    """Estimated memory of an n-vertex table: list slots plus the int masks."""
    return n * n * 8 + n * (n + 1) // 2 * (28 + 4 * -(-n // 30))


def require_table_fits(n: int) -> None:
    """Reject an n-vertex graph whose interval table would exceed the cap.

    Called before any O(n^2) allocation, so an oversized input fails fast.
    """
    if table_bytes(n) > TABLE_MEMORY_CAP:
        raise ValidationError(
            f"interval table for n={n} needs about {table_bytes(n) / 2**30:.1f} GiB, "
            f"over the {TABLE_MEMORY_CAP >> 30} GiB cap")


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Floyd-Warshall over hop counts, one vectorized relaxation per pivot.

    One BFS from vertex 0 comes first: it rejects a disconnected graph before
    the n^2 allocation, and its depth e bounds every distance by
    min(n - 1, 2e).  Unreached pairs start at the sentinel min(n, 2e) + 1,
    above every distance, and a relaxation adds two entries, so the array
    takes the narrowest unsigned dtype that holds two sentinels: uint8
    whenever e <= 63 (at any n) or n <= 126, and uint16 beyond.
    Returns the read-only (n, n) array.  Floyd-Warshall is memory-bound, so
    the narrow dtype is what makes it fast; the interval and P(k) builds,
    which add rows of it, get faster too.
    """
    n = g.n
    depth = bfs_depth(g)
    if depth is None:
        raise ValidationError("graph is disconnected")
    sentinel = min(n, 2 * depth) + 1
    d = np.full((n, n), sentinel, dtype=np.min_scalar_type(2 * sentinel))
    np.fill_diagonal(d, 0)
    for u, v in g.edges():
        d[u, v] = d[v, u] = 1
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[k, None, :], out=d)
    d.setflags(write=False)
    return d


def _masks(member: np.ndarray) -> list[int]:
    """One int mask per row of a boolean matrix: bit k set where column k is."""
    packed = np.packbits(member, axis=1, bitorder="little")
    chunks = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    return list(map(int.from_bytes, chunks, repeat("little")))


def interval_row(d: np.ndarray, v: int) -> list[int]:
    """Row v of interval_table(d) alone: the mask of I(v, j) for every j."""
    dv = d[v]
    # member[j, k] == (d(v,k) + d(k,j) == d(v,j))
    return _masks((dv[None, :] + d) == dv[:, None])


def interval_table(d: np.ndarray) -> list[list[int]]:
    """Square table: rows[i][j] is the mask of I(i, j) for every i and j.

    Only the j >= i half is computed; rows[j][i] is the same int object as
    rows[i][j], so the lower half costs list slots, not new masks.
    """
    rows: list[list[int]] = []
    for i in range(len(d)):
        di = d[i]
        # member[j - i, k] == (d(i,k) + d(k,j) == d(i,j)) for j >= i
        rows.append(list(map(itemgetter(i), rows))
                    + _masks((di[None, :] + d[i:]) == di[i:, None]))
    return rows


def closure(table: list[list[int]] | IntervalRows, members: int) -> int:
    """Union of I(a, b) over all pairs a <= b drawn from the member mask.

    Reads only the members' rows, so an Instance's rows serve as well as
    its table.
    """
    out = 0
    vs = vertices_of(members)
    for pos, a in enumerate(vs):
        row = table[a]
        for b in vs[pos:]:
            out |= row[b]
    return out


def is_geodetic(table: list[list[int]] | IntervalRows, members: int) -> bool:
    return closure(table, members) == full_mask(len(table))


class Cover:
    """A growing vertex set with its closure and per-vertex gains.

    Invariants: coverage == closure(table, members), and gains[j] is the
    union of table[s][j] over the members s, so adding j would grow the
    coverage by gains[j] | 1 << j.  The table, or an Instance's rows, which
    the cover reads one member at a time, is shared and never mutated.
    """

    __slots__ = ("table", "members", "coverage", "gains")

    def __init__(self, table: list[list[int]] | IntervalRows, members: int = 0):
        self.table = table
        self.members = 0
        self.coverage = 0
        self.gains = [0] * len(table)
        for v in vertices_of(members):
            self.add(v)

    def add(self, v: int) -> None:
        self.coverage |= self.gains[v] | 1 << v
        self.members |= 1 << v
        self.gains = list(map(or_, self.gains, self.table[v]))


class IntervalRows:
    """Rows of the interval table by vertex: rows[v] is the list of I(v, j) masks.

    A row is built alone, by interval_row, and kept until the whole table
    is built; from then on whole holds the table (None before) and rows[v]
    is its own row v.  Only the distances and the rows are held, never the
    Instance, so nothing here outlives it.
    """

    __slots__ = ("dist", "built", "whole")

    def __init__(self, dist: np.ndarray):
        self.dist = dist
        self.built: dict[int, list[int]] = {}
        self.whole: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self.dist)

    def __getitem__(self, v: int) -> list[int]:
        if self.whole is not None:
            return self.whole[v]
        row = self.built.get(v)
        if row is None:
            row = self.built[v] = interval_row(self.dist, v)
        return row

    def table(self) -> list[list[int]]:
        """The whole table, built on the first call."""
        if self.whole is None:
            self.whole = interval_table(self.dist)
            self.built.clear()
        return self.whole


@dataclass(frozen=True, eq=False)
class Instance:
    """A connected graph with its distances, forced core and interval rows.

    Every solver accepts a Graph or an Instance; building the Instance once
    and passing it to several solvers shares one distance build and at most
    one table build.
    """

    graph: Graph
    dist: np.ndarray           # read-only hop distances, from all_pairs_distances
    forced: int                # mask of the vertices inside no shortest path
    rows: IntervalRows         # row v alone until the table is built

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def table(self) -> list[list[int]]:
        """Square interval masks, from interval_table: built on first read."""
        return self.rows.table()

    @classmethod
    def of(cls, x: Graph | Instance) -> Instance:
        """x itself when it is already an Instance, else a fresh build."""
        if isinstance(x, Instance):
            return x
        require_table_fits(x.n)
        dist = all_pairs_distances(x)
        # v is forced iff all deg * (deg - 1) ordered pairs of its neighbours
        # are edges; (A @ A) * A counts them, exact in float32 as the cap
        # keeps n below 4096, so every count stays under 2^24
        adj = (dist == 1).astype(np.float32)
        deg = adj.sum(axis=1)
        linked = ((adj @ adj) * adj).sum(axis=1)
        forced = mask_of(np.flatnonzero(linked == deg * (deg - 1)).tolist())
        return cls(x, dist, forced, IntervalRows(dist))


def pk_table(d: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each vertex k, the pairs i < j whose interval contains k.

    A pair is named by its index in the lexicographic pair list, which is
    also the row-major order of the upper triangle: (0, 1), (0, 2), ...,
    (n - 2, n - 1).  Each P(k) is an ascending, read-only int32 array of
    those indices (int32 holds C(n, 2) up to n = 65536, far past the table
    cap), so an entry costs four bytes and no Python object, and the LP
    renderer looks each pair's name up by index.  A path has about
    n^3 / 6 entries, so this raises ValidationError as soon as the entries
    so far, at PK_ENTRY_BYTES each, pass TABLE_MEMORY_CAP.
    """
    n = len(d)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    span = d[upper]
    per_k = []
    entries = 0
    for k in range(n):
        hits = np.flatnonzero((d[:, k, None] + d[k, None, :])[upper] == span).astype(np.int32)
        entries += len(hits)
        if entries * PK_ENTRY_BYTES > TABLE_MEMORY_CAP:
            raise ValidationError(
                f"P(k) lists for n={n} pass {entries} entries, over the "
                f"{TABLE_MEMORY_CAP / 2**30:g} GiB cap at {PK_ENTRY_BYTES} bytes each")
        hits.setflags(write=False)
        per_k.append(hits)
    return tuple(per_k)
