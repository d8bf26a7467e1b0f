"""Shortest-path structure: distances, interval sets, closures.

The interval I(i, j) is the set of vertices lying on at least one shortest
i-j path, endpoints included; I(i, i) = {i}.  A vertex k is in I(i, j)
exactly when d(i, k) + d(k, j) = d(i, j), which is how the table is built
from the distance matrix.  Intervals are stored as integer bitmasks in a
triangular i <= j layout.  An Instance bundles a connected graph with its
distances and table so that several solvers can share one build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitset import full_mask, vertices_of
from .errors import ValidationError
from .graph import Graph, require_connected


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; d is a read-only (n, n) int32 array."""

    n: int
    d: np.ndarray

    def diameter(self) -> int:
        return int(self.d.max())


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Floyd-Warshall over hop counts, one vectorized relaxation per pivot."""
    n = g.n
    d = np.full((n, n), n + 1, dtype=np.int32)  # n+1 acts as infinity
    np.fill_diagonal(d, 0)
    for u, v in g.edges():
        d[u, v] = d[v, u] = 1
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[k, None, :], out=d)
    if int(d.max()) >= n:
        raise ValidationError("distance matrix undefined: graph is disconnected")
    d.setflags(write=False)
    return DistanceMatrix(n, d)


class IntervalTable:
    """Bitmask interval sets for every unordered vertex pair.

    rows[i][j - i] is the mask of I(i, j) for j >= i.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[list[int]]):
        self.n = n
        self.rows = rows

    def get(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.rows[i][j - i]


def interval_table(dist: DistanceMatrix) -> IntervalTable:
    n, d = dist.n, dist.d
    rows = []
    for i in range(n):
        di = d[i]
        # member[j, k] == (d(i,k) + d(k,j) == d(i,j))
        member = (di[None, :] + d) == di[:, None]
        packed = np.packbits(member, axis=1, bitorder="little")
        rows.append([int.from_bytes(packed[j].tobytes(), "little")
                     for j in range(i, n)])
    return IntervalTable(n, rows)


def closure(table: IntervalTable, members: int) -> int:
    """Union of I(a, b) over all pairs a <= b drawn from the member mask."""
    out = 0
    vs = vertices_of(members)
    for pos, a in enumerate(vs):
        row = table.rows[a]
        for b in vs[pos:]:
            out |= row[b - a]
    return out


def is_geodetic(table: IntervalTable, members: int) -> bool:
    return closure(table, members) == full_mask(table.n)


@dataclass(frozen=True, eq=False)
class Instance:
    """A connected graph with its distances and interval table.

    Every solver accepts a Graph or an Instance; building the Instance once
    and passing it to several solvers shares one distance and table build.
    """

    graph: Graph
    dist: DistanceMatrix
    table: IntervalTable

    @property
    def n(self) -> int:
        return self.graph.n

    @classmethod
    def of(cls, x: Graph | Instance) -> Instance:
        """x itself when it is already an Instance, else a fresh build."""
        if isinstance(x, Instance):
            return x
        require_connected(x)
        dist = all_pairs_distances(x)
        return cls(x, dist, interval_table(dist))


def pk_table(dist: DistanceMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each vertex k, the pairs (i, j), i < j, whose interval contains k."""
    n, d = dist.n, dist.d
    iu, ju = np.triu_indices(n, k=1)
    per_k = []
    for k in range(n):
        member = (d[:, k, None] + d[k, None, :]) == d
        sel = member[iu, ju]
        per_k.append(tuple(zip(iu[sel].tolist(), ju[sel].tolist())))
    return tuple(per_k)


def sssp_intervals(g: Graph, v: int) -> list[int]:
    """One interval-table row from a single source, no all-pairs matrix.

    Runs a breadth-first pass from v, then accumulates shortest-path DAG
    ancestors in order of increasing distance: the ancestor set of j is j
    plus the union of ancestor sets of its predecessors.  Entry j is the
    bitmask of I(v, j).
    """
    n = g.n
    dist = [-1] * n
    dist[v] = 0
    frontier = [v]
    order = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        nxt.sort()
        order.extend(nxt)
        frontier = nxt
    if len(order) != n:
        raise ValidationError("single-source pass did not reach every vertex")
    anc = [0] * n
    anc[v] = 1 << v
    for j in order[1:]:
        mask = 1 << j
        target = dist[j] - 1
        for p in g.adj[j]:
            if dist[p] == target:
                mask |= anc[p]
        anc[j] = mask
    return anc
