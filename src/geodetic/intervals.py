"""Shortest-path structure: distances, interval sets, closures.

The interval I(i, j) is the set of vertices lying on at least one shortest
i-j path, endpoints included; I(i, i) = {i}.  A vertex k is in I(i, j)
exactly when d(i, k) + d(k, j) = d(i, j), which is how the table is built
from the distance matrix.  Intervals are integer bitmasks in a plain square
list of lists, read in place as table[i][j]; the two orientations of a pair
share one int object.  An Instance bundles a connected graph with its
distances and table so that several solvers can share one build.

A Cover is a vertex set grown one vertex at a time, with its closure and,
for every vertex j, the union of I(s, j) over the members s.  Greedy, add-one,
locally greedy and the exact search's forced core all grow their sets
through it.  sssp_intervals builds one table row by breadth-first search
instead; no solver calls it, it is the independent reference the table is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_

import numpy as np

from .bitset import full_mask, vertices_of
from .errors import ValidationError
from .graph import Graph, require_connected


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Floyd-Warshall over hop counts, one vectorized relaxation per pivot.

    Returns a read-only (n, n) int32 array of hop distances.
    """
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
    return d


def interval_table(d: np.ndarray) -> list[list[int]]:
    """Square table: rows[i][j] is the mask of I(i, j) for every i and j.

    Only the j >= i half is computed; rows[j][i] is the same int object as
    rows[i][j], so the lower half costs list slots, not new masks.
    """
    n = len(d)
    rows: list[list[int]] = []
    for i in range(n):
        di = d[i]
        # member[j - i, k] == (d(i,k) + d(k,j) == d(i,j)) for j >= i
        member = (di[None, :] + d[i:]) == di[i:, None]
        packed = np.packbits(member, axis=1, bitorder="little")
        rows.append([rows[j][i] for j in range(i)]
                    + [int.from_bytes(p.tobytes(), "little") for p in packed])
    return rows


def closure(table: list[list[int]], members: int) -> int:
    """Union of I(a, b) over all pairs a <= b drawn from the member mask."""
    out = 0
    vs = vertices_of(members)
    for pos, a in enumerate(vs):
        row = table[a]
        for b in vs[pos:]:
            out |= row[b]
    return out


def is_geodetic(table: list[list[int]], members: int) -> bool:
    return closure(table, members) == full_mask(len(table))


class Cover:
    """A growing vertex set with its closure and per-vertex gains.

    Invariants: coverage == closure(table, members), and gains[j] is the
    union of table[s][j] over the members s, so adding j would grow the
    coverage by gains[j] | 1 << j.  The table is shared and never mutated.
    """

    __slots__ = ("table", "members", "coverage", "gains")

    def __init__(self, table: list[list[int]], members: int = 0):
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


@dataclass(frozen=True, eq=False)
class Instance:
    """A connected graph with its distances and interval table.

    Every solver accepts a Graph or an Instance; building the Instance once
    and passing it to several solvers shares one distance and table build.
    """

    graph: Graph
    dist: np.ndarray           # read-only hop distances, from all_pairs_distances
    table: list[list[int]]     # square interval masks, from interval_table

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


def pk_table(d: np.ndarray) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each vertex k, the pairs (i, j), i < j, whose interval contains k."""
    n = len(d)
    iu, ju = np.triu_indices(n, k=1)
    per_k = []
    for k in range(n):
        member = (d[:, k, None] + d[k, None, :]) == d
        sel = member[iu, ju]
        per_k.append(tuple(zip(iu[sel].tolist(), ju[sel].tolist())))
    return tuple(per_k)


def sssp_intervals(g: Graph, v: int) -> list[int]:
    """One interval-table row from a single source, no all-pairs matrix.

    The reference the table is checked against; no solver calls it.

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
