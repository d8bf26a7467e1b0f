"""Shortest-path structure: distances, interval sets, closures.

Distances come from one breadth-first search from every source at once over
packed uint64 bitsets (all_pairs_distances): O(diam * (m + n) * ceil(n / 64))
word operations plus one unpack per bit-plane, in uint8 or uint16 as vertex
0's eccentricity allows.

The interval I(i, j) is the set of vertices lying on at least one shortest
i-j path, endpoints included; I(i, i) = {i}.  A vertex k is in I(i, j)
exactly when d(i, k) + d(k, j) = d(i, j), which is how the table is built
from the distance matrix.  Intervals are integer bitmasks in a plain square
list of lists, read in place as table[i][j]; the two orientations of a pair
share one int object.  An Instance bundles a connected graph with its
distances and forced core (the vertices inside no shortest path, which every
geodetic set contains; forced_core reads it off packed neighbourhoods) so
that several solvers share one build; it is the one interval store.  Its
table is built on first read, at most once; inst[v] is row v alone (one
n x n compare, interval_row), kept until the table exists and the table's
row after, and both count against TABLE_MEMORY_CAP.  Greedy, exact and brute
force read the table; locally greedy, add-one, the final check of every
result and `geodetic verify` read only the rows of the vertices they pick.

interval_table builds the table one block of rows at a time (_row_blocks):
one broadcast compare of the block's rows against every later row, one
packbits and one tolist of byte strings per block, with the block's
temporaries held to BLOCK_BYTES, so the per-row numpy overhead that
dominated small graphs is paid once per block.  Instance.sizes holds
|I(i, j)| for every pair as one int16 matrix, counted once per Instance:
the table build sums its own compares into it, and read before the table,
interval_sizes sums the same blocks without building a mask.  Greedy's pair
bounds start from it, so greedy and add-one on one Instance count it once.

A Cover is a vertex set grown one vertex at a time, with its closure and,
for every vertex j, the union of I(s, j) over the members s.  Greedy, add-one,
locally greedy and the exact search's forced core all grow their sets
through it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter, or_

import numpy as np

from .bitset import full_mask, mask_of, vertices_of
from .errors import ValidationError
from .graph import Graph, bfs_depth, csr

# Most memory an Instance's interval masks (rows or table) may take, in bytes.
TABLE_MEMORY_CAP = 4 << 30

# Most memory the temporaries of one block of rows may take: an interval_table
# or interval_sizes row block, or a run of gathered neighbour rows.
BLOCK_BYTES = 1 << 18

# Largest n all_pairs_distances accepts.  Greedy's pair bounds add three
# counts of at most n each in int16, so 3n must fit.
DISTANCE_MAX_N = np.iinfo(np.int16).max // 3

# One packed word of the breadth-first search: bit s of word w is source 64w + s.
_WORD = np.dtype("<u8")

# Peak memory allowed per P(k) entry of an LP export.  On paths with
# n = 200-400 (CPython 3.11, 64-bit Linux; fresh process, ru_maxrss minus the
# same command on P3), peak RSS grows by 5.0-5.7 bytes per entry for
# `geodetic export-ilp`, which streams its rows to the file, and by 27.5-28.9
# for export_ilp, which returns the text as one string.  32 bounds both with
# about 10% to spare.  It admits paths up to 929 vertices, whose ids have at
# most three digits, as at n = 400, so the terms are no longer than measured.
PK_ENTRY_BYTES = 32


def _mask_bytes(n: int) -> int:
    """Estimated memory of one interval mask: a CPython int of n bits."""
    return 28 + 4 * -(-n // 30)


def table_bytes(n: int) -> int:
    """Estimated memory of an n-vertex table: n^2 list slots, one mask per pair."""
    return n * n * 8 + n * (n + 1) // 2 * _mask_bytes(n)


def row_bytes(n: int) -> int:
    """Estimated memory of one row built alone: n list slots and n masks."""
    return n * (8 + _mask_bytes(n))


def _require_under_cap(need: int, what: str) -> None:
    if need > TABLE_MEMORY_CAP:
        raise ValidationError(
            f"{what} need about {need / 2**30:.3g} GiB, "
            f"over the {TABLE_MEMORY_CAP / 2**30:g} GiB cap")


def require_table_fits(n: int) -> None:
    """Reject an n-vertex graph whose interval table would exceed the cap.

    Instance.table calls it before the build, so an oversized table fails fast.
    """
    _require_under_cap(table_bytes(n), f"interval table for n={n} would")


def require_distances_fit(n: int) -> None:
    """Reject an n-vertex graph over DISTANCE_MAX_N before any O(n^2) allocation."""
    if n > DISTANCE_MAX_N:
        raise ValidationError(
            f"distances for n={n} are over the cap of n={DISTANCE_MAX_N}")


def _packed(member: np.ndarray) -> np.ndarray:
    """Rows of a boolean matrix as packed words: bit k is column k."""
    rows, n = member.shape
    out = np.zeros((rows, 8 * -(-n // 64)), dtype=np.uint8)
    out[:, :-(-n // 8)] = np.packbits(member, axis=1, bitorder="little")
    return out.view(_WORD)


def _fold_neighbours(fold: np.ufunc, rows: np.ndarray, start: np.ndarray,
                     nbrs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[v] = fold over rows[u] for the neighbours u of v; every v needs one.

    The neighbour rows are gathered for a run of vertices at a time, at most
    max(8n, BLOCK_BYTES / row size) rows per run (a vertex has fewer than n),
    so for rows of n bits the gathered copy stays within about
    max(n^2, BLOCK_BYTES) bytes however many edges there are; a small graph
    gathers all its neighbour rows in one run.
    """
    n = len(start) - 1
    cap = max(8 * n, BLOCK_BYTES // rows[:1].nbytes)
    a = 0
    while a < n:
        b = max(int(np.searchsorted(start, start[a] + cap, "right")) - 1, a + 1)
        lo = start[a]
        gathered = np.take(rows, nbrs[lo:start[b]], axis=0)
        fold.reduceat(gathered, start[a:b] - lo, axis=0, out=out[a:b])
        a = b
    return out


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Hop distances by a breadth-first search from every source at once.

    The sources are bits of packed little-endian uint64 rows: row u of the
    frontier holds the sources whose current layer contains u.  One level
    ORs the frontier rows of u's neighbours (_fold_neighbours over the
    graph's kept CSR, graph.csr, which forced_core reads too), masks them
    with the sources that have not reached u yet, and ORs the new layer into
    the bit-planes of its level number; the planes are unpacked once at the
    end.  That costs O(diam * (m + n) * ceil(n / 64)) word operations plus
    one unpack per bit-plane, and O(n^2) bytes of temporaries whatever m is.

    One scalar BFS from vertex 0 comes first (graph.bfs_depth, run once per
    graph, so a graph whose connectivity was already checked does not run
    it again): it rejects a disconnected graph before the n^2 allocations,
    and its depth e bounds every distance by min(n - 1, 2e), which fixes
    the number of planes.  The array takes the
    narrowest unsigned dtype that holds twice the sentinel min(n, 2e) + 1,
    above every distance: uint8 whenever e <= 63 (at any n) or n <= 126, and
    uint16 beyond.  The interval and P(k) builds add two distances in that
    dtype and rely on its headroom.  Returns the read-only (n, n) array.
    """
    n = g.n
    require_distances_fit(n)
    depth = bfs_depth(g)
    if depth is None:
        raise ValidationError("graph is disconnected")
    start, nbrs = csr(g)
    frontier = _packed(np.eye(n, dtype=bool))  # level 0: each source alone
    unreached = _packed(~np.eye(n, dtype=bool))
    planes = [np.zeros_like(frontier) for _ in range(min(n - 1, 2 * depth).bit_length())]
    layer = np.empty_like(frontier)
    level = 0
    while unreached.any():  # connected, so every level reaches a new pair
        _fold_neighbours(np.bitwise_or, frontier, start, nbrs, layer)
        layer &= unreached
        unreached ^= layer
        level += 1
        for bit, plane in enumerate(planes):
            if level >> bit & 1:
                plane |= layer
        frontier, layer = layer, frontier
    d = np.zeros((n, n), dtype=np.min_scalar_type(2 * (min(n, 2 * depth) + 1)))
    for plane in reversed(planes):  # Horner: d = 2d + bit, highest plane first
        d <<= 1
        d |= np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
    d.setflags(write=False)
    return d


def forced_core(g: Graph, dist: np.ndarray) -> int:
    """Mask of the vertices inside no shortest path, which every geodetic set holds.

    A vertex is inside a shortest path iff two of its neighbours are not
    adjacent, so v is forced iff N(v) lies in N[u] for every neighbour u:
    iff N[v] lies in the AND of its neighbours' closed neighbourhoods, read
    off packed rows of dist <= 1.  The lone vertex of n = 1 is forced.
    """
    if g.n == 1:
        return 1
    closed = _packed(dist <= 1)
    start, nbrs = csr(g)
    common = _fold_neighbours(np.bitwise_and, closed, start, nbrs, np.empty_like(closed))
    return mask_of(np.flatnonzero(~(closed & ~common).any(axis=1)).tolist())


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


def _row_blocks(d: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(a, member) for consecutive row blocks a <= i < b of the interval relation.

    member[i - a, j - a, k] == (d(i,k) + d(k,j) == d(i,j)) for j >= a; the
    columns j < a are left out, as the blocks before hold them.  A block
    takes as many rows as keep its sum and compare temporaries within
    BLOCK_BYTES, at least one.
    """
    n = len(d)
    step = max(1, BLOCK_BYTES // max(1, n * n * (d.itemsize + 1)))
    for a in range(0, n, step):
        da = d[a:a + step]
        yield a, (da[:, None, :] + d[None, a:]) == da[:, a:, None]


def _count_block(sizes: np.ndarray, a: int, member: np.ndarray) -> None:
    """Write |I(i, j)| = |I(j, i)| into sizes for one block of _row_blocks."""
    block = member.sum(axis=2, dtype=np.int16)
    sizes[a:a + len(block), a:] = block
    sizes[a:, a:a + len(block)] = block.T


def interval_table(d: np.ndarray, sizes: np.ndarray | None = None) -> list[list[int]]:
    """Square table: rows[i][j] is the mask of I(i, j) for every i and j.

    Built one block of rows at a time (_row_blocks): one broadcast compare,
    one packbits and one tolist of byte strings per block, so the per-row
    numpy overhead is paid once per block.  Only the j >= i masks are
    converted; rows[j][i] is the same int object as rows[i][j], so the lower
    half costs list slots, not new masks.  sizes, when given, is an (n, n)
    int16 array that receives |I(i, j)| for every pair, counted from the
    same compares: the bit counts of the masks.
    """
    rows: list[list[int]] = []
    n = len(d)
    for a, member in _row_blocks(d):
        if sizes is not None:
            _count_block(sizes, a, member)
        packed = np.packbits(member, axis=2, bitorder="little")
        del member
        chunks = packed.view(np.dtype((np.void, packed.shape[2]))).ravel().tolist()
        width = n - a
        for r in range(len(packed)):
            i = a + r
            row = list(map(itemgetter(i), rows))  # the rows above give j < i
            row += map(int.from_bytes, chunks[r * width + r:(r + 1) * width], repeat("little"))
            rows.append(row)
    return rows


def interval_sizes(d: np.ndarray) -> np.ndarray:
    """|I(i, j)| for every pair as int16, counted from the distances.

    The number of k with d(i, k) + d(k, j) = d(i, j), summed over the same
    row blocks interval_table compares, so no mask is built: cheaper than
    building the table.
    """
    n = len(d)
    sizes = np.empty((n, n), dtype=np.int16)
    for a, member in _row_blocks(d):
        _count_block(sizes, a, member)
    return sizes


def closure(table: list[list[int]] | Instance, members: int) -> int:
    """Union of I(a, b) over all pairs a <= b drawn from the member mask.

    Reads only the members' rows, so an Instance serves as well as its
    table.
    """
    out = 0
    vs = vertices_of(members)
    for pos, a in enumerate(vs):
        row = table[a]
        for b in vs[pos:]:
            out |= row[b]
    return out


def is_geodetic(table: list[list[int]] | Instance, members: int) -> bool:
    return closure(table, members) == full_mask(len(table))


class Cover:
    """A growing vertex set with its closure and per-vertex gains.

    Invariants: coverage == closure(table, members), and gains[j] is the
    union of table[s][j] over the members s, so adding j would grow the
    coverage by gains[j] | 1 << j.  The table, or the Instance whose rows
    the cover reads one member at a time, is shared and never mutated.
    """

    __slots__ = ("table", "members", "coverage", "gains")

    def __init__(self, table: list[list[int]] | Instance, members: int = 0):
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
    """A connected graph with its distances, forced core and interval masks.

    Every solver accepts a Graph or an Instance; building the Instance once
    and passing it to several solvers shares one distance build and at most
    one table build.  It is also a row source: inst[v] is the list of
    I(v, j) masks, built alone by interval_row and kept until the table
    exists, and the table's own row v after.  The rows kept, or the table
    that replaces them, count against TABLE_MEMORY_CAP; a read past it
    raises ValidationError.
    """

    graph: Graph
    dist: np.ndarray           # read-only hop distances, from all_pairs_distances
    forced: int                # mask of the vertices inside no shortest path
    _rows: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return self.graph.n

    n = property(__len__)

    def __getitem__(self, v: int) -> list[int]:
        row = self._rows.get(v)
        if row is None:
            _require_under_cap((len(self._rows) + 1) * row_bytes(self.n),
                               f"interval rows for n={self.n}")
            row = self._rows[v] = interval_row(self.dist, v)
        return row

    @cached_property
    def table(self) -> list[list[int]]:
        """Square interval masks, from interval_table: built on first read, at most once."""
        require_table_fits(self.n)
        self._rows.clear()  # the table's rows replace them
        # the table counts its masks' bits for sizes, unless they are counted
        sizes = None if "sizes" in self.__dict__ else np.empty((self.n,) * 2, dtype=np.int16)
        table = interval_table(self.dist, sizes)
        self._rows.update(enumerate(table))
        if sizes is not None:
            sizes.setflags(write=False)
            self.__dict__["sizes"] = sizes
        return table

    @cached_property
    def sizes(self) -> np.ndarray:
        """Read-only int16 matrix of |I(i, j)|, counted once per instance.

        The table build counts the bits of its masks as it makes them and
        leaves them here; read before the table exists, it is interval_sizes'
        count from the distances.  Greedy's pair bounds copy it, so greedy
        and add-one on one instance count the sizes once.
        """
        sizes = interval_sizes(self.dist)
        sizes.setflags(write=False)
        return sizes

    @property
    def has_table(self) -> bool:
        """Whether the table is built, so that reading it costs nothing."""
        return "table" in self.__dict__

    @classmethod
    def of(cls, x: Graph | Instance) -> Instance:
        """x itself when it is already an Instance, else a fresh build."""
        if isinstance(x, Instance):
            return x
        dist = all_pairs_distances(x)
        return cls(x, dist, forced_core(x, dist))


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
