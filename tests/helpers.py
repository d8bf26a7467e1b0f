"""Shared fixtures: graph builders and independent oracles.

Besides tiny graphs, the builders cover families whose geodetic number has
a closed form (hypercubes, grids, complete bipartite graphs, the Petersen
graph, random trees), built here without networkx.

The oracles deliberately avoid the library's own machinery.  Distances come
from a plain BFS, intervals from literal enumeration of every shortest path
or from one breadth-first pass per source (sssp_intervals), and the
reference geodetic number from subset enumeration over those intervals.
Anything the package computes with distance arithmetic or bitmask folding
is checked against these.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from bisect import bisect_right
from collections import deque

from hypothesis import strategies as st

import geodetic.intervals
from geodetic.bitset import full_mask
from geodetic.errors import ValidationError
from geodetic.exact import Budget, SearchLimits
from geodetic.graph import Graph
from geodetic.rng import MASK64


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def broom_graph(n: int, depth: int) -> Graph:
    """A path 0 .. depth - 1 from vertex 0 with the other n - depth vertices as
    leaves on its far end, so vertex 0's eccentricity is depth."""
    return Graph(n, [(i, i + 1) for i in range(depth - 1)]
                 + [(depth - 1, leaf) for leaf in range(depth, n)])


def star_graph(leaves: int) -> Graph:
    """Center 0 with the given number of leaves."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def hypercube_graph(d: int) -> Graph:
    """Q_d: vertices are d-bit words, adjacent when they differ in one bit."""
    n = 1 << d
    return Graph(n, [(v, v | 1 << b) for v in range(n) for b in range(d)
                     if not v >> b & 1])


def grid_graph(rows: int, cols: int) -> Graph:
    """P_rows x P_cols, vertex r * cols + c."""
    return Graph(rows * cols,
                 [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b} with parts 0..a-1 and a..a+b-1."""
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i + 5."""
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)])


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex v hangs off a uniform earlier vertex."""
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with every vertex v renamed perm[v]: the same graph up to isomorphism."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def relabeled_pairs(draw, min_n: int = 2, max_n: int = 9) -> tuple[Graph, Graph]:
    """A connected graph and a copy relabeled by a random permutation."""
    g = draw(connected_graphs(min_n, max_n))
    return g, relabeled(g, draw(st.permutations(range(g.n))))


class ReferenceGraph:
    """The per-edge graph: each pair checked in input order and appended to
    per-vertex lists, which are then deduplicated and sorted.

    geodetic.graph.Graph builds CSR arrays from integer edge codes instead;
    the two must describe the same graph and raise the same errors.
    """

    def __init__(self, n: int, edges):
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
        self.adj = tuple(tuple(sorted(set(nbrs))) for nbrs in neighbors)
        self.m = sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def reference_depth(g) -> int | None:
    """Depth of a BFS from vertex 0 over g.adj, one neighbour at a time, or
    None when some vertex is unreached."""
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


def leaf_count(g: Graph) -> int:
    return sum(g.degree(v) == 1 for v in range(g.n))


def bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


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


def all_shortest_paths(g: Graph, i: int, j: int) -> list[tuple[int, ...]]:
    """Every shortest i-j path, found by walking the BFS layers backwards."""
    if i == j:
        return [(i,)]
    dist = bfs_distances(g, i)
    if dist[j] < 0:
        return []
    paths: list[tuple[int, ...]] = []

    def walk(v: int, tail: tuple[int, ...]) -> None:
        if v == i:
            paths.append((i,) + tail)
            return
        for p in g.adj[v]:
            if dist[p] == dist[v] - 1:
                walk(p, (v,) + tail)

    walk(j, ())
    return paths


def oracle_interval(g: Graph, i: int, j: int) -> frozenset[int]:
    """Union of the vertices of every shortest i-j path."""
    out: set[int] = set()
    for path in all_shortest_paths(g, i, j):
        out.update(path)
    return frozenset(out)


def oracle_closure(g: Graph, members: set[int]) -> frozenset[int]:
    out: set[int] = set(members)
    for a, b in itertools.combinations(sorted(members), 2):
        out |= oracle_interval(g, a, b)
    return frozenset(out)


def oracle_geodetic_number(g: Graph) -> int:
    """Reference value by subset enumeration; keep n small."""
    assert g.n <= 8, "oracle is exponential, use it on tiny graphs only"
    everything = frozenset(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if oracle_closure(g, set(combo)) == everything:
                return size
    raise AssertionError("unreachable: the full vertex set is geodetic")


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 9) -> Graph:
    """Random spanning tree plus a random subset of the remaining pairs."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.add((u, v))
    spare = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i, j) not in edges]
    if spare:
        extra = draw(st.lists(st.sampled_from(spare), unique=True,
                              max_size=len(spare)))
        edges.update(extra)
    return Graph(n, sorted(edges))


def count_builds(monkeypatch) -> dict[str, int]:
    """Count distance and interval-table builds from here on.

    Every loaded geodetic module that binds one of the two builders gets the
    counting wrapper, so a build reached through any import path is counted.
    """
    calls = {"all_pairs_distances": 0, "interval_table": 0}
    for name in calls:
        original = getattr(geodetic.intervals, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("geodetic") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def exhaustive_pair(cover) -> tuple[int | None, int | None, int]:
    """Reference pair step: score every candidate pair, first best pair wins.

    The same contract as geodetic.greedy.largest_increase_pair, with no
    bounds and no pruning.
    """
    members = cover.members
    candidates = [v for v in range(len(cover.gains)) if not (members >> v) & 1]
    if len(candidates) < 2:
        return None, None, 0
    uncovered = ~cover.coverage
    gains = [union & uncovered for union in cover.gains]
    table = cover.table
    best: tuple[int | None, int | None, int] = (None, None, 0)
    best_count = 0
    for pos, i in enumerate(candidates):
        row = table[i]
        gain_i = gains[i]
        for j in candidates[pos + 1:]:
            mask = (row[j] & uncovered) | gain_i | gains[j]
            count = mask.bit_count()
            if count > best_count:
                best_count = count
                best = (i, j, mask)
    return best


def scan_largest_increase(cover) -> tuple[int | None, int]:
    """Reference single step: skip members, score the rest, first best wins.

    The same contract as geodetic.greedy.largest_increase, one vertex at a
    time with an explicit member test.
    """
    best: tuple[int | None, int] = (None, 0)
    best_count = 0
    uncovered = ~cover.coverage
    for i, union in enumerate(cover.gains):
        if (cover.members >> i) & 1:
            continue
        union &= uncovered
        count = union.bit_count()
        if count > best_count:
            best_count = count
            best = (i, union)
    return best


def completion_reach(table: list[list[int]], scored: list[tuple[int, int]],
                     uncov_mask: int, slots: int, pair_max: list[int] | None = None
                     ) -> list[int]:
    """reach[pos] is at least twice what up to `slots` picks from scored[pos:] add.

    scored holds (gain, vertex) pairs, gains masked by uncov_mask (U).  For
    picks T, 2 * sum_{a<b in T} p(a, b) = sum_{a in T} sum_{b in T - a} p(a, b),
    with p(a, b) = |I(a, b) & U|, and each inner sum is at most the slots - 1
    largest p(a, .).  pair_max, when given, receives each scored vertex's
    largest p(a, .), by vertex.
    """
    vertices = [v for _, v in scored]
    m = len(vertices)
    counts = [(row[b] & uncov_mask).bit_count()  # p(a, b) at counts[pos(a) * m + pos(b)]
              for row in map(table.__getitem__, vertices) for b in vertices]
    reach, top = [], []  # top: min-heap of the `slots` largest caps from pos on
    for pos in range(m - 1, -1, -1):
        pairs = counts[pos * m:pos * m + m]
        pairs[pos] = 0
        pairs.sort()
        if pair_max is not None:
            pair_max[vertices[pos]] = pairs[-1]
        heapq.heappush(top, 2 * scored[pos][0].bit_count() + sum(pairs[1 - slots:]))
        if len(top) > slots:
            heapq.heappop(top)
        reach.append(sum(top))
    return reach[::-1]


def stale_pair_reach(scored: list[tuple[int, int]], pair_max: list[int]) -> list[int]:
    """completion_reach at `slots` = 2 from a parent's pair maxima, counting no pairs.

    The candidates here are a subset of the parent's and U only shrinks, so
    pair_max[a] still bounds every p(a, b), and 2 g(a) + pair_max[a] caps a.
    """
    reach, first, second = [], 0, 0  # the two largest caps from pos on
    for gain, v in reversed(scored):
        cap = 2 * gain.bit_count() + pair_max[v]
        if cap > first:
            first, second = cap, first
        elif cap > second:
            second = cap
        reach.append(first + second)
    return reach[::-1]


def pruned_complete(table: list[list[int]], items: list[tuple[int, int]], row: list[int],
                    uncovered: int, slots: int, budget: Budget,
                    pair_max: list[int] | None = None) -> int | None:
    """Reference completion: candidates in gain order, pruned by completion_reach.

    geodetic.exact.complete branches on options instead; the two must find
    a completion for the same totals.  items are (gain, vertex) pairs masked
    by an ancestor's uncovered set; row is the last pick's table row, OR-ed
    into each gain to score it here.  A slots = 2 node below a slots = 3 one
    bounds with its parent's pair maxima (stale_pair_reach).
    """
    budget.tick()
    if not uncovered:
        return 0
    if slots == 1:
        for gain, i in items:
            if (gain | row[i]) & uncovered == uncovered:
                return 1 << i
        return None
    scored = sorted((((gain | row[i]) & uncovered, i) for gain, i in items),
                    key=lambda t: (-t[0].bit_count(), t[1]))
    child_max = [0] * len(table) if slots == 3 else None
    if pair_max is not None:
        reach = stale_pair_reach(scored, pair_max)
    else:
        reach = completion_reach(table, scored, uncovered, slots, child_max)
    need = 2 * uncovered.bit_count()
    for pos, (gain, i) in enumerate(scored):
        if reach[pos] < need:
            return None  # reach only falls as pos grows
        found = pruned_complete(table, scored[pos + 1:], table[i], uncovered & ~gain,
                                slots - 1, budget, child_max)
        if found is not None:
            return found | (1 << i)
    return None


def pruned_exact_value(inst) -> int:
    """Geodetic number by the forced core and pruned_complete over rising totals."""
    cover = geodetic.intervals.Cover(inst.table, inst.forced)
    uncovered = full_mask(inst.n) & ~cover.coverage
    core = inst.forced.bit_count()
    if not uncovered:
        return core
    roots = [(1 << v, v) for v in range(inst.n) if not inst.forced >> v & 1]
    budget = Budget(SearchLimits(), 0.0)
    for slots in range(max(1, 2 - core), inst.n - core):
        if pruned_complete(inst.table, roots, cover.gains, uncovered, slots, budget) is not None:
            return core + slots
    return inst.n


class ScalarSplitMix64:
    """Reference SplitMix64: the one-output-at-a-time recurrence in Python ints.

    geodetic.rng.SplitMix64 computes its outputs in numpy blocks; every one
    of its draws must read the same outputs as this one does.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53


def decoded(n: int, codes) -> list[tuple[int, int]]:
    """The (u, v) pairs of edge codes u*n + v, in the codes' order."""
    return [divmod(c, n) for c in codes.tolist()]


def scalar_draw_er(n: int, m: int, rng) -> set[tuple[int, int]]:
    """Reference ER draw: partial Fisher-Yates one scalar randrange at a time,
    each pair index decoded by bisect over the n row offsets."""
    offsets = [u * (2 * n - u - 1) // 2 for u in range(n)]
    total = n * (n - 1) // 2
    swapped: dict[int, int] = {}
    edges = set()
    for t in range(m):
        j = t + rng.randrange(total - t)
        p = swapped.get(j, j)
        swapped[j] = swapped.get(t, t)
        u = bisect_right(offsets, p) - 1
        edges.add((u, u + 1 + p - offsets[u]))
    return edges
