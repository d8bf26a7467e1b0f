"""Locally greedy upper bound built from single-source passes.

The search never reads the all-pairs interval table.  Each round runs one
breadth-first interval pass from the vertex added most recently and folds
that row into a per-vertex gain accumulator: gains[j] is the union of I(s, j)
over all members s whose pass has run.  The next member is the candidate
whose accumulated gain adds the most uncovered vertices.  Gains only ever
grow, so nothing is recomputed from scratch.  The table serves only the
final check of the answer.

The walk starts from a vertex that must belong to every geodetic set when
one exists: a degree-one vertex, else a simplicial one; failing both (for
example on cycles) it falls back to a minimum-degree vertex.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bitset import full_mask
from .errors import AlgorithmError
from .graph import Graph, is_simplicial
from .intervals import Instance, is_geodetic, sssp_intervals
from .result import GeodeticResult, make_result


@dataclass
class LocalState:
    n: int
    members: int = 0
    coverage: int = 0
    gains: list[int] = field(default_factory=list)


def find_start(g: Graph) -> int:
    """Smallest-index degree-one vertex, else simplicial, else minimum degree."""
    for v in range(g.n):
        if g.degree(v) == 1:
            return v
    for v in range(g.n):
        if is_simplicial(g, v):
            return v
    return min(range(g.n), key=lambda v: (g.degree(v), v))


def largest_local_increase(g: Graph, source: int, state: LocalState) -> tuple[int, int]:
    """Fold the interval row of source into the gains, pick the next vertex.

    Returns the argmax candidate by |gains[j] minus coverage| (smallest index
    on ties) together with its unreduced gain set.  Must not be called once
    every vertex is a member.
    """
    row = sssp_intervals(g, source)
    members = state.members
    not_covered = ~state.coverage
    best_v = -1
    best_count = -1
    for j in range(state.n):
        if (members >> j) & 1:
            continue
        merged = state.gains[j] | row[j]
        state.gains[j] = merged
        count = (merged & not_covered).bit_count()
        if count > best_count:
            best_count = count
            best_v = j
    if best_v < 0:
        raise AlgorithmError("no candidate vertex left to score")
    return best_v, state.gains[best_v]


def locally_greedy_geodetic(x: Graph | Instance) -> GeodeticResult:
    """Grow a geodetic set one vertex per single-source pass, then verify."""
    start = time.perf_counter()
    tag = "locally-greedy"
    inst = Instance.of(x)
    g = inst.graph
    if g.n == 1:
        return make_result(tag, 1, False, True, time.perf_counter() - start)
    full = full_mask(g.n)
    v = find_start(g)
    state = LocalState(n=g.n, members=1 << v, gains=[0] * g.n)
    u, gain = largest_local_increase(g, v, state)
    state.members |= 1 << u
    state.coverage |= gain | (1 << v) | (1 << u)
    latest = u
    while state.coverage != full:
        before = state.coverage
        u, gain = largest_local_increase(g, latest, state)
        state.members |= 1 << u
        state.coverage |= gain | (1 << u)
        if state.coverage == before:
            raise AlgorithmError("local pass added no coverage")
        latest = u
    # final check against the pristine all-pairs table
    if not is_geodetic(inst.table, state.members):
        raise AlgorithmError("locally greedy set failed the geodetic check")
    return make_result(tag, state.members, False, True,
                       time.perf_counter() - start)
