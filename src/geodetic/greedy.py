"""Greedy interval-covering upper bound on the geodetic number.

The state keeps, for every pair, the residual interval (pristine interval
minus everything already covered).  Each round scores the best single vertex
and the best vertex pair by how much new coverage they would add, then takes
the single vertex when its gain beats half the pair gain, otherwise the
pair.  With add_one set, pair additions are disabled after the first round
so the set grows one vertex at a time.

Seeding: every vertex of degree <= 1 belongs to every geodetic set, so the
set starts from all of them.  On graphs without such vertices the first
addition is necessarily a pair, because single-vertex gains are unions over
the current (empty) set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .bitset import full_mask
from .errors import AlgorithmError
from .graph import Graph
from .intervals import Instance, IntervalTable, closure, is_geodetic
from .result import GeodeticResult, make_result


@dataclass
class GreedyState:
    n: int
    table: IntervalTable              # pristine intervals, never mutated
    residual: list[list[int]]         # same layout, covered vertices stripped
    members: int = 0                  # chosen set as a bitmask
    coverage: int = 0                 # closure of the chosen set
    gains: list[int] = field(default_factory=list)  # per-vertex residual union


def greedy_init(g: Graph, table: IntervalTable) -> GreedyState:
    """Seed with all degree <= 1 vertices and strip their coverage."""
    n = g.n
    members = 0
    for v in range(n):
        if g.degree(v) <= 1:
            members |= 1 << v
    covered = closure(table, members)
    inv = ~covered
    residual = [[mask & inv for mask in row] for row in table.rows]
    return GreedyState(n=n, table=table, residual=residual, members=members,
                       coverage=covered, gains=[0] * n)


def largest_increase(state: GreedyState) -> tuple[int | None, int]:
    """Best single vertex by residual coverage gain.

    Refreshes state.gains for every non-member as a side effect; pair
    scoring reads them.  Returns (None, 0) when no vertex adds coverage,
    which includes the empty starting set.
    """
    best_v: int | None = None
    best_gain = 0
    best_count = 0
    if state.members == 0:
        return best_v, best_gain
    member_bits = state.members
    member_list = [v for v in range(state.n) if (member_bits >> v) & 1]
    residual = state.residual
    for i in range(state.n):
        if (member_bits >> i) & 1:
            continue
        union = 0
        for j in member_list:
            union |= residual[i][j - i] if i <= j else residual[j][i - j]
        state.gains[i] = union
        count = union.bit_count()
        if count > best_count:
            best_count = count
            best_v = i
            best_gain = union
    return best_v, best_gain


def largest_increase_pair(state: GreedyState) -> tuple[int | None, int | None, int]:
    """Best pair: residual pair interval plus both single-vertex gains.

    Requires state.gains to be current for this state (largest_increase just
    ran).  Returns (None, None, 0) when fewer than two candidates remain or
    no pair adds coverage.
    """
    member_bits = state.members
    candidates = [v for v in range(state.n) if not (member_bits >> v) & 1]
    if len(candidates) < 2:
        return None, None, 0
    gains = state.gains
    residual = state.residual
    best: tuple[int | None, int | None, int] = (None, None, 0)
    best_count = 0
    for pos, i in enumerate(candidates):
        row = residual[i]
        gain_i = gains[i]
        for j in candidates[pos + 1:]:
            mask = row[j - i] | gain_i | gains[j]
            count = mask.bit_count()
            if count > best_count:
                best_count = count
                best = (i, j, mask)
    return best


def _strip_covered(state: GreedyState) -> None:
    inv = ~state.coverage
    state.residual = [[mask & inv for mask in row] for row in state.residual]


def greedy_geodetic(x: Graph | Instance, add_one: bool = False) -> GeodeticResult:
    """Run the covering loop to completion and verify the answer.

    The returned set always passes the geodetic check; a failure to cover
    every vertex would be an internal error and raises.
    """
    start = time.perf_counter()
    tag = "greedy-addone" if add_one else "greedy"
    inst = Instance.of(x)
    g, table = inst.graph, inst.table
    if g.n == 1:
        return make_result(tag, 1, False, True, time.perf_counter() - start)
    state = greedy_init(g, table)
    ell, gain_single = largest_increase(state)
    pk, ph, gain_pair = largest_increase_pair(state)
    while gain_single.bit_count() + gain_pair.bit_count() > 0:
        # single wins when its gain exceeds half the pair gain
        if 2 * gain_single.bit_count() > gain_pair.bit_count():
            state.members |= 1 << ell
            state.coverage |= gain_single
        else:
            state.members |= (1 << pk) | (1 << ph)
            state.coverage |= gain_pair
        _strip_covered(state)
        ell, gain_single = largest_increase(state)
        if add_one:
            pk = ph = None
            gain_pair = 0
        else:
            pk, ph, gain_pair = largest_increase_pair(state)
    if state.coverage != full_mask(g.n) or not is_geodetic(table, state.members):
        raise AlgorithmError("greedy loop stopped with uncovered vertices")
    return make_result(tag, state.members, False, True,
                       time.perf_counter() - start)
