"""Greedy interval-covering upper bound on the geodetic number.

The state reads the shared interval table in place and never copies it.
Each round scores the best single vertex and the best vertex pair by how
much new coverage they would add: a candidate's intervals are united first
and masked once with the complement of the current coverage.  It then takes
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
from .intervals import Instance, closure, is_geodetic
from .result import GeodeticResult, make_result


@dataclass
class GreedyState:
    n: int
    table: list[list[int]]            # shared pristine intervals, never mutated
    members: int = 0                  # chosen set as a bitmask
    coverage: int = 0                 # closure of the chosen set
    gains: list[int] = field(default_factory=list)  # per-vertex uncovered union


def greedy_init(g: Graph, table: list[list[int]]) -> GreedyState:
    """Seed with all degree <= 1 vertices and their coverage."""
    n = g.n
    members = 0
    for v in range(n):
        if g.degree(v) <= 1:
            members |= 1 << v
    return GreedyState(n=n, table=table, members=members,
                       coverage=closure(table, members), gains=[0] * n)


def largest_increase(state: GreedyState) -> tuple[int | None, int]:
    """Best single vertex by the number of uncovered vertices it adds.

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
    uncovered = ~state.coverage
    table = state.table
    for i in range(state.n):
        if (member_bits >> i) & 1:
            continue
        row = table[i]
        union = 0
        for j in member_list:
            union |= row[j]
        union &= uncovered
        state.gains[i] = union
        count = union.bit_count()
        if count > best_count:
            best_count = count
            best_v = i
            best_gain = union
    return best_v, best_gain


def largest_increase_pair(state: GreedyState) -> tuple[int | None, int | None, int]:
    """Best pair: uncovered part of the pair interval plus both single gains.

    Requires state.gains to be current for this state (largest_increase just
    ran).  Returns (None, None, 0) when fewer than two candidates remain or
    no pair adds coverage.
    """
    member_bits = state.members
    candidates = [v for v in range(state.n) if not (member_bits >> v) & 1]
    if len(candidates) < 2:
        return None, None, 0
    gains = state.gains
    uncovered = ~state.coverage
    table = state.table
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
