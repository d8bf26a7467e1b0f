"""Greedy interval-covering upper bound on the geodetic number.

The chosen set grows through one Cover over the shared interval table: its
gains[i] is already the union of I(s, i) over the members s, so a round
reads each candidate's new coverage off the gains, masked once with the
complement of the current coverage, and never revisits the members.  Each
round scores the best single vertex and the best vertex pair, then takes the
single vertex when its gain beats half the pair gain, otherwise the pair.
With add_one set, pair additions are disabled after the first round so the
set grows one vertex at a time.

Seeding: every vertex of degree <= 1 belongs to every geodetic set, so the
set starts from all of them.  On graphs without such vertices the first
addition is necessarily a pair, because single-vertex gains are unions over
the current (empty) set.
"""

from __future__ import annotations

import time

from .graph import Graph
from .intervals import Cover, Instance
from .result import GeodeticResult, finish


def leaves(g: Graph) -> int:
    """Greedy's seed: the mask of every vertex of degree <= 1."""
    mask = 0
    for v in range(g.n):
        if g.degree(v) <= 1:
            mask |= 1 << v
    return mask


def largest_increase(cover: Cover) -> tuple[int | None, int]:
    """Best single vertex by the number of uncovered vertices it adds.

    Returns the vertex and its new coverage, or (None, 0) when no vertex adds
    coverage, which includes the empty starting set.
    """
    best_v: int | None = None
    best_gain = 0
    best_count = 0
    members = cover.members
    uncovered = ~cover.coverage
    for i, union in enumerate(cover.gains):
        if (members >> i) & 1:
            continue
        union &= uncovered
        count = union.bit_count()
        if count > best_count:
            best_count = count
            best_v = i
            best_gain = union
    return best_v, best_gain


def largest_increase_pair(cover: Cover) -> tuple[int | None, int | None, int]:
    """Best pair: uncovered part of the pair interval plus both single gains.

    Returns (None, None, 0) when fewer than two candidates remain or no pair
    adds coverage.
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


def greedy_geodetic(x: Graph | Instance, add_one: bool = False) -> GeodeticResult:
    """Run the covering loop to completion; finish verifies the answer.

    A loop that stopped short of covering every vertex would be an internal
    error, and finish raises it.
    """
    start = time.perf_counter()
    tag = "greedy-addone" if add_one else "greedy"
    inst = Instance.of(x)
    cover = Cover(inst.table, leaves(inst.graph))
    ell, gain_single = largest_increase(cover)
    pk, ph, gain_pair = largest_increase_pair(cover)
    while gain_single.bit_count() + gain_pair.bit_count() > 0:
        # single wins when its gain exceeds half the pair gain
        if 2 * gain_single.bit_count() > gain_pair.bit_count():
            cover.add(ell)
        else:
            cover.add(pk)
            cover.add(ph)
        ell, gain_single = largest_increase(cover)
        if add_one:
            gain_pair = 0
        else:
            pk, ph, gain_pair = largest_increase_pair(cover)
    return finish(tag, inst, cover.members, False, start)
