"""Greedy interval-covering upper bound on the geodetic number.

The chosen set grows through one Cover over the shared interval table (over
the rows it reads, for add-one): its gains[i] is already the union of
I(s, i) over the members s, so a round reads each candidate's new coverage
off the gains, masked once with the complement of the current coverage, and
never revisits the members.  Each round scores the best single vertex and
the best vertex pair, then takes the single vertex when its gain beats half
the pair gain, otherwise the pair.
Add-one is one such round followed by grow, which adds the best single
vertex until no vertex adds coverage; locally greedy runs grow too.

Pair scoring is exact but pruned by a per-pair stale bound.  With U the
uncovered vertices and s_i = |gains[i] & U|, a pair scores
|U & (I(i, j) | gains[i] | gains[j])| <= s_i + s_j + |I(i, j) & U|.
Coverage only grows, so U only shrinks and |I(i, j) & U| can only fall:
the count last measured for the pair (its stale entry, |I(i, j)| before
any measurement) is never below the current one, and the sum with it in
place of the current count is an admissible bound.  A round computes every
bound in numpy, scores the pair with the largest bound, and then scores in
row-major order every pair whose bound reaches that score (or 1), writing
each scored pair's fresh count back as its stale entry.  Every pair that
could tie or beat the best score is among those scored, they are visited
in the same order a full scan visits them, and only a strictly larger
count replaces the best, so the lexicographically first best pair wins,
exactly as when every pair is scored.

Seeding: the set starts from the forced core (Instance.forced), which lies
in every geodetic set; without one the first pick is a pair, as single
gains are unions over the empty set.  The result has at most |forced| + |U|
members, U what the core leaves uncovered: once the set is non-empty each
uncovered vertex gains at least itself, so a single pick covers at least
one new vertex and a pair pick (at least twice the best single gain) two.
"""

from __future__ import annotations

import time
from array import array
from itertools import repeat
from operator import and_

import numpy as np

from .bitset import full_mask, vertices_of
from .graph import Graph
from .intervals import Cover, Instance
from .result import GeodeticResult, finish

# Stale entry of a pair no scan may pick; with single counts of at most n
# each added, its bound stays negative for every n the distance cap admits.
NO_PAIR = np.iinfo(np.int16).min


def largest_increase(cover: Cover) -> tuple[int | None, int]:
    """Best single vertex by the number of uncovered vertices it adds.

    Returns the vertex and its new coverage, or (None, 0) when no vertex adds
    coverage, which includes the empty starting set.  Ties go to the lowest
    index.  Members need no test: a member's gain lies in the coverage, so
    it counts 0.
    """
    uncovered = ~cover.coverage
    counts = list(map(int.bit_count, map(and_, cover.gains, repeat(uncovered))))
    best = max(counts)
    if not best:
        return None, 0
    v = counts.index(best)
    return v, cover.gains[v] & uncovered


def pair_bounds(inst: Instance, members: int) -> np.ndarray:
    """Fresh stale matrix: |I(i, j)| for candidate pairs i < j, NO_PAIR elsewhere.

    Once the instance's table is built, |I(i, j)| is the bit count of its
    mask.  Before that it is the number of k with d(i, k) + d(k, j) = d(i, j),
    counted in numpy from the distances one row of pairs at a time, so no
    mask is built: n^3 / 2 byte compares, cheaper than building the table
    but dearer than n^2 / 2 bit counts.  The lower triangle, the diagonal and
    the row and column of every vertex in members hold NO_PAIR, so their
    bounds stay negative and no scan ever picks them.
    """
    n = inst.n
    stale = np.full((n, n), NO_PAIR, dtype=np.int16)
    if inst.has_table:
        for i, row in enumerate(inst.table):
            stale[i, i + 1:] = np.fromiter(map(int.bit_count, row[i + 1:]),
                                           dtype=np.int16, count=n - i - 1)
    else:
        dist = inst.dist
        for i in range(n - 1):
            di = dist[i]
            on_path = (di + dist[i + 1:]) == di[i + 1:, None]  # [j - i - 1, k]
            stale[i, i + 1:] = on_path.sum(axis=1, dtype=np.int16)
    for v in vertices_of(members):
        exclude(stale, v)
    return stale


def exclude(stale: np.ndarray, v: int) -> None:
    """Drop every pair that contains v, now a member, from later scans."""
    stale[v] = NO_PAIR
    stale[:, v] = NO_PAIR


def largest_increase_pair(cover: Cover, stale: np.ndarray
                          ) -> tuple[int | None, int | None, int]:
    """Best pair: uncovered part of the pair interval plus both single gains.

    Ties go to the lexicographically first pair.  stale is the matrix from
    pair_bounds, kept across rounds with every member excluded; this call
    tightens the entries of the pairs it scores.  Returns (None, None, 0)
    when fewer than two candidates remain or no pair adds coverage.
    """
    table = cover.table
    n = len(table)
    if cover.coverage == full_mask(n):
        return None, None, 0  # stale entries would still admit every pair
    uncovered = ~cover.coverage
    gains = [union & uncovered for union in cover.gains]
    counts = list(map(int.bit_count, gains))
    single = np.array(counts, dtype=np.int16)
    bound = stale + single[:, None]
    bound += single
    top = int(bound.argmax())
    if bound.flat[top] < 1:
        return None, None, 0
    i, j = divmod(top, n)
    floor = max(((table[i][j] & uncovered) | gains[i] | gains[j]).bit_count(), 1)
    picked = np.flatnonzero(bound >= floor)
    del bound  # up to n^2 entries: free them before the scan
    fresh = array("h")
    best: tuple[int | None, int | None, int] = (None, None, 0)
    best_count = 0
    for p in memoryview(picked):  # Python ints without copying the indices
        i, j = divmod(p, n)
        part = table[i][j] & uncovered
        count = part.bit_count()
        fresh.append(count)
        if count + counts[i] + counts[j] > best_count:
            mask = part | gains[i] | gains[j]
            count = mask.bit_count()
            if count > best_count:
                best_count = count
                best = (i, j, mask)
    stale.flat[picked] = np.frombuffer(fresh, dtype=np.int16)
    return best


def grow(cover: Cover) -> int:
    """Add largest_increase's pick until no vertex adds coverage; return the members.

    Once the set has a member, every uncovered vertex adds at least itself, so
    the loop stops exactly when every vertex is covered.
    """
    while True:
        v, _ = largest_increase(cover)
        if v is None:
            return cover.members
        cover.add(v)


def greedy_cover(inst: Instance, add_one: bool = False) -> int:
    """Run the covering loop to completion and return the member mask.

    The full loop's pair scans read most of the table, so it builds the
    table; add-one's single pair round and grow read the rows they touch.
    """
    cover = Cover(inst if add_one else inst.table, inst.forced)
    stale = pair_bounds(inst, cover.members)
    while True:
        ell, gain_single = largest_increase(cover)
        pk, ph, gain_pair = largest_increase_pair(cover, stale)
        if not (gain_single or gain_pair):
            return cover.members
        # single wins when its gain exceeds half the pair gain
        single = 2 * gain_single.bit_count() > gain_pair.bit_count()
        for v in (ell,) if single else (pk, ph):
            cover.add(v)
            exclude(stale, v)
        if add_one:
            return grow(cover)


def greedy_geodetic(x: Graph | Instance, add_one: bool = False) -> GeodeticResult:
    """Run the covering loop to completion; finish verifies the answer.

    A loop that stopped short of covering every vertex would be an internal
    error, and finish raises it.
    """
    start = time.perf_counter()
    tag = "greedy-addone" if add_one else "greedy"
    inst = Instance.of(x)
    return finish(tag, inst, greedy_cover(inst, add_one), False, start)
