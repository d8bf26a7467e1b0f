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
the count last measured for the pair (its stale entry, |I(i, j)| from
Instance.sizes before any measurement) is never below the current one, and
the sum with it in place of the current count is an admissible bound.  A
round computes every bound in numpy, scores the pair with the largest
bound, and takes as its floor the larger of that score, the bar and 1.  It
then scores, in row-major order, every pair whose bound reaches the floor,
and writes each scored pair's fresh count back as its stale entry.  Every
pair that could reach the floor is among those, they are visited in the
order a full scan visits them, and only a strictly larger count replaces
the best, so the lexicographically first best pair wins, exactly as when
every pair is scored.

The bar: greedy_cover takes the pair only when its count is at least
twice the best single gain, so it passes that as the bar, and a pair
below the bar is never returned.  When the best pair reaches the bar it is
returned, as without one; when it does not, the single wins whatever the
pair, so no set changes.  Raising the floor to the bar skips most pairs
of the rounds a single wins.

The picked pairs are scored in batches of FIRST_BATCH, then twice as many
each time: one C-level pass per batch maps and_ and int.bit_count over the
masks into one np.fromiter, which is also the batch's stale write-back.
Full masks are built only for pairs whose fresh count plus both single
counts passes the best so far.  No pair covers more than U, so once one
does, the later batches are not scored.

Seeding: the set starts from the forced core (Instance.forced), which lies
in every geodetic set; without one the first pick is a pair, as single
gains are unions over the empty set.  The result has at most |forced| + |U|
members, U what the core leaves uncovered: once the set is non-empty each
uncovered vertex gains at least itself, so a single pick covers at least
one new vertex and a pair pick (at least twice the best single gain) two.
"""

from __future__ import annotations

import time
from itertools import repeat
from operator import and_, getitem

import numpy as np

from .bitset import full_mask, vertices_of
from .graph import Graph
from .intervals import Cover, Instance
from .result import GeodeticResult, finish

# Stale entry of a pair no scan may pick; with single counts of at most n
# each added, its bound stays negative for every n the distance cap admits.
NO_PAIR = np.iinfo(np.int16).min

# Pairs scored in a pair round's first batch; each later batch is twice the size.
FIRST_BATCH = 256


def largest_increase(cover: Cover) -> tuple[int | None, int]:
    """Best single vertex by the number of uncovered vertices it adds.

    Returns the vertex and its new coverage, or (None, 0) when no vertex adds
    coverage, which includes the empty starting set.  Ties go to the lowest
    index.  Members need no test: a member's gain lies in the coverage, so
    it counts 0.
    """
    uncovered = full_mask(len(cover.gains)) & ~cover.coverage
    counts = list(map(int.bit_count, map(and_, cover.gains, repeat(uncovered))))
    best = max(counts)
    if not best:
        return None, 0
    v = counts.index(best)
    return v, cover.gains[v] & uncovered


def pair_bounds(inst: Instance, members: int) -> np.ndarray:
    """Fresh stale matrix: |I(i, j)| for candidate pairs i < j, NO_PAIR elsewhere.

    A copy of the instance's sizes (Instance.sizes).  The lower triangle, the
    diagonal and the row and column of every vertex in members hold NO_PAIR,
    so their bounds stay negative and no scan ever picks them.
    """
    stale = np.where(np.tri(inst.n, dtype=bool), np.int16(NO_PAIR), inst.sizes)
    for v in vertices_of(members):
        exclude(stale, v)
    return stale


def exclude(stale: np.ndarray, v: int) -> None:
    """Drop every pair that contains v, now a member, from later scans."""
    stale[v] = NO_PAIR
    stale[:, v] = NO_PAIR


def largest_increase_pair(cover: Cover, stale: np.ndarray, bar: int = 0
                          ) -> tuple[int | None, int | None, int]:
    """Best pair: uncovered part of the pair interval plus both single gains.

    Ties go to the lexicographically first pair.  stale is the matrix from
    pair_bounds, kept across rounds with every member excluded; this call
    tightens the entries of the pairs it scores.  A pair scoring below bar is
    never returned: the result is the best pair when its count reaches bar,
    otherwise (None, None, 0), as it is when fewer than two candidates remain
    or no pair adds coverage.  The default bar of 0 asks for the best pair.
    """
    table = cover.table
    n = len(table)
    uncovered = full_mask(n) & ~cover.coverage
    most = uncovered.bit_count()  # no pair covers more
    if most < max(bar, 1):
        return None, None, 0  # no pair reaches the bar, or none adds coverage
    gains = [union & uncovered for union in cover.gains]
    single = np.fromiter(map(int.bit_count, gains), dtype=np.int16, count=n)
    bound = stale + single[:, None]
    bound += single
    top = int(bound.argmax())
    if bound.flat[top] < max(bar, 1):
        return None, None, 0
    i, j = divmod(top, n)
    top_count = ((table[i][j] & uncovered) | gains[i] | gains[j]).bit_count()
    floor = max(top_count, bar, 1)
    picked = np.flatnonzero(bound >= floor)
    del bound  # up to n^2 entries: free them before the scan
    rows, cols = np.divmod(picked, n)
    heads, tails = rows.tolist(), cols.tolist()
    singles = single[rows]
    singles += single[cols]
    best: tuple[int | None, int | None, int] = (None, None, 0)
    best_count = floor - 1
    start, size = 0, FIRST_BATCH
    while start < len(heads) and best_count < most:
        stop = min(start + size, len(heads))
        parts = map(and_, map(getitem, map(table.__getitem__, heads[start:stop]),
                              tails[start:stop]), repeat(uncovered))
        fresh = np.fromiter(map(int.bit_count, parts), dtype=np.int16, count=stop - start)
        stale.flat[picked[start:stop]] = fresh
        fresh += singles[start:stop]  # now each pair's bound with its fresh count
        hits = np.flatnonzero(fresh > best_count)
        for p, reach in zip((hits + start).tolist(), fresh[hits].tolist()):  # row-major
            if reach > best_count:
                i, j = heads[p], tails[p]
                mask = (table[i][j] & uncovered) | gains[i] | gains[j]
                count = mask.bit_count()
                if count > best_count:
                    best_count = count
                    best = (i, j, mask)
        start, size = stop, 2 * size
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
        # a pair wins only with at least twice the single's gain
        pk, ph, gain_pair = largest_increase_pair(cover, stale, 2 * gain_single.bit_count())
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
