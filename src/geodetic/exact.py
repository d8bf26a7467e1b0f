"""Exact geodetic number: plain enumeration and a pruned superset search.

brute_force_geodetic is the reference: subsets in increasing cardinality,
lexicographic within a cardinality, first geodetic subset wins.  It refuses
graphs beyond a small size cap.

exact_geodetic exploits two facts.  The forced core (Instance.forced: the
degree-one and simplicial vertices, never interior to a shortest path)
belongs to every geodetic set and is fixed up front.  Completing that core
is then a search over candidate subsets in increasing total size, one call
of complete per total.  complete's state is U, the vertices still
uncovered: each pick's gain leaves U, and a node whose U is empty has
succeeded.  Candidates are sorted by gain and one admissible bound
(completion_reach) is checked before every branch.  Picks T add at most
the sum of g(a), a's own gain, plus the sum over pairs of
p(a, b) = |I(a, b) & U|.  Each pair's p sits in both of its picks' rows, so
half the sum of caps 2 g(a) + (the slots - 1 largest p(a, .)) bounds what T
adds.  First picks stop at the first position where the `slots` largest
caps from there on sum to less than 2|U|, at every depth alike.  A node
with slots = 2 counts no pairs: its slots = 3 parent records each
candidate's largest p(a, .), which still bounds the child's, as the child's
candidates are a subset of the parent's and U only shrinks
(stale_pair_reach).  Optional wall-clock and node budgets (Budget) stop
the search early.  On expiry the result is greedy's cover (greedy_cover)
of the same instance, flagged non-optimal.  Only a budgeted run builds it,
before the search, so its run time counts against a time budget.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

from .bitset import full_mask, mask_of
from .errors import ValidationError
from .graph import Graph
from .greedy import greedy_cover
from .intervals import Cover, Instance, is_geodetic
from .result import GeodeticResult, finish

BRUTE_FORCE_MAX_N = 25


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for exact_geodetic; None means unlimited."""

    time_budget: float | None = None
    node_budget: int | None = None

    def __post_init__(self):
        if self.time_budget is not None and not self.time_budget > 0:  # also rejects NaN
            raise ValidationError("time_budget must be positive")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValidationError("node_budget must be positive")


class _BudgetExhausted(Exception):
    pass


class Budget:
    """Search nodes opened so far against a SearchLimits' caps, timed from `start`."""

    __slots__ = ("nodes", "cap", "deadline")

    def __init__(self, limits: SearchLimits, start: float):
        self.nodes, self.cap = 0, limits.node_budget
        self.deadline = None if limits.time_budget is None else start + limits.time_budget

    def tick(self) -> None:
        self.nodes += 1
        if (self.cap is not None and self.nodes > self.cap
                or self.deadline is not None and time.perf_counter() > self.deadline):
            raise _BudgetExhausted


def completion_reach(table: list[list[int]], scored: list[tuple[int, int]],
                     uncov_mask: int, slots: int, pair_max: list[int] | None = None
                     ) -> list[int]:
    """reach[pos] is at least twice what up to `slots` picks from scored[pos:] add.

    scored holds (gain, vertex) pairs, gains masked by uncov_mask (U).  For
    picks T, 2 * sum_{a<b in T} p(a, b) = sum_{a in T} sum_{b in T - a} p(a, b),
    and each inner sum is at most the slots - 1 largest p(a, .).  pair_max,
    when given, receives each scored vertex's largest p(a, .), by vertex.
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

    pair_max[a] is the largest p(a, .) that completion_reach recorded at the
    parent, over the parent's candidates and uncovered set.  The candidates
    here are a subset of those and U only shrinks, so it is still at least
    every p(a, b) here, and 2 g(a) + pair_max[a], with g(a) fresh, caps a.
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


def brute_force_geodetic(x: Graph | Instance) -> GeodeticResult:
    start = time.perf_counter()
    if x.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force capped at n={BRUTE_FORCE_MAX_N}, got n={x.n}")
    inst = Instance.of(x)
    for size in range(1, x.n):
        for combo in itertools.combinations(range(x.n), size):
            members = mask_of(combo)
            if is_geodetic(inst.table, members):
                return finish("brute-force", inst, members, True, start)
    # every smaller size was refuted, so only the whole vertex set is left
    return finish("brute-force", inst, full_mask(x.n), True, start)


def complete(table: list[list[int]], items: list[tuple[int, int]], row: list[int],
             uncovered: int, slots: int, budget: Budget,
             pair_max: list[int] | None = None) -> int | None:
    """Mask of at most `slots` picks from items that cover `uncovered`, else None.

    items are (gain, vertex) pairs masked by an ancestor's uncovered set;
    row is the last pick's table row, OR-ed into each gain to score it here.
    pair_max holds the pair maxima a `slots` = 3 parent recorded.  Every
    call opens one node of budget.
    """
    budget.tick()
    if not uncovered:
        return 0
    if slots == 1:
        for gain, i in items:
            if (gain | row[i]) & uncovered == uncovered:
                return 1 << i
        return None

    scored = sorted(
        (((gain | row[i]) & uncovered, i) for gain, i in items),
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
        found = complete(table, scored[pos + 1:], table[i], uncovered & ~gain,
                         slots - 1, budget, child_max)
        if found is not None:
            return found | (1 << i)
    return None


def exact_geodetic(x: Graph | Instance, limits: SearchLimits | None = None) -> GeodeticResult:
    start = time.perf_counter()
    inst = Instance.of(x)
    table, forced, n = inst.table, inst.forced, inst.n
    base = Cover(table, forced)
    uncovered = full_mask(n) & ~base.coverage
    if not uncovered:
        # forced vertices lie in every geodetic set, so this is the minimum
        return finish("exact", inst, forced, True, start)

    limits = limits or SearchLimits()
    if limits.time_budget is not None or limits.node_budget is not None:
        fallback = greedy_cover(inst)
    budget = Budget(limits, start)
    roots = [(1 << v, v) for v in range(n) if not (forced >> v) & 1]
    core = forced.bit_count()
    try:
        for slots in range(max(1, 2 - core), n - core):  # totals max(core + 1, 2) .. n - 1
            chosen = complete(table, roots, base.gains, uncovered, slots, budget)
            if chosen is not None:
                return finish("exact", inst, forced | chosen, True, start)
    except _BudgetExhausted:
        return finish("exact", inst, fallback, False, start)
    # every smaller size was refuted, so only the whole vertex set is left
    return finish("exact", inst, full_mask(n), True, start)
