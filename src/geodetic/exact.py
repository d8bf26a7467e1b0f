"""Exact geodetic number: plain enumeration and a branching superset search.

brute_force_geodetic is the reference: subsets in increasing cardinality,
lexicographic within a cardinality, first geodetic subset wins.  It refuses
graphs beyond a small size cap.

exact_geodetic exploits two facts.  The forced core (Instance.forced: the
degree-one and simplicial vertices, never interior to a shortest path)
belongs to every geodetic set and is fixed up front.  Completing that core
is then a search over candidate subsets in increasing total size, one call
of complete per total.  complete's state is U, the vertices still
uncovered: each pick's gain leaves U, and a node whose U is empty has
succeeded.  It branches on options (Instance.options): a set covers a
vertex k it misses only by holding one of k's options, the vertices a
with k = a or k inside some I(a, b) other than as its endpoint b.  So a
node takes the uncovered k with the fewest allowed options (the lowest k
on ties), fails when there are none, and otherwise tries each in gain
order; each branch excludes the options tried before it, as their
branches have already searched every completion that holds them.  This
is the fewest-options-first rule of exact-cover search (Golomb & Baumert,
J. ACM 12, 1965; Knuth, Dancing links, 2000).  With one slot left the
node scans k's options for one that covers U alone.  The forced core is
exactly the set of vertices whose only option is themselves.  Optional wall-clock and node budgets (Budget) stop
the search early.  On expiry the result is greedy's cover (greedy_cover)
of the same instance, flagged non-optimal.  Only a budgeted run builds it,
before the search, so its run time counts against a time budget.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import or_

from .bitset import full_mask, mask_of, vertices_of
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


def complete(table: list[list[int]], options: list[int], gains: list[int], allowed: int,
             uncovered: int, slots: int, budget: Budget) -> int | None:
    """Mask of at most `slots` picks from `allowed` that cover `uncovered`, else None.

    gains[a] is what picking a alone adds, its own bit included: the union
    of I(c, a) over the chosen vertices c, plus a.  options[k] is the mask
    of k's options (Instance.options); a completion covers an uncovered k
    only if it holds one.  Every call opens one node of budget.
    """
    budget.tick()
    if not uncovered:
        return 0
    _, k = min([((options[k] & allowed).bit_count(), k) for k in vertices_of(uncovered)])
    picks = vertices_of(options[k] & allowed)  # none left ends the node
    if slots == 1:
        # every single pick that covers U is an option of k
        for a in picks:
            if gains[a] & uncovered == uncovered:
                return 1 << a
        return None
    picks.sort(key=lambda a: (-(gains[a] & uncovered).bit_count(), a))
    for a in picks:
        allowed &= ~(1 << a)  # later branches exclude the options tried before
        found = complete(table, options, list(map(or_, gains, table[a])), allowed,
                         uncovered & ~gains[a], slots - 1, budget)
        if found is not None:
            return found | (1 << a)
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
    gains = [gain | 1 << v for v, gain in enumerate(base.gains)]
    allowed = full_mask(n) & ~forced
    core = forced.bit_count()
    try:
        for slots in range(max(1, 2 - core), n - core):  # totals max(core + 1, 2) .. n - 1
            chosen = complete(table, inst.options, gains, allowed, uncovered, slots, budget)
            if chosen is not None:
                return finish("exact", inst, forced | chosen, True, start)
    except _BudgetExhausted:
        return finish("exact", inst, fallback, False, start)
    # every smaller size was refuted, so only the whole vertex set is left
    return finish("exact", inst, full_mask(n), True, start)
