"""Exact geodetic number: plain enumeration and a pruned superset search.

brute_force_geodetic is the reference: subsets in increasing cardinality,
lexicographic within a cardinality, first geodetic subset wins.  It refuses
graphs beyond a small size cap.

exact_geodetic exploits two facts.  The forced core (Instance.forced: the
degree-one and simplicial vertices, never interior to a shortest path)
belongs to every geodetic set and is fixed up front.  Completing that core
is then a search over candidate subsets in increasing total size, with a
conservative potential bound checked before every branch: candidates are
sorted by gain, and the search stops trying first picks at position pos
once even the most optimistic completion from there (the sum of the
largest gains at pos and beyond plus full credit for the biggest residual
pair interval on every future pair) cannot cover the remaining vertices.
The same rule prunes at every depth; the last two picks have no special
case.
Optional wall-clock and node budgets stop the search early.  On expiry the
result is the greedy cover (greedy_cover) of the same instance, flagged
non-optimal; it is built before the search starts, so greedy's run time
counts against a time budget.
"""

from __future__ import annotations

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


def exact_geodetic(x: Graph | Instance, limits: SearchLimits | None = None) -> GeodeticResult:
    start = time.perf_counter()
    inst = Instance.of(x)
    table, forced = inst.table, inst.forced
    n = inst.n
    full = full_mask(n)
    base = Cover(table, forced)
    if base.coverage == full:
        # forced vertices lie in every geodetic set, so this is the minimum
        return finish("exact", inst, forced, True, start)

    deadline = None
    node_cap = None
    if limits is not None:
        if limits.time_budget is not None:
            deadline = start + limits.time_budget
        node_cap = limits.node_budget
        fallback = greedy_cover(inst)
    nodes = 0

    candidates = [v for v in range(n) if not (forced >> v) & 1]
    # candidate pairs by pristine interval size, biggest first, for the bound
    pair_order = sorted(
        ((table[i][j].bit_count(), i, j)
         for pos, i in enumerate(candidates) for j in candidates[pos + 1:]),
        reverse=True)

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if node_cap is not None and nodes > node_cap:
            raise _BudgetExhausted
        if deadline is not None and time.perf_counter() > deadline:
            raise _BudgetExhausted

    def best_pair_gain(rem_mask: int, uncov_mask: int) -> int:
        """Largest residual pair-interval size among the remaining candidates."""
        best = 0
        for size, i, j in pair_order:
            if size <= best:
                break  # sorted by pristine size: nothing later can beat it
            if (rem_mask >> i) & 1 and (rem_mask >> j) & 1:
                masked = (table[i][j] & uncov_mask).bit_count()
                if masked > best:
                    best = masked
        return best

    def search(items: list[tuple[int, int]], row: list[int], cover: int,
               slots: int) -> int | None:
        """Pick `slots` vertices from items; returns their mask or None.

        items are (gain, vertex) pairs masked by an ancestor's uncovered set;
        row is the last pick's table row, OR-ed into each gain to score it here.
        """
        tick()
        if cover == full:
            return 0
        if slots == 0 or not items:
            return None
        uncov_mask = full & ~cover
        uncovered = uncov_mask.bit_count()

        if slots == 1:
            for gain, i in items:
                if ((gain | row[i]) & uncov_mask) == uncov_mask:
                    return 1 << i
            return None

        scored = sorted(
            (((gain | row[i]) & uncov_mask, i) for gain, i in items),
            key=lambda t: (-t[0].bit_count(), t[1]))
        counts = [gain.bit_count() for gain, _ in scored]
        credit = None  # pair credit, computed at most once per node
        for pos, (gain, i) in enumerate(scored):
            # a completion whose first pick sits at pos or later gains at most
            # the `slots` counts from pos on, plus the best residual pair
            # interval for each of its pairs
            top = sum(counts[pos:pos + slots])
            if top < uncovered:
                if credit is None:
                    rem_mask = mask_of(v for _, v in items)
                    credit = slots * (slots - 1) // 2 * best_pair_gain(rem_mask, uncov_mask)
                if top + credit < uncovered:
                    return None  # gains sorted: no later first pick does better
            found = search(scored[pos + 1:], table[i], cover | gain, slots - 1)
            if found is not None:
                return found | (1 << i)
        return None

    try:
        for total in range(max(forced.bit_count() + 1, 2), n):
            chosen = search([(1 << v, v) for v in candidates], base.gains,
                            base.coverage, total - forced.bit_count())
            if chosen is not None:
                return finish("exact", inst, forced | chosen, True, start)
    except _BudgetExhausted:
        return finish("exact", inst, fallback, False, start)
    # every smaller size was refuted, so only the whole vertex set is left
    return finish("exact", inst, full, True, start)
