"""Seeded random graph generators and the benchmark grids.

Three families, all with an exact edge count and a connectivity guarantee:

* ER: uniform choice of m distinct edges, by a partial Fisher-Yates
  shuffle whose m offsets come from one array draw.
* WS: ring lattice with 2*floor(m/n) nearest neighbors, each lattice edge
  rewired with a small probability, topped up with uniform random edges to
  hit m exactly.  When m < n the lattice is empty and the family degenerates
  to uniform random edges.
* BA: seed clique on d+1 vertices with d = max(1, floor(m/n)), then degree-
  proportional attachment of d edges per new vertex, topped up to m.  A
  pick is the first vertex whose running degree sum exceeds the draw: a
  bisect over the sums rebuilt for each new vertex while that is cheaper,
  then a Fenwick tree walk, O(log n), once v passes BA_PREFIX_STEPS * d *
  n.bit_length().  Both pick the same vertex, so the switch changes no graph.

Every draw keeps its edges as int codes u*n + v with u < v (WS and BA in a
set while it grows) and returns them as one int64 array, which generate
hands to graph.csr_of_codes: no per-edge tuple is built.  A draw that comes out
disconnected is retried with a derived sub-seed, up to a retry budget that
grows with the expected number of isolated vertices (attempt_budget).  A
draw that leaves a vertex without an edge, read off the degree counts of
its CSR build, is rejected before any Graph is built for it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

import numpy as np

from .errors import GenerationError, ValidationError
from .graph import Graph, csr_of_codes, is_connected
from .rng import SplitMix64, stream_seed

FAMILIES = ("ER", "WS", "BA")
MAX_ATTEMPTS = 100       # fewest draws generate tries before giving up...
MAX_ATTEMPTS_CAP = 10_000  # ...and most

STANDARD_SIZES = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
STANDARD_DENSITIES = (0.2, 0.4, 0.6, 0.8)
LARGE_SIZES = (115, 135, 150)
LARGE_DENSITIES = (0.25, 0.5, 0.75)

SCHEMES = {
    "standard": (STANDARD_SIZES, STANDARD_DENSITIES),
    "large": (LARGE_SIZES, LARGE_DENSITIES),
}


@dataclass(frozen=True)
class GenSpec:
    """Everything needed to reproduce one generated graph."""

    family: str
    n: int
    m_target: int
    seed: int
    ws_rewire_prob: float = 0.05

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValidationError("need at least two vertices")
        max_m = self.n * (self.n - 1) // 2
        if not 0 < self.m_target <= max_m:
            raise ValidationError(
                f"m_target={self.m_target} outside (0, {max_m}] for n={self.n}")
        if self.m_target < self.n - 1:
            raise ValidationError(
                f"m_target={self.m_target} cannot connect {self.n} vertices")
        if not 0.0 <= self.ws_rewire_prob <= 1.0:
            raise ValidationError("ws_rewire_prob must be in [0, 1]")


def edge_count_for_density(n: int, density: float) -> int:
    """Edge target for a density given as a decimal fraction of n(n-1)/2.

    Decimal densities are taken exactly (0.25 of 6555 pairs is 1638.75, so
    1638 edges), which keeps the grid free of binary float rounding.
    """
    if not math.isfinite(density):
        raise ValidationError(f"density {density} outside (0, 1]")
    frac = Fraction(str(density))
    if not 0 < frac <= 1:
        raise ValidationError(f"density {density} outside (0, 1]")
    return int(frac * (n * (n - 1) // 2))


def _row_offsets(n: int) -> np.ndarray:
    """Offset of row u in the lexicographic pair list, u*(2n-u-1)/2, as int64."""
    u = np.arange(n, dtype=np.int64)
    return u * (2 * n - u - 1) // 2


def _code_shifts(n: int, offsets: np.ndarray) -> np.ndarray:
    """Per row u, what a pair index p in row u adds to become its edge code:
    v = u + 1 + p - offsets[u], so u*n + v = p + u*(n + 1) + 1 - offsets[u]."""
    return np.arange(n, dtype=np.int64) * (n + 1) + 1 - offsets


def _top_up(codes: set[int], n: int, m_target: int, rng: SplitMix64) -> np.ndarray:
    # uniform random missing edges until the count is exact, then the codes
    # as an int64 array; pair index p lies in the last row u whose offset is <= p
    offsets = _row_offsets(n)
    shifts = _code_shifts(n, offsets).tolist()
    offsets = offsets.tolist()
    total = n * (n - 1) // 2
    while len(codes) < m_target:
        p = rng.randrange(total)
        codes.add(p + shifts[bisect_right(offsets, p) - 1])
    return np.fromiter(codes, dtype=np.int64, count=len(codes))


def _draw_er(n: int, m: int, rng: SplitMix64) -> np.ndarray:
    total = n * (n - 1) // 2
    # partial Fisher-Yates over the virtual index array 0..total-1: slot t
    # swaps with slot t + randrange(total - t), all m offsets drawn in one
    # array call, and the first m slots are a uniform m-subset; only the
    # swapped slots are stored
    slots = np.arange(m, dtype=np.uint64)
    swaps = (slots + rng.randrange_array(np.uint64(total) - slots)).tolist()
    swapped: dict[int, int] = {}
    picked = []
    for t, j in enumerate(swaps):
        picked.append(swapped.get(j, j))
        swapped[j] = swapped.get(t, t)
    # pair index p lies in the last row u whose offset is <= p
    p = np.array(picked, dtype=np.int64)
    offsets = _row_offsets(n)
    return p + _code_shifts(n, offsets)[np.searchsorted(offsets, p, side="right") - 1]


def _draw_ws(n: int, m: int, rewire_prob: float, rng: SplitMix64) -> np.ndarray:
    codes: set[int] = set()
    k_half = m // n
    for i in range(n):
        for off in range(1, k_half + 1):
            j = (i + off) % n
            codes.add(i * n + j if i < j else j * n + i)
    # rewire pass over the original lattice edges, deterministic order
    for i in range(n):
        for off in range(1, k_half + 1):
            j = (i + off) % n
            e = i * n + j if i < j else j * n + i
            if e not in codes or rng.uniform() >= rewire_prob:
                continue
            for _ in range(n):
                t = rng.randrange(n)
                cand = i * n + t if i < t else t * n + i
                if t != i and cand not in codes:
                    codes.remove(e)
                    codes.add(cand)
                    break
    return _top_up(codes, n, m, rng)


def _fenwick_tree(degrees: list[int]) -> list[int]:
    """Fenwick tree over degrees, padded with zeros to a power-of-two length:
    tree[i] sums entries i - (i & -i) to i - 1."""
    tree = [0] * (1 << len(degrees).bit_length())
    tree[1:len(degrees) + 1] = degrees
    for i in range(1, len(tree)):
        parent = i + (i & -i)
        if parent < len(tree):
            tree[parent] += tree[i]
    return tree


def _fenwick_add(tree: list[int], u: int, delta: int) -> None:
    """Add delta to entry u of a Fenwick tree."""
    u += 1
    while u < len(tree):
        tree[u] += delta
        u += u & -u


def _fenwick_search(tree: list[int], r: int) -> int:
    """First entry u whose running sum, entries 0..u, exceeds r.

    r must be below the sum of all entries, and the tree's length must be a
    power of two.
    """
    u = 0
    step = len(tree) >> 1
    while step:
        below = tree[u + step]
        if below <= r:
            u += step
            r -= below
        step >>= 1
    return u


# BA rebuilds the running degree sums for each new vertex v (one C-level
# accumulate over v entries) while v is below BA_PREFIX_STEPS * d *
# n.bit_length(), and walks a Fenwick tree (about log2(n) Python steps per pick, d picks)
# from there on.  Timing both per vertex at n = 1,000-20,000 and d = 2-20
# put the crossover at 5.0-6.8 times d * n.bit_length() (10.4 once, at
# n = 4,000 and d = 2, where either costs under 10 us a vertex).
BA_PREFIX_STEPS = 6


def _draw_ba(n: int, m: int, rng: SplitMix64) -> np.ndarray:
    d = max(1, m // n)
    seed_size = min(d + 1, n)
    codes = {u * n + v for u in range(seed_size) for v in range(u + 1, seed_size)}
    degrees = [seed_size - 1] * seed_size + [0] * (n - seed_size)
    total = seed_size * (seed_size - 1)
    # every v draws min(d, v) = d targets, each the first u whose running
    # degree sum exceeds the draw; the degrees are fixed during v's draws
    switch = min(n, max(seed_size, BA_PREFIX_STEPS * d * n.bit_length()))
    for v in range(seed_size, switch):
        sums = list(accumulate(islice(degrees, v)))
        targets: set[int] = set()
        while len(targets) < d:
            targets.add(bisect_right(sums, rng.randrange(total)))
        for u in targets:
            codes.add(u * n + v)
            degrees[u] += 1
        degrees[v] = d
        total += 2 * d
    tree = _fenwick_tree(degrees)
    for v in range(switch, n):
        targets = set()
        while len(targets) < d:
            targets.add(_fenwick_search(tree, rng.randrange(total)))
        for u in targets:
            codes.add(u * n + v)
            _fenwick_add(tree, u, 1)
        _fenwick_add(tree, v, d)
        total += 2 * d
    return _top_up(codes, n, m, rng)


def attempt_budget(n: int, m: int) -> int:
    """Draws generate tries for n vertices and m edges before giving up.

    A uniform draw leaves about Poisson(mu) vertices without an edge, with
    mu = n e^(-2m/n), and a sparse draw with none is connected with high
    probability, so a draw succeeds with probability about e^(-mu).  About
    10 e^mu draws then all fail with probability about e^(-10).  The budget
    is that, at least MAX_ATTEMPTS and at most MAX_ATTEMPTS_CAP.
    """
    mu = n * math.exp(-2 * m / n)
    return max(MAX_ATTEMPTS, math.ceil(10 * math.exp(min(mu, math.log(MAX_ATTEMPTS_CAP / 10)))))


def generate(spec: GenSpec) -> Graph:
    """Build the graph described by spec; deterministic in all fields.

    Attempt k draws from the sub-seed stream_seed(spec.seed, k), so a larger
    budget leaves every draw that succeeds within a smaller one unchanged.
    """
    budget = attempt_budget(spec.n, spec.m_target)
    for attempt in range(budget):
        rng = SplitMix64(stream_seed(spec.seed, attempt))
        if spec.family == "ER":
            codes = _draw_er(spec.n, spec.m_target, rng)
        elif spec.family == "WS":
            codes = _draw_ws(spec.n, spec.m_target, spec.ws_rewire_prob, rng)
        else:
            codes = _draw_ba(spec.n, spec.m_target, rng)
        start, nbrs = csr_of_codes(spec.n, codes)
        if not np.diff(start).all():
            continue  # a vertex without an edge: disconnected, so build no Graph
        g = Graph.of_csr(spec.n, start, nbrs)
        if is_connected(g):
            return g
    raise GenerationError(
        f"no connected draw for {spec} in {budget} attempts")


def benchmark_grid(scheme: str, families: tuple[str, ...] = FAMILIES,
                   seed_base: int = 0) -> list[GenSpec]:
    """Full (family, size, density) grid for a named scheme.

    Cells are ordered family-major, then by size, then by density; the cell
    at position i gets seed seed_base + i so every cell is independently
    reproducible.
    """
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown scheme {scheme!r}")
    for family in families:
        if family not in FAMILIES:
            raise ValidationError(f"unknown family {family!r}")
    sizes, densities = SCHEMES[scheme]
    specs = []
    for family in families:
        for n in sizes:
            for density in densities:
                specs.append(GenSpec(
                    family=family, n=n,
                    m_target=edge_count_for_density(n, density),
                    seed=seed_base + len(specs)))
    return specs
