"""Locally greedy upper bound, one vertex per round from a single start.

The set grows through a Cover over the Instance's interval rows, started at
one vertex, and its loop is greedy.grow: each round adds the candidate whose
accumulated gain (the union of I(s, j) over the members s) adds the most
uncovered vertices, until every vertex is covered.  Gains only ever grow, so
nothing is recomputed from scratch.

The walk starts from a vertex that must belong to every geodetic set when
one exists: the lowest vertex of the forced core (Instance.forced, the
simplicial vertices, degree-one vertices included); when the core is empty
(for example on cycles) it falls back to a minimum-degree vertex.
"""

from __future__ import annotations

import time

import numpy as np

from .graph import Graph, csr
from .greedy import grow
from .intervals import Cover, Instance
from .result import GeodeticResult, finish


def find_start(inst: Instance) -> int:
    """Lowest forced vertex, else the lowest vertex of minimum degree."""
    if inst.forced:
        return (inst.forced & -inst.forced).bit_length() - 1
    return int(np.argmin(np.diff(csr(inst.graph)[0])))  # argmin: the lowest such vertex


def locally_greedy_geodetic(x: Graph | Instance) -> GeodeticResult:
    """Grow a geodetic set one vertex per round; finish verifies it."""
    start = time.perf_counter()
    inst = Instance.of(x)
    members = grow(Cover(inst, 1 << find_start(inst)))
    return finish("locally-greedy", inst, members, False, start)
