"""Closed-form bounds on the geodetic number."""

import numpy as np

from .graph import Graph


def trivial_bound(g: Graph) -> int:
    """The whole vertex set is always geodetic."""
    return g.n


def diameter_bound(dist: np.ndarray) -> int:
    """n - diam + 1: a diametral pair covers its path, the rest fill in.

    Capped at n, which binds only on the one-vertex graph (diameter 0).
    """
    return min(len(dist), len(dist) - int(dist.max()) + 1)
