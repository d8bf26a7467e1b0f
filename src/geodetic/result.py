"""Common result record returned by every solver, and its one exit."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bitset import vertices_of
from .errors import AlgorithmError
from .intervals import Instance, is_geodetic


@dataclass(frozen=True)
class GeodeticResult:
    algorithm: str
    vertices: tuple[int, ...]
    value: int            # |vertices|, an upper bound on the geodetic number
    optimal: bool         # True only when the value is a proven minimum
    verified: bool        # always True: finish raises on a non-geodetic set
    seconds: float


def finish(algorithm: str, inst: Instance, members: int, optimal: bool,
           start: float) -> GeodeticResult:
    """Check members against their rows, then record it with its time since start.

    Every solver returns through here, so no unverified set leaves the
    package; a non-geodetic set is an internal error and raises.
    """
    if not is_geodetic(inst, members):
        raise AlgorithmError(f"{algorithm} returned a non-geodetic set")
    vs = tuple(vertices_of(members))
    return GeodeticResult(algorithm=algorithm, vertices=vs, value=len(vs),
                          optimal=optimal, verified=True,
                          seconds=time.perf_counter() - start)
