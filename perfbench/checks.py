"""Answer checks that share no code with the package's interval machinery.

Distances come from a breadth-first search over the edge list, and intervals
from their defining identity: k lies in I(a, b) exactly when
d(a, k) + d(k, b) = d(a, b).  Only the intervals a check needs are formed.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np


def edges_of_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of 0-based edge-list text with contiguous ids."""
    edges = []
    for line in text.splitlines():
        s = line.strip()
        if s and s[0] not in "#%":
            u, v = s.split()
            edges.append((int(u), int(v)))
    return 1 + max(max(e) for e in edges), edges


def distance_matrix(n: int, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Hop distances by a breadth-first search from every source at once:
    level k adds the vertices first reached by the k-th adjacency product."""
    ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=np.float32)
    adj[ends[:, 0], ends[:, 1]] = adj[ends[:, 1], ends[:, 0]] = 1
    d = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(d, 0)
    reached = np.eye(n, dtype=bool)
    level = 0
    while not reached.all():
        level += 1
        nxt = reached | ((reached.astype(np.float32) @ adj) > 0)
        if (nxt == reached).all():
            raise ValueError("graph is disconnected")
        d[nxt & ~reached] = level
        reached = nxt
    return d


def is_geodetic(d: np.ndarray, members: Iterable[int]) -> bool:
    """True when the intervals of all member pairs, a = b included, cover V."""
    s = np.array(sorted(set(members)), dtype=np.int64)
    if s.size == 0:
        return False
    covered = np.zeros(d.shape[0], dtype=bool)
    for a in s:
        covered |= ((d[a][None, :] + d[s]) == d[a, s][:, None]).any(axis=0)
    return bool(covered.all())


_ROW = re.compile(r"^ cover(\d+): (.*?) >= 1$", re.M | re.S)
_Y = re.compile(r"y(\d+)_(\d+)")
_X = re.compile(r"x(\d+)")


def cover_row_problems(lp_text: str, d: np.ndarray) -> list[str]:
    """Each cover{k} row must list x{k} once and y{i}_{j} once for exactly
    the pairs i < j whose interval contains k."""
    n = d.shape[0]
    start = lp_text.index("Subject To\n")
    section = lp_text[start:lp_text.index("\n mc1_", start) + 1]
    rows = {int(k): body for k, body in _ROW.findall(section)}
    problems = []
    if sorted(rows) != list(range(n)):
        problems.append(f"cover rows {sorted(rows)[:3]}... are not 0..{n - 1}")
    iu, ju = np.triu_indices(n, k=1)
    for k in range(n):
        body = rows.get(k, "")
        on = (d[iu, k] + d[k, ju]) == d[iu, ju]
        want = iu[on] * n + ju[on]
        pairs = np.array(_Y.findall(body), dtype=np.int64).reshape(-1, 2)
        got = np.sort(pairs[:, 0] * n + pairs[:, 1])
        xs = _X.findall(body)
        if xs != [str(k)] or got.shape != want.shape or (got != want).any():
            problems.append(f"cover{k}: x terms {xs} and {len(got)} pair terms, "
                            f"expected x{k} and {len(want)}")
    return problems
