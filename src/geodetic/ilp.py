"""0-1 integer program for the geodetic number, exported as LP-format text.

Variables: x{k} = 1 when vertex k is chosen; y{i}_{j} (i < j) = 1 when both
endpoints of the pair are chosen.  Vertex k is covered when some chosen pair
has k on a shortest path between them, so with P(k) the pairs whose interval
contains k:

    minimize   sum_k x_k
    subject to sum_{(i,j) in P(k)} y_ij + x_k >= 1        for every k
               y_ij <= x_i,  y_ij <= x_j,  x_i + x_j - 1 <= y_ij
               all variables binary

The pair list for each k keeps pairs with k as an endpoint; their y terms
are forced to 0 whenever x_k is, so they are harmless and keep the rows
uniform.  Output ordering is fixed (k ascending, pairs lexicographic), so a
re-export is byte-identical.

pk_table names each pair by its index in the lexicographic pair list, and
each P(k) is an int32 array of those indices.  An entry is four bytes and no
Python object, and the renderer never hashes a pair: it names every y
variable once, in an array in pair-index order, and gathers a covering row's
names with one numpy index, ys[pk[k]].  The rest of its per-term work is
in C string routines too: a covering row is one " + ".join of those names,
and _wrap breaks it at the last " + " that fits, by str.rfind on the first
line and one compiled pattern on the rest.  The linking rows are joined from
per-i templates with j's digits in between, and the Binary section is one
join over all the names.  lp_rows yields the text in whole-line pieces:
render_lp joins them into one string, and the CLI writes them to its file as
they come, so it holds the model and the variable names but never the whole
text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .graph import Graph
from .intervals import all_pairs_distances, pk_table, require_table_fits

_WRAP_COLUMN = 72
# the longest run of whole terms, up to a separator or the end, that fits
# on an indented continuation line
_CONTINUATION = re.compile(rf"(.{{1,{_WRAP_COLUMN - 3}}})(?: \+ |$)")


@dataclass(frozen=True)
class IlpModel:
    n: int
    pk: tuple[np.ndarray, ...]  # pk[k]: pair indices of P(k), from pk_table

    @property
    def variable_count(self) -> int:
        return self.n + self.n * (self.n - 1) // 2

    @property
    def constraint_count(self) -> int:
        return self.n + 3 * self.n * (self.n - 1) // 2


def build_model(g: Graph) -> IlpModel:
    require_table_fits(g.n)
    return IlpModel(n=g.n, pk=pk_table(all_pairs_distances(g)))


def _wrap(body: str) -> str:
    """Break a row of " + "-joined terms after the last term that fits.

    A line holds at most _WRAP_COLUMN characters, its indent included; each
    break leaves " +" at the line end and a three-space indent on the next.
    Every line has room for a term: with n at most 3900, a row head is at most
    12 characters and a term at most 10.
    """
    if len(body) <= _WRAP_COLUMN:
        return body
    cut = body.rfind(" + ", 0, _WRAP_COLUMN + 3)
    return body[:cut] + " +\n   " + " +\n   ".join(_CONTINUATION.findall(body, cut + 3))


def lp_rows(model: IlpModel) -> Iterator[str]:
    """The LP text in pieces of whole lines, each ending in a newline."""
    n = model.n
    ids = list(map(str, range(n)))
    xs = ["x" + k for k in ids]
    names: list[str] = []
    for i in range(n - 1):
        names += map(f"y{i}_".__add__, ids[i + 1:])
    ys = np.array(names, dtype=object)  # ys[p]: "y{i}_{j}" for the pair p indexes in pk
    yield "Minimize\n"
    yield _wrap(" obj: " + " + ".join(xs)) + "\n"
    yield "Subject To\n"
    for k in range(n):
        terms = ys[model.pk[k]].tolist()
        terms.append(xs[k])
        yield _wrap(f" cover{k}: " + " + ".join(terms)) + " >= 1\n"
    for i in range(n - 1):
        # three rows per pair (i, j), j > i; j's digits go between the parts
        parts = (f" mc1_{i}_", f": y{i}_", f" - x{i} <= 0\n mc2_{i}_", f": y{i}_",
                 " - x", f" <= 0\n mc3_{i}_", f": x{i} + x", f" - y{i}_", " <= 1\n")
        yield "".join(map(str.join, ids[i + 1:], repeat(parts)))
    yield "Binary\n"
    yield " " + "\n ".join(xs + names) + "\n"
    yield "End\n"


def render_lp(model: IlpModel) -> str:
    return "".join(lp_rows(model))


def export_ilp(g: Graph) -> str:
    return render_lp(build_model(g))
