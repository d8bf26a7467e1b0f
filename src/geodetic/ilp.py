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
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, require_connected
from .intervals import all_pairs_distances, pk_table, require_table_fits

_WRAP_COLUMN = 72


@dataclass(frozen=True)
class IlpModel:
    n: int
    pk: tuple[tuple[tuple[int, int], ...], ...]  # pk[k]: the pairs P(k), from pk_table

    @property
    def variable_count(self) -> int:
        return self.n + self.n * (self.n - 1) // 2

    @property
    def constraint_count(self) -> int:
        return self.n + 3 * self.n * (self.n - 1) // 2


def build_model(g: Graph) -> IlpModel:
    require_table_fits(g.n)
    require_connected(g)
    return IlpModel(n=g.n, pk=pk_table(all_pairs_distances(g)))


def _emit(lines: list[str], head: str, tokens: list[str], tail: str) -> None:
    # wrap long rows; continuation lines carry the usual LP leading space
    line = head
    for pos, tok in enumerate(tokens):
        piece = tok if pos == 0 else f" + {tok}"
        if len(line) + len(piece) > _WRAP_COLUMN and pos > 0:
            lines.append(line + " +")
            line = "   " + tok
        else:
            line += piece
    lines.append(line + tail)


def render_lp(model: IlpModel) -> str:
    n = model.n
    lines: list[str] = []
    lines.append("Minimize")
    _emit(lines, " obj: ", [f"x{k}" for k in range(n)], "")
    lines.append("Subject To")
    for k in range(n):
        tokens = [f"y{i}_{j}" for i, j in model.pk[k]]
        tokens.append(f"x{k}")
        _emit(lines, f" cover{k}: ", tokens, " >= 1")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f" mc1_{i}_{j}: y{i}_{j} - x{i} <= 0")
            lines.append(f" mc2_{i}_{j}: y{i}_{j} - x{j} <= 0")
            lines.append(f" mc3_{i}_{j}: x{i} + x{j} - y{i}_{j} <= 1")
    lines.append("Binary")
    for k in range(n):
        lines.append(f" x{k}")
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f" y{i}_{j}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def export_ilp(g: Graph) -> str:
    return render_lp(build_model(g))
