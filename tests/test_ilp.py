import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import geodetic.intervals
from geodetic.errors import ValidationError
from geodetic.exact import exact_geodetic
from geodetic.generate import GenSpec, benchmark_grid, generate
from geodetic.graph import Graph
from geodetic.ilp import IlpModel, build_model, export_ilp, render_lp
from helpers import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    relabeled,
    star_graph,
)

# sha256 of export_ilp over every standard-scheme cell with n <= 30 at seed
# base 0, then P60, C150 and the star K1,39, whose rows wrap many times
PINNED_LP_SHA256 = "2c5ff5f507bba948d33968116463a0ab3c7afc59d82602e1383d5e5b00e29721"

K2_LP = """Minimize
 obj: x0 + x1
Subject To
 cover0: y0_1 + x0 >= 1
 cover1: y0_1 + x1 >= 1
 mc1_0_1: y0_1 - x0 <= 0
 mc2_0_1: y0_1 - x1 <= 0
 mc3_0_1: x0 + x1 - y0_1 <= 1
Binary
 x0
 x1
 y0_1
End
"""

P3_LP = """Minimize
 obj: x0 + x1 + x2
Subject To
 cover0: y0_1 + y0_2 + x0 >= 1
 cover1: y0_1 + y0_2 + y1_2 + x1 >= 1
 cover2: y0_2 + y1_2 + x2 >= 1
 mc1_0_1: y0_1 - x0 <= 0
 mc2_0_1: y0_1 - x1 <= 0
 mc3_0_1: x0 + x1 - y0_1 <= 1
 mc1_0_2: y0_2 - x0 <= 0
 mc2_0_2: y0_2 - x2 <= 0
 mc3_0_2: x0 + x2 - y0_2 <= 1
 mc1_1_2: y1_2 - x1 <= 0
 mc2_1_2: y1_2 - x2 <= 0
 mc3_1_2: x1 + x2 - y1_2 <= 1
Binary
 x0
 x1
 x2
 y0_1
 y0_2
 y1_2
End
"""


def unwrap(text: str) -> str:
    return text.replace(" +\n   ", " + ")


def reference_lp(model: IlpModel) -> str:
    """The LP text built one term and one line at a time."""
    lines = []

    def emit(head: str, tokens: list[str], tail: str) -> None:
        line = head + tokens[0]
        for tok in tokens[1:]:
            if len(line) + 3 + len(tok) > 72:
                lines.append(line + " +")
                line = "   " + tok
            else:
                line += " + " + tok
        lines.append(line + tail)

    n = model.n
    pairs = list(itertools.combinations(range(n), 2))
    lines.append("Minimize")
    emit(" obj: ", [f"x{k}" for k in range(n)], "")
    lines.append("Subject To")
    for k in range(n):
        emit(f" cover{k}: ", [f"y{i}_{j}" for i, j in map(pairs.__getitem__, model.pk[k])]
             + [f"x{k}"], " >= 1")
    for i, j in pairs:
        lines += [f" mc1_{i}_{j}: y{i}_{j} - x{i} <= 0", f" mc2_{i}_{j}: y{i}_{j} - x{j} <= 0",
                  f" mc3_{i}_{j}: x{i} + x{j} - y{i}_{j} <= 1"]
    lines += ["Binary"] + [f" x{k}" for k in range(n)] + [f" y{i}_{j}" for i, j in pairs]
    lines.append("End")
    return "\n".join(lines) + "\n"


class TestModel:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_counts(self, n):
        model = build_model(complete_graph(n))
        pairs = n * (n - 1) // 2
        assert model.variable_count == n + pairs
        assert model.constraint_count == n + 3 * pairs

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            build_model(Graph(4, [(0, 1), (2, 3)]))


class TestRender:
    def test_single_edge(self):
        assert export_ilp(Graph(2, [(0, 1)])) == K2_LP

    def test_path_three(self):
        assert export_ilp(path_graph(3)) == P3_LP

    def test_middle_vertex_row(self):
        # vertex 1 of the path sits on every pair interval
        text = unwrap(export_ilp(path_graph(3)))
        assert " cover1: y0_1 + y0_2 + y1_2 + x1 >= 1" in text.splitlines()

    def test_reexport_is_byte_identical(self):
        g = generate(GenSpec("ER", 12, 30, seed=1))
        first = export_ilp(g)
        second = render_lp(build_model(g))
        assert first == second

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_binary_section_lists_every_variable(self, n):
        text = export_ilp(complete_graph(n))
        lines = text.splitlines()
        binary = lines[lines.index("Binary") + 1:lines.index("End")]
        model = build_model(complete_graph(n))
        assert len(binary) == model.variable_count
        assert binary[:n] == [f" x{k}" for k in range(n)]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_constraint_rows_all_present(self, n):
        g = cycle_graph(n)
        text = unwrap(export_ilp(g))
        rows = [l for l in text.splitlines()
                if l.startswith((" cover", " mc1_", " mc2_", " mc3_"))]
        assert len(rows) == build_model(g).constraint_count

    def test_long_rows_wrap(self):
        g = generate(GenSpec("ER", 12, 30, seed=1))
        text = export_ilp(g)
        lines = text.splitlines()
        assert any(l.endswith(" +") for l in lines)
        assert max(len(l) for l in lines) <= 80
        for pos, line in enumerate(lines[:-1]):
            if line.endswith(" +"):
                assert lines[pos + 1].startswith("   ")

    @settings(max_examples=40)
    @given(connected_graphs(min_n=1, max_n=14))
    def test_matches_reference(self, g):
        model = build_model(g)
        assert render_lp(model) == reference_lp(model)

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        graphs = [generate(spec) for spec in benchmark_grid("standard") if spec.n <= 30]
        for g in graphs + [path_graph(60), cycle_graph(150), star_graph(39)]:
            digest.update(export_ilp(g).encode())
        assert digest.hexdigest() == PINNED_LP_SHA256

    def test_cover_row_matches_pair_table(self):
        g = cycle_graph(6)
        model = build_model(g)
        pairs = list(itertools.combinations(range(g.n), 2))
        text = unwrap(render_lp(model))
        for k in range(g.n):
            row = next(l for l in text.splitlines()
                       if l.startswith(f" cover{k}: "))
            terms = row.split(": ")[1].split(" >= ")[0].split(" + ")
            assert terms == ([f"y{i}_{j}" for i, j in map(pairs.__getitem__, model.pk[k])]
                             + [f"x{k}"])


class TestMemoryCap:
    # path 60: its table (~95 kB) is under 1 MiB, its 37,760 P(k) entries
    # are not; the table estimate alone is over 64 kB
    @pytest.mark.parametrize("cap", [1 << 20, 1 << 16])
    def test_oversized_export_is_rejected(self, monkeypatch, cap):
        monkeypatch.setattr(geodetic.intervals, "TABLE_MEMORY_CAP", cap)
        with pytest.raises(ValidationError, match="cap"):
            export_ilp(path_graph(60))


def milp_optimum(model: IlpModel) -> int:
    """Optimum of the 0-1 program by scipy's MILP solver, rows built from model.pk."""
    opt = pytest.importorskip("scipy.optimize")
    n = model.n
    pairs = list(itertools.combinations(range(n), 2))
    column = {pair: n + pos for pos, pair in enumerate(pairs)}
    rows, lower, upper = [], [], []

    def add_row(coefs: dict[int, int], lo: float, hi: float) -> None:
        row = np.zeros(model.variable_count)
        for var, coef in coefs.items():
            row[var] = coef
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for k in range(n):
        add_row({**{column[pairs[p]]: 1 for p in model.pk[k]}, k: 1}, 1, np.inf)
    for (i, j), y in column.items():
        add_row({y: 1, i: -1}, -np.inf, 0)
        add_row({y: 1, j: -1}, -np.inf, 0)
        add_row({i: 1, j: 1, y: -1}, -np.inf, 1)
    assert len(rows) == model.constraint_count
    cost = np.r_[np.ones(n), np.zeros(model.variable_count - n)]
    res = opt.milp(cost, integrality=np.ones_like(cost), bounds=opt.Bounds(0, 1),
                   constraints=opt.LinearConstraint(np.array(rows), lower, upper))
    assert res.success
    return round(res.fun)


@pytest.mark.parametrize("spec", [s for s in benchmark_grid("standard") if s.n == 10],
                         ids=lambda s: f"{s.family}-m{s.m_target}-s{s.seed}")
def test_milp_optimum_matches_exact(spec):
    g = generate(spec)
    assert milp_optimum(build_model(g)) == exact_geodetic(g).value


@pytest.mark.parametrize("spec", [s for s in benchmark_grid("standard") if s.n == 10],
                         ids=lambda s: f"{s.family}-m{s.m_target}-s{s.seed}")
@settings(max_examples=2, deadline=None)
@given(perm=st.permutations(range(10)))
def test_milp_optimum_survives_relabeling(spec, perm):
    assume(perm != sorted(perm))
    g = generate(spec)
    assert milp_optimum(build_model(relabeled(g, perm))) == exact_geodetic(g).value
