import re
import subprocess
import sys

import pytest

import geodetic.cli
import geodetic.intervals
from geodetic.cli import main
from geodetic.errors import GraphError
from geodetic.generate import GenSpec, generate
from geodetic.graph import parse_edge_list, write_edge_list
from geodetic.ilp import export_ilp
from geodetic.intervals import row_bytes
from helpers import count_builds

P4_TEXT = "0 1\n1 2\n2 3\n"
C6_TEXT = "0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"


def assert_cannot_write(capsys, path) -> None:
    """One error line naming the path, and no traceback."""
    err = capsys.readouterr().err
    assert err.splitlines() == [f"Error: cannot write {path}: No such file or directory"]


@pytest.fixture
def unwritable(tmp_path):
    """A path under a directory that does not exist."""
    return str(tmp_path / "missing-dir" / "out")


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT)
    return str(path)


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(C6_TEXT)
    return str(path)


class TestGenerate:
    def test_writes_connected_graph(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["generate", "--family", "er", "--n", "12",
                     "--density", "0.3", "-o", str(out)])
        assert code == 0
        g = parse_edge_list(out.read_text(), strict=True)
        assert g.n == 12
        assert g.m == 19  # floor(0.3 * 66)
        assert "n=12 m=19 seed=0" in capsys.readouterr().err

    def test_stdout_by_default(self, capsys):
        code = main(["generate", "--family", "ba", "--n", "8", "--edges", "10"])
        assert code == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert (g.n, g.m) == (8, 10)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--family", "ws", "--n", "15", "--edges", "30",
                "--seed", "7"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_density_and_edges_conflict(self, capsys):
        code = main(["generate", "--family", "er", "--n", "10",
                     "--density", "0.5", "--edges", "20"])
        assert code == 1

    def test_neither_density_nor_edges(self):
        assert main(["generate", "--family", "er", "--n", "10"]) == 1

    def test_impossible_edge_count_is_data_error(self):
        code = main(["generate", "--family", "er", "--n", "12", "--edges", "5"])
        assert code == 2

    def test_unwritable_output_is_usage_error(self, unwritable, capsys):
        code = main(["generate", "--family", "er", "--n", "10", "--edges", "12",
                     "-o", unwritable])
        assert code == 1
        assert_cannot_write(capsys, unwritable)

    @pytest.mark.parametrize("density", ["nan", "inf", "2"])
    def test_bad_density_is_data_error(self, density):
        code = main(["generate", "--family", "er", "--n", "12", "--density", density])
        assert code == 2


def masked_seconds(text: str) -> list[str]:
    """Printed solve lines with the seconds column blanked."""
    return [re.sub(r" +\d+\.\d{6}s", " <seconds>", line) for line in text.splitlines()]


# every -a choice on P4, as printed, seconds masked
SOLVE_LINES = {
    "exact": ["exact                  2 <seconds>  optimal"],
    "brute": ["brute-force            2 <seconds>  optimal"],
    "greedy": ["greedy                 2 <seconds>  upper bound"],
    "greedy-addone": ["greedy-addone          2 <seconds>  upper bound"],
    "locally-greedy": ["locally-greedy         2 <seconds>  upper bound"],
    "bounds": ["diameter-bound         2"],
    "all": ["exact                  2 <seconds>  optimal",
            "greedy                 2 <seconds>  upper bound",
            "greedy-addone          2 <seconds>  upper bound",
            "locally-greedy         2 <seconds>  upper bound"],
}


class TestSolve:
    @pytest.mark.parametrize("algorithm", sorted(SOLVE_LINES))
    def test_printed_lines(self, p4_file, algorithm, capsys):
        assert main(["solve", p4_file, "-a", algorithm]) == 0
        assert masked_seconds(capsys.readouterr().out) == SOLVE_LINES[algorithm]

    def test_printed_budget_line(self, c6_file, capsys):
        assert main(["solve", c6_file, "-a", "exact", "--node-budget", "1"]) == 0
        assert masked_seconds(capsys.readouterr().out) == [
            "exact                <=2 <seconds>  budget exhausted, upper bound"]

    def test_all_algorithms_agree_on_path(self, p4_file, capsys):
        assert main(["solve", p4_file]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        names = [l.split()[0] for l in lines]
        assert names == ["exact", "greedy", "greedy-addone", "locally-greedy"]
        assert all(l.split()[1] == "2" for l in lines)
        assert "optimal" in lines[0]
        assert "upper bound" in lines[1]

    def test_brute_force(self, p4_file, capsys):
        assert main(["solve", p4_file, "-a", "brute"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("brute-force")
        assert line.split()[1] == "2"

    def test_brute_refuses_large_graph(self, tmp_path):
        path = tmp_path / "p30.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(29)))
        assert main(["solve", str(path), "-a", "brute"]) == 1

    def test_bounds(self, p4_file, capsys):
        assert main(["solve", p4_file, "-a", "bounds"]) == 0
        out = capsys.readouterr().out
        assert out.split() == ["diameter-bound", "2"]

    def test_budget_prints_upper_bound_marker(self, c6_file, capsys):
        assert main(["solve", c6_file, "-a", "exact", "--node-budget", "1"]) == 0
        out = capsys.readouterr().out
        assert "<=" in out
        assert "budget exhausted" in out

    def test_disconnected_is_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 3\n")
        assert main(["solve", str(path)]) == 2

    def test_garbage_is_data_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nnot numbers\n")
        assert main(["solve", str(path)]) == 2

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "0 1\n".encode("utf-16-le"))
        assert main(["solve", str(path)]) == 2

    @pytest.mark.parametrize("budget", [["--time-budget", "-1"], ["--time-budget", "0"],
                                        ["--time-budget", "nan"], ["--node-budget", "0"]])
    def test_bad_budget_is_usage_error(self, c6_file, budget):
        assert main(["solve", c6_file, "-a", "exact", *budget]) == 1

    def test_oversized_table_is_data_error(self, tmp_path, monkeypatch, capsys):
        n = 6000
        path = tmp_path / "c6000.txt"
        path.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        calls = count_builds(monkeypatch)
        assert main(["solve", str(path)]) == 2
        assert calls == {"all_pairs_distances": 0, "interval_table": 0}
        assert "cap" in capsys.readouterr().err

    def test_oversized_bounds_is_data_error(self, tmp_path, monkeypatch, capsys):
        n = 6000
        path = tmp_path / "c6000.txt"
        path.write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        calls = count_builds(monkeypatch)
        assert main(["solve", str(path), "-a", "bounds"]) == 2
        assert calls["all_pairs_distances"] == 0
        assert "cap" in capsys.readouterr().err

    def test_all_shares_one_build(self, c6_file, monkeypatch):
        calls = count_builds(monkeypatch)
        assert main(["solve", c6_file, "-a", "all"]) == 0
        assert calls == {"all_pairs_distances": 1, "interval_table": 1}

    def test_missing_file_is_usage_error(self):
        assert main(["solve", "/nonexistent/file.txt"]) == 1

    def test_one_based(self, tmp_path, capsys):
        path = tmp_path / "tri.txt"
        path.write_text("1 2\n2 3\n1 3\n")
        assert main(["solve", str(path), "--one-based", "-a", "exact"]) == 0
        assert capsys.readouterr().out.split()[1] == "3"


class TestVerify:
    def test_geodetic_set(self, p4_file, capsys):
        assert main(["verify", p4_file, "0", "3"]) == 0
        assert "geodetic: closure covers 4 of 4" in capsys.readouterr().out

    def test_non_geodetic_set(self, p4_file, capsys):
        assert main(["verify", p4_file, "0", "2"]) == 0
        assert "not geodetic: closure covers 3 of 4" in capsys.readouterr().out

    def test_one_based(self, tmp_path, capsys):
        path = tmp_path / "p4_one_based.txt"
        path.write_text("1 2\n2 3\n3 4\n")
        assert main(["verify", str(path), "--one-based", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("geodetic")

    def test_reads_rows_without_the_table(self, p4_file, monkeypatch, capsys):
        calls = count_builds(monkeypatch)
        assert main(["verify", p4_file, "0", "3"]) == 0
        assert calls == {"all_pairs_distances": 1, "interval_table": 0}
        assert "geodetic: closure covers 4 of 4" in capsys.readouterr().out

    def test_reads_rows_where_the_table_is_over_the_cap(self, tmp_path, capsys):
        # K2,4498: its two hubs cover every vertex, and its table is over 4 GiB
        path = tmp_path / "k2.txt"
        path.write_text("".join(f"{u} {v}\n" for u in (0, 1) for v in range(2, 4500)))
        assert main(["verify", str(path), "0", "1"]) == 0
        assert capsys.readouterr().out.startswith("geodetic: closure covers 4500 of 4500")
        assert main(["solve", str(path), "-a", "greedy"]) == 2
        err = capsys.readouterr().err
        assert "cap" in err and "Traceback" not in err

    def test_rows_past_the_cap_are_a_data_error(self, tmp_path, monkeypatch, capsys):
        # K2,60 under a cap of four rows: its two hubs fit, its 60 leaves do not
        path = tmp_path / "k2.txt"
        path.write_text("".join(f"{u} {v}\n" for u in (0, 1) for v in range(2, 62)))
        monkeypatch.setattr(geodetic.intervals, "TABLE_MEMORY_CAP", 4 * row_bytes(62))
        assert main(["verify", str(path), "0", "1"]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), *map(str, range(2, 62))]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "cap" in err[0]

    def test_out_of_range_vertex(self, p4_file):
        assert main(["verify", p4_file, "0", "9"]) == 1

    @pytest.mark.parametrize("typed", ["0", "4"])
    def test_one_based_out_of_range_reports_typed_id(self, tmp_path, capsys, typed):
        path = tmp_path / "triangle.txt"
        path.write_text("1 2\n2 3\n1 3\n")
        assert main(["verify", str(path), "--one-based", "1", typed]) == 1
        assert f"vertex {typed} out of range 1..3 for n=3" in capsys.readouterr().err


class TestExportIlp:
    def test_default_output_path(self, tmp_path, capsys):
        src = tmp_path / "p3.txt"
        src.write_text("0 1\n1 2\n")
        assert main(["export-ilp", str(src)]) == 0
        text = (tmp_path / "p3.lp").read_text()
        assert text.startswith("Minimize")
        assert text.endswith("End\n")
        assert " cover1: y0_1 + y0_2 + y1_2 + x1 >= 1" in text

    def test_explicit_output_path(self, p4_file, tmp_path):
        out = tmp_path / "model.lp"
        assert main(["export-ilp", p4_file, "-o", str(out)]) == 0
        assert "Binary" in out.read_text()

    def test_file_is_export_ilp_bytes(self, tmp_path):
        g = generate(GenSpec("BA", 60, 120, seed=2))
        src = tmp_path / "g.txt"
        src.write_text(write_edge_list(g))
        assert main(["export-ilp", str(src)]) == 0
        assert (tmp_path / "g.lp").read_bytes() == export_ilp(g).encode()

    def test_unwritable_output_is_usage_error(self, p4_file, unwritable, capsys):
        assert main(["export-ilp", p4_file, "-o", unwritable]) == 1
        assert_cannot_write(capsys, unwritable)

    def test_oversized_export_is_data_error(self, tmp_path, monkeypatch, capsys):
        # path 60's P(k) lists pass a 1 MiB cap; its table does not
        monkeypatch.setattr(geodetic.intervals, "TABLE_MEMORY_CAP", 1 << 20)
        src = tmp_path / "p60.txt"
        src.write_text("".join(f"{v} {v + 1}\n" for v in range(59)))
        assert main(["export-ilp", str(src)]) == 2
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "p60.lp").exists()


class TestBench:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--scheme", "standard", "--family", "er",
                     "--max-n", "20", "--no-timing", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9  # header + ER sizes {10,20} x 4 densities
        assert lines[0].startswith("family,n,m,seed")
        assert [l.split(",")[3] for l in lines[1:]] == [str(s) for s in range(8)]
        assert "wrote 8 rows" in capsys.readouterr().err

    def test_no_timing_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--family", "ba", "--max-n", "10", "--no-timing"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_pretty_prints_table(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--family", "ws", "--max-n", "10",
                     "--no-timing", "--pretty", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].lstrip().startswith("family")

    def test_unwritable_output_fails_before_any_cell(self, unwritable, monkeypatch,
                                                     capsys):
        ran = []
        monkeypatch.setattr(geodetic.cli, "run_grid", lambda *a, **k: ran.append(a))
        assert main(["bench", "--max-n", "10", "-o", unwritable]) == 1
        assert ran == []
        assert_cannot_write(capsys, unwritable)

    @pytest.mark.parametrize("before", [None, "earlier rows\n"], ids=["new", "existing"])
    def test_failed_run_leaves_the_path_as_it_was(self, tmp_path, monkeypatch, before):
        out = tmp_path / "bench.csv"
        if before is not None:
            out.write_text(before)

        def failing_grid(*args, **kwargs):
            raise GraphError("no graph")

        monkeypatch.setattr(geodetic.cli, "run_grid", failing_grid)
        assert main(["bench", "--max-n", "10", "-o", str(out)]) == 2
        assert (out.read_text() if out.exists() else None) == before

    def test_bad_jobs(self, tmp_path):
        assert main(["bench", "--jobs", "0", "-o", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("budget", ["-1", "0", "nan"])
    @pytest.mark.parametrize("exact_max_n", [["--exact-max-n", "5"], []],
                             ids=["exact-max-n-5", "default"])
    def test_bad_exact_budget_is_usage_error(self, tmp_path, budget, exact_max_n):
        out = tmp_path / "x.csv"
        code = main(["bench", "--max-n", "10", *exact_max_n,
                     "--exact-time-budget", budget, "-o", str(out)])
        assert code == 1
        assert not out.exists()


class TestEntryPoints:
    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_module_invocation(self, p4_file):
        proc = subprocess.run(
            [sys.executable, "-m", "geodetic", "solve", p4_file, "-a", "greedy"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.split()[1] == "2"

    def test_module_exit_code_passthrough(self):
        proc = subprocess.run(
            [sys.executable, "-m", "geodetic", "solve", "/missing.txt"],
            capture_output=True, text=True)
        assert proc.returncode == 1
