"""Every solver returns through result.finish, which verifies the set."""

import pytest

import geodetic.result
from geodetic.cli import main
from geodetic.errors import AlgorithmError
from geodetic.exact import SearchLimits, brute_force_geodetic, exact_geodetic
from geodetic.greedy import greedy_geodetic
from geodetic.intervals import Instance
from geodetic.local import locally_greedy_geodetic
from helpers import cycle_graph, path_graph

# P4's forced core (its two leaves) already covers it; C6 has no forced
# vertex, so exact must search, and one node is too few to finish that search.
PATHS = {
    "greedy": lambda: greedy_geodetic(cycle_graph(6)),
    "greedy-addone": lambda: greedy_geodetic(cycle_graph(6), add_one=True),
    "locally-greedy": lambda: locally_greedy_geodetic(cycle_graph(6)),
    "brute-force": lambda: brute_force_geodetic(cycle_graph(6)),
    "exact-forced": lambda: exact_geodetic(path_graph(4)),
    "exact-searched": lambda: exact_geodetic(cycle_graph(6)),
    "exact-fallback": lambda: exact_geodetic(cycle_graph(6), SearchLimits(node_budget=1)),
}


@pytest.fixture
def reject_every_set(monkeypatch):
    monkeypatch.setattr(geodetic.result, "is_geodetic", lambda table, members: False)


def test_paths_reach_what_their_names_say():
    assert Instance.of(path_graph(4)).forced == 0b1001
    assert PATHS["exact-forced"]().vertices == (0, 3)
    assert Instance.of(cycle_graph(6)).forced == 0
    assert PATHS["exact-searched"]().optimal
    assert not PATHS["exact-fallback"]().optimal


@pytest.mark.parametrize("path", sorted(PATHS))
def test_every_path_raises_on_a_rejected_set(path, reject_every_set):
    with pytest.raises(AlgorithmError, match="returned a non-geodetic set"):
        PATHS[path]()


def test_solve_exits_internal_error(tmp_path, reject_every_set):
    path = tmp_path / "p4.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    assert main(["solve", str(path)]) == 3

