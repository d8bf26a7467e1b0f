"""Geodetic number toolkit.

A geodetic set covers every vertex of a connected graph with shortest paths
between its members; the geodetic number is the size of the smallest one.
This package computes it exactly on small graphs, bounds it from above with
two greedy strategies on large ones, exports the equivalent 0-1 program, and
benchmarks everything over seeded random graph families.
"""

from .bench import BenchConfig, BenchRecord, CSV_HEADER, format_csv, format_pretty, run_cell, run_grid
from .bounds import diameter_bound, trivial_bound
from .errors import (AlgorithmError, EdgeListParseError, GenerationError,
                     GraphError, ValidationError)
from .exact import (BRUTE_FORCE_MAX_N, SearchLimits, brute_force_geodetic,
                    exact_geodetic)
from .generate import (FAMILIES, GenSpec, SCHEMES, benchmark_grid,
                       edge_count_for_density, generate)
from .graph import Graph, parse_edge_list, write_edge_list
from .greedy import greedy_geodetic
from .ilp import export_ilp
from .intervals import Instance
from .local import locally_greedy_geodetic
from .result import GeodeticResult

__version__ = "0.1.0"

__all__ = [
    "AlgorithmError", "BenchConfig", "BenchRecord", "BRUTE_FORCE_MAX_N",
    "CSV_HEADER", "EdgeListParseError", "FAMILIES", "GenerationError",
    "GenSpec", "GeodeticResult", "Graph", "GraphError", "Instance", "SCHEMES",
    "SearchLimits", "ValidationError", "benchmark_grid",
    "brute_force_geodetic", "diameter_bound", "edge_count_for_density",
    "exact_geodetic", "export_ilp", "format_csv", "format_pretty", "generate",
    "greedy_geodetic", "locally_greedy_geodetic", "parse_edge_list",
    "run_cell", "run_grid", "trivial_bound", "write_edge_list",
]
