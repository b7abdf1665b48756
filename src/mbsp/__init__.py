"""Solver suite for the maximum balanced subgraph problem on signed graphs."""

from .graph import (
    NEG,
    POS,
    Bipartition,
    GraphError,
    SignedGraph,
    build,
    induced,
    is_balanced,
    is_feasible,
    negative_part,
    switch,
)
from .spanning import TreeStrategy, spanning_forest
from .ggmz import StableSetParams, stable_set_grasp, switch_set_from_forest
from .grasp import GraspParams, construct, local_search
from .lp import LinearProgram, LpSolution, NumericalError, add_rows_and_resolve
from .instances import RandomSpec, brute_force, generate, generate_balanced, read, write
from .solver import SolveParams, SolveResult, solve

__all__ = [
    "NEG",
    "POS",
    "Bipartition",
    "GraphError",
    "SignedGraph",
    "build",
    "induced",
    "is_balanced",
    "is_feasible",
    "negative_part",
    "switch",
    "TreeStrategy",
    "spanning_forest",
    "StableSetParams",
    "stable_set_grasp",
    "switch_set_from_forest",
    "GraspParams",
    "construct",
    "local_search",
    "LinearProgram",
    "LpSolution",
    "NumericalError",
    "add_rows_and_resolve",
    "RandomSpec",
    "brute_force",
    "generate",
    "generate_balanced",
    "read",
    "write",
    "SolveParams",
    "SolveResult",
    "solve",
]
