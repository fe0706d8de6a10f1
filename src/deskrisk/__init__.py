"""Reciprocal-reviewer nomination solvers minimizing expected desk rejections.

Three problem variants over the same instance data:

* basic: nominate one co-author per paper, minimize the expected number of
  desk-rejected papers (:func:`greedy_assign_basic` is exact);
* hard limit: additionally cap how many papers may nominate one author
  (:func:`solve_hard` is exact and integral, and reports infeasibility when
  the cap cannot be met; :func:`solve_hard_lp` returns the assignment at the
  relaxation's certified vertex);
* soft limit: replace the cap with a per-overload penalty
  (:func:`solve_soft` relaxes and rounds, :func:`solve_soft_exact` is the
  integral optimum).

One module per solving method serves both capped variants: :mod:`.flow`
holds the exact solvers, one author-slot greedy run straight on the
instance (see there for why it is exact), and :mod:`.lp` the relaxations,
whose routes certify that greedy's answer with its own prices, in exact
integer arithmetic and without numpy.
The assignment networks of the paper's reduction (:func:`build_hard_network`,
:func:`build_soft_network`) are an export; :func:`min_cost_circulation`
solves only networks these builders emit, by reading the instance back and
running the same greedy.

Brute-force oracles and the one-pass baselines live alongside the real
solvers so every answer can be cross-checked on small instances.
"""

from .baselines import (
    BaselineResult,
    greedy_assign_hard,
    greedy_assign_soft,
    rand_assign_hard,
    rand_assign_soft,
)
from .flow import (
    Circulation,
    FlowEdge,
    FlowNetwork,
    MalformedNetworkError,
    build_hard_network,
    build_soft_network,
    check_circulation,
    min_cost_circulation,
    solve_hard,
    solve_soft_exact,
)
from .generate import GeneratorSpec, generate
from .greedy import greedy_assign_basic
from .instance import (
    Assignment,
    FractionalSolution,
    Instance,
    InvalidAssignmentError,
    InvalidInstanceError,
    SolveReport,
    SolveStatus,
    author_loads,
    basic_objective,
    fractional_loads,
    require_valid,
    soft_objective,
    validate,
)
from .io import (
    FormatError,
    load_assignment,
    load_instance,
    load_instance_csv,
    save_assignment,
    save_instance,
)
from .lp import (
    LinearProgram,
    LpSolution,
    LpStatus,
    build_hard_lp,
    build_soft_lp,
    round_soft,
    solve_hard_lp,
    solve_lp,
    solve_soft,
    solve_soft_relaxed,
)
from .oracle import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationLimitError,
    assignment_count,
    enumerate_assignments,
    oracle_basic,
    oracle_hard,
    oracle_soft,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BaselineResult",
    "Circulation",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationLimitError",
    "FlowEdge",
    "FlowNetwork",
    "FormatError",
    "FractionalSolution",
    "GeneratorSpec",
    "Instance",
    "InvalidAssignmentError",
    "InvalidInstanceError",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "MalformedNetworkError",
    "SolveReport",
    "SolveStatus",
    "assignment_count",
    "author_loads",
    "basic_objective",
    "build_hard_lp",
    "build_hard_network",
    "build_soft_lp",
    "build_soft_network",
    "check_circulation",
    "enumerate_assignments",
    "fractional_loads",
    "generate",
    "greedy_assign_basic",
    "greedy_assign_hard",
    "greedy_assign_soft",
    "load_assignment",
    "load_instance",
    "load_instance_csv",
    "min_cost_circulation",
    "oracle_basic",
    "oracle_hard",
    "oracle_soft",
    "rand_assign_hard",
    "rand_assign_soft",
    "require_valid",
    "round_soft",
    "save_assignment",
    "save_instance",
    "soft_objective",
    "solve_hard",
    "solve_hard_lp",
    "solve_lp",
    "solve_soft",
    "solve_soft_exact",
    "solve_soft_relaxed",
    "validate",
]
