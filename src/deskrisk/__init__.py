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
instance (see there for why it is exact), and :mod:`.lp` the relaxations'
routes, which certify that greedy's answer with its own prices, in exact
integer arithmetic and without numpy.

``import deskrisk`` loads only what a solve runs: :mod:`.instance`,
:mod:`.io`, :mod:`.greedy`, :mod:`.flow` and :mod:`.lp`.  The other names
load with their module on first use (PEP 562): the paper's assignment
networks (:mod:`.network`), the linear programs and their HiGHS solver
(:mod:`.program`), the brute-force oracles (:mod:`.oracle`), the one-pass
baselines (:mod:`.baselines`) and the instance generator (:mod:`.generate`).
The oracles and baselines cross-check every answer on small instances.
"""

from importlib import import_module

from .flow import solve_hard, solve_soft_exact
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
from .lp import solve_hard_lp, solve_soft, solve_soft_relaxed

# Module -> the names it gives the package when first used.
_LAZY = {
    "baselines": (
        "BaselineResult", "greedy_assign_hard", "greedy_assign_soft", "rand_assign_hard",
        "rand_assign_soft",
    ),
    "generate": ("GeneratorSpec", "generate"),
    "network": (
        "Circulation", "FlowEdge", "FlowNetwork", "MalformedNetworkError", "build_hard_network",
        "build_soft_network", "check_circulation", "min_cost_circulation",
    ),
    "oracle": (
        "DEFAULT_ENUMERATION_CAP", "EnumerationLimitError", "assignment_count",
        "enumerate_assignments", "oracle_basic", "oracle_hard", "oracle_soft",
    ),
    "program": (
        "LinearProgram", "LpSolution", "LpStatus", "build_hard_lp", "build_soft_lp", "round_soft",
        "solve_lp",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str) -> object:
    """Load the module that defines ``name`` and bind all of its names here.

    All at once, because importing ``.generate`` binds the submodule to the
    package's ``generate`` until its function replaces it.
    """
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOME[name]}", __name__)
    for each in _LAZY[_HOME[name]]:
        globals()[each] = getattr(module, each)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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
