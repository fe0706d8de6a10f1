"""Soft nomination limits: epigraph relaxation, rounding, and an exact solver.

Overloading an author is allowed here but charged ``lam`` per nomination
beyond ``b``.  The piecewise-linear penalty linearizes through one auxiliary
overload variable per author (``y_j >= load_j - b``, ``y_j >= 0``); because
the overload variables carry positive cost, any optimum pins them to
``max(0, load_j - b)`` exactly, which :func:`solve_soft_relaxed` verifies
before returning.  A per-paper argmax then rounds the relaxed solution to a
valid assignment.

Both this program and the hard relaxation are totally unimodular: the
paper and author rows form the incidence matrix of a bipartite graph, and
each overload variable adds a unit column.  Every vertex is therefore
integral and rounds without loss, so a ``gap > 0`` can only come from a
backend answer that is not a vertex.

:func:`solve_soft_exact` sidesteps the relaxation entirely: the penalty's
two slopes become two kinds of slot per author, so an author's first ``b``
nomination slots weigh ``p_j`` and the rest ``p_j + lam``, and the
author-slot greedy of :mod:`.flow`, run on the instance itself, returns the
exact integral optimum, which makes the rounding gap measurable instead of
merely bounded.  In :func:`.flow.build_soft_network` the two slopes are two
source edges per author (free up to ``b``, cost ``lam`` beyond).
"""

from __future__ import annotations

from dataclasses import replace

from .flow import _assign_by_slots
from .instance import (
    Assignment,
    FractionalSolution,
    Instance,
    SolveReport,
    SolveStatus,
    fractional_loads,
    report_for,
    require_valid,
    resolve_limits,
)
from .lp import _read_pairs, build_soft_lp, solve_lp

EQUIVALENCE_TOL = 1e-7


def solve_soft_relaxed(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[FractionalSolution, SolveReport]:
    """Optimum of the epigraph relaxation.

    The returned overload values are checked against ``max(0, load_j - b)``
    recomputed from the fractional loads; disagreement beyond 1e-7 means the
    backend returned a non-optimal point and raises instead of propagating a
    wrong bound.
    """
    b, lam = resolve_limits(instance, b, lam, soft=True)
    lp, pair_vars, y_vars = build_soft_lp(instance, b, lam)
    solution = solve_lp(lp)
    x, expected_rejections = _read_pairs(instance, pair_vars, solution, "soft relaxation")
    y = tuple(solution.values[y_vars[j]] for j in range(1, instance.m + 1))
    fractional = FractionalSolution(x=x, y=y)

    loads = fractional_loads(instance, fractional)
    for j, (y_j, load) in enumerate(zip(y, loads), start=1):
        expected = max(0.0, load - b)
        if abs(y_j - expected) > EQUIVALENCE_TOL:
            raise RuntimeError(
                f"overload variable y_{j}={y_j!r} differs from max(0, load-b)={expected!r}"
            )

    penalty = lam * sum(y)
    report = SolveReport(
        status=SolveStatus.OPTIMAL,
        objective=expected_rejections + penalty,
        expected_rejections=expected_rejections,
        penalty=penalty,
        loads=None,
        solver="soft-lp",
    )
    return fractional, report


def round_soft(instance: Instance, fractional: FractionalSolution) -> Assignment:
    """Per paper, nominate the author with the largest fractional weight.

    Ties go to the smallest author index.  The per-paper nomination rule is
    the only constraint of the soft problem, so the result is always a valid
    assignment; runs in time linear in the number of incidences.
    """
    x = fractional.x
    nominee: list[int] = []
    for i, row in enumerate(instance.rows, start=1):
        best_j = row[0]
        best_value = x.get((i, row[0]), 0.0)
        for j in row[1:]:
            value = x.get((i, j), 0.0)
            if value > best_value:
                best_value = value
                best_j = j
        nominee.append(best_j)
    return Assignment(nominee=tuple(nominee))


def solve_soft(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[Assignment, SolveReport]:
    """Relax, round, and report both the integral objective and the LP bound."""
    fractional, relaxed_report = solve_soft_relaxed(instance, b, lam)
    assignment = round_soft(instance, fractional)
    report = report_for(instance, assignment, "soft-lp-round", soft=(b, lam))
    assert report.objective is not None and relaxed_report.objective is not None
    report = replace(
        report,
        lp_bound=relaxed_report.objective,
        rounded_objective=report.objective,
        gap=report.objective - relaxed_report.objective,
    )
    return assignment, report


def solve_soft_exact(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[Assignment, SolveReport]:
    """Exact integral optimum of the soft objective.

    The author-slot greedy runs on the instance itself, with ``b`` slots of
    weight ``p_j`` and the rest of weight ``p_j + lam`` per author; it is
    the greedy :func:`.flow.min_cost_circulation` runs on
    :func:`.flow.build_soft_network`'s network.
    """
    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=True)
    assignment = _assign_by_slots(instance, b, lam)
    if assignment is None:
        raise RuntimeError("the soft slots should always cover every paper")
    return assignment, report_for(instance, assignment, "soft-exact-flow", soft=(b, lam))
