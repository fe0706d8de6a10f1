"""Problem instances, assignments, and objective evaluation.

Every solver in this package consumes an :class:`Instance` and produces an
:class:`Assignment` (one nominated author per paper) together with a
:class:`SolveReport`.  Objective values in reports are always recomputed
through the evaluators in this module, never copied out of solver internals.

Papers and authors are numbered starting at 1, matching the on-disk JSON
format.  All types are immutable after construction and all functions here
are pure, so instances and assignments can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    ERROR = "Error"


class InvalidInstanceError(ValueError):
    """Raised when a solver is handed an instance that fails validation."""


class InvalidAssignmentError(ValueError):
    """Raised when an assignment does not fit its instance."""


@dataclass(frozen=True)
class Instance:
    """A reviewer-nomination problem.

    Attributes:
        n: number of papers.
        m: number of authors.
        authorship: sorted tuple of incident ``(paper, author)`` pairs,
            1-based on both sides.  Pair ``(i, j)`` means author ``j`` is on
            paper ``i``.  A pair that holds anything but two integers follows
            the sorted ones as given, for :func:`validate` to name.
        p: per-author irresponsibility probabilities, each in ``[0, 1]``.
            The closed interval is allowed: 0 and 1 are valid inputs.
        b: optional nomination limit (max papers nominating one author).
        lam: optional penalty weight for the soft-limit objective.
    """

    n: int
    m: int
    authorship: tuple[tuple[int, int], ...]
    p: tuple[float, ...]
    b: int | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        # numpy's integers become ints; anything else stays, for validate to name.
        for name in ("n", "m", "b"):
            object.__setattr__(self, name, _integer(getattr(self, name)))
        object.__setattr__(self, "authorship", _sorted_pairs(self.authorship))
        object.__setattr__(self, "p", tuple(v if type(v) is float else _number(v) for v in self.p))

    @classmethod
    def from_rows(
        cls,
        papers: Iterable[Iterable[int]],
        p: Iterable[float],
        b: int | None = None,
        lam: float | None = None,
        m: int | None = None,
    ) -> "Instance":
        """Build an instance from per-paper author lists.

        ``m`` defaults to ``len(p)``.
        """
        pairs: list[tuple[int, int]] = []
        n = 0
        for n, row in enumerate(papers, start=1):
            pairs.extend((n, j) for j in row)
        p = tuple(p)
        return cls(n=n, m=len(p) if m is None else m, authorship=tuple(pairs), p=p, b=b, lam=lam)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Authors of each paper, ascending; ``rows[i - 1]`` belongs to paper ``i``."""
        # A count that is not an int gives no rows, as n = 0 does.
        n = self.n if type(self.n) is int else 0
        out: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.authorship:
            if type(i) is int and 1 <= i <= n:
                out[i - 1].append(j)
        return tuple(tuple(row) for row in out)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """What :func:`validate` reports, found once per instance since it is frozen."""
        return tuple(_find_violations(self))

    @property
    def nnz(self) -> int:
        return len(self.authorship)


@dataclass(frozen=True)
class Assignment:
    """One nominated reviewer per paper; ``nominee[i - 1]`` is paper ``i``'s author."""

    nominee: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nominee", tuple(j if type(j) is int else _integer(j) for j in self.nominee)
        )


def _integer(value: object) -> object:
    """``int(value)`` for an integer, numpy's included; anything else, a bool too, as given."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return value


def _number(value: object) -> object:
    """``float(value)`` for a number; a bool, str or bytes, or what ``float`` refuses, as given."""
    if isinstance(value, (bool, str, bytes)):
        return value
    try:
        return float(value)
    except TypeError:
        return value


def _sorted_pairs(authorship: Iterable[tuple[object, object]]) -> tuple[tuple, ...]:
    """The pairs of integer ids, sorted, then every other pair as given.

    Sorting a pair that holds anything else with them could raise; validate names it.
    """
    ids, odd = [], []
    for i, j in authorship:
        if type(i) is not int:
            i = _integer(i)
        if type(j) is not int:
            j = _integer(j)
        (ids if type(i) is int is type(j) else odd).append((i, j))
    return tuple(sorted(ids)) + tuple(odd)


@dataclass(frozen=True)
class FractionalSolution:
    """A relaxed solution: weights on incident pairs, optional overload slacks.

    ``x`` maps incident ``(paper, author)`` pairs to values in ``[0, 1]``;
    pairs missing from the map are zero.  ``y`` (present only for soft-limit
    relaxations) holds one nonnegative overload value per author.
    """

    x: Mapping[tuple[int, int], float]
    y: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    ``objective == expected_rejections + penalty`` whenever a solution is
    present; an Infeasible report carries no solution fields.  ``lp_bound``,
    ``rounded_objective`` and ``gap`` are filled by the relax-and-round
    pipeline, ``integral`` by the relaxation-only path.
    """

    status: SolveStatus
    objective: float | None = None
    expected_rejections: float | None = None
    penalty: float | None = None
    loads: tuple[int, ...] | None = None
    solver: str = ""
    seed: int | None = None
    lp_bound: float | None = None
    rounded_objective: float | None = None
    gap: float | None = None
    integral: bool | None = None


def validate(instance: Instance) -> list[str]:
    """Check every instance invariant; return a list of violations (empty = ok).

    Violations are data, not exceptions: each entry names the offending
    paper/author index.  Duplicate authorship pairs are reported rather than
    deduplicated, to surface data errors.  The check runs once per instance;
    each call returns a fresh list.
    """
    return list(instance._violations)


def _find_violations(instance: Instance) -> list[str]:
    n_problem, m_problem = _count_problem("n", instance.n), _count_problem("m", instance.m)
    violations = [problem for problem in (n_problem, m_problem) if problem]
    # A count that is not one gives an empty range, as n = 0 does.
    n = 0 if n_problem else instance.n
    m = 0 if m_problem else instance.m
    covered = [False] * n
    # The authorship is sorted, so equal pairs are adjacent.
    previous = None
    for pair in instance.authorship:
        i, j = pair
        if not type(i) is int is type(j):
            violations.append(f"authorship pair ({i!r}, {j!r}) must hold integers")
            continue
        if not (1 <= i <= n) or not (1 <= j <= m):
            violations.append(f"authorship pair ({i}, {j}) out of range")
            continue
        if pair == previous:
            violations.append(f"duplicate authorship pair ({i}, {j})")
        previous = pair
        covered[i - 1] = True
    for i, ok in enumerate(covered, start=1):
        if not ok:
            violations.append(f"paper {i} has no authors")
    if len(instance.p) != instance.m:
        violations.append(f"p has length {len(instance.p)}, expected m={instance.m}")
    for j, pj in enumerate(instance.p, start=1):
        if not isinstance(pj, float):
            violations.append(f"p_{j} must be a number, got {pj!r}")
        elif not (0.0 <= pj <= 1.0):
            violations.append(f"p_{j} out of [0,1]: {pj}")
    limit_problem = "" if instance.b is None else _limit_problem(instance.b)
    if limit_problem:
        violations.append(limit_problem)
    lambda_problem = "" if instance.lam is None else _lambda_problem(instance.lam)
    if lambda_problem:
        violations.append(lambda_problem)
    return violations


def _count_problem(name: str, count: object) -> str:
    """Why ``count`` is not a positive integer (a bool is not one); "" if it is one."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        return f"{name} must be a positive integer, got {count!r}"
    return ""


def _limit_problem(b: object) -> str:
    """Why ``b`` is not a nomination limit, an integer (not a bool) >= 1; "" if it is one."""
    if b is not None and (isinstance(b, bool) or not isinstance(b, int)):
        return f"b must be an integer, got {b!r}"
    if b is None or b < 1:
        return f"b must be >= 1, got {b}"
    return ""


def _lambda_problem(lam: object) -> str:
    """Why ``lam`` is not a penalty weight, a finite number > 0 (not a bool); "" if it is one."""
    if isinstance(lam, bool):
        return f"lambda must be a number, got {lam!r}"
    if lam is None or not (lam > 0.0 and math.isfinite(lam)):
        return f"lambda must be > 0 and finite, got {lam}"
    return ""


def require_valid(instance: Instance) -> None:
    violations = instance._violations
    if violations:
        raise InvalidInstanceError("; ".join(violations))


def resolve_limits(
    instance: Instance,
    b: int | None = None,
    lam: float | None = None,
    soft: bool = False,
) -> tuple[int, float | None]:
    """The nomination limit and, for the soft variant, the penalty weight.

    Each defaults to the instance's own value.  ``b`` must be an integer of
    at least 1 (a bool is not one) and the soft variant also needs a finite
    ``lam > 0`` (not a bool), returned as a ``float``; anything else raises
    ``ValueError``.  Without ``soft`` the returned weight is ``None``.
    """
    b = instance.b if b is None else _integer(b)
    problem = _limit_problem(b)
    if problem:
        raise ValueError(f"nomination limit {problem}")
    if not soft:
        return b, None
    if lam is None:
        lam = instance.lam
    problem = _lambda_problem(lam)
    if problem:
        raise ValueError(f"penalty weight {problem}")
    return b, float(lam)


def check_assignment(instance: Instance, assignment: Assignment) -> None:
    """Raise :class:`InvalidAssignmentError` unless every nominee is incident."""
    if len(assignment.nominee) != instance.n:
        raise InvalidAssignmentError(
            f"assignment has {len(assignment.nominee)} nominees, expected n={instance.n}"
        )
    for i, j in enumerate(assignment.nominee, start=1):
        if type(j) is not int or j not in instance.rows[i - 1]:
            raise InvalidAssignmentError(f"paper {i} nominates non-author {j!r}")


def author_loads(instance: Instance, assignment: Assignment) -> list[int]:
    """Count how many papers nominate each author; ``loads[j - 1]`` is author ``j``'s."""
    check_assignment(instance, assignment)
    return _count_loads(instance, assignment)


def basic_objective(instance: Instance, assignment: Assignment) -> float:
    """Expected number of desk-rejected papers under the assignment.

    Summation runs in paper order, so equal inputs give bit-identical output.
    """
    check_assignment(instance, assignment)
    return _expected_rejections(instance, assignment)


def soft_objective(
    instance: Instance,
    assignment: Assignment,
    b: int | None = None,
    lam: float | None = None,
) -> tuple[float, float, float]:
    """Soft-limit objective as ``(objective, expected_rejections, penalty)``.

    ``penalty`` charges ``lam`` per nomination beyond ``b`` on any single
    author.  ``b`` and ``lam`` are resolved by :func:`resolve_limits`.
    """
    b, lam = resolve_limits(instance, b, lam, soft=True)
    check_assignment(instance, assignment)
    expected = _expected_rejections(instance, assignment)
    penalty = _overload_penalty(_count_loads(instance, assignment), b, lam)
    return expected + penalty, expected, penalty


def report_for(
    instance: Instance,
    assignment: Assignment,
    solver: str,
    seed: int | None = None,
    soft: tuple[int | None, float | None] | None = None,
) -> SolveReport:
    """Optimal report for ``assignment``, every number recomputed from the instance.

    ``soft`` is ``(b, lam)`` for the soft-limit objective; without it the
    objective is the expected number of rejections and the penalty is 0.
    The assignment is checked once and the loads are counted once.
    """
    limits = None if soft is None else resolve_limits(instance, *soft, soft=True)
    check_assignment(instance, assignment)
    objective = expected = _expected_rejections(instance, assignment)
    loads = _count_loads(instance, assignment)
    penalty = 0.0
    if limits is not None:
        penalty = _overload_penalty(loads, *limits)
        objective = expected + penalty
    return SolveReport(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        expected_rejections=expected,
        penalty=penalty,
        loads=tuple(loads),
        solver=solver,
        seed=seed,
    )


def _expected_rejections(instance: Instance, assignment: Assignment) -> float:
    """Sum of the nominees' ``p``, in paper order, for a checked assignment."""
    total = 0.0
    for j in assignment.nominee:
        total += instance.p[j - 1]
    return total


def _count_loads(instance: Instance, assignment: Assignment) -> list[int]:
    """Per-author nomination counts of a checked assignment."""
    loads = [0] * instance.m
    for j in assignment.nominee:
        loads[j - 1] += 1
    return loads


def _overload_penalty(loads: list[int], b: int, lam: float) -> float:
    over = 0
    for load in loads:
        if load > b:
            over += load - b
    return lam * over


def fractional_loads(instance: Instance, solution: FractionalSolution) -> list[float]:
    """Per-author total weight of a fractional solution."""
    loads = [0.0] * instance.m
    for (_, j), value in solution.x.items():
        loads[j - 1] += value
    return loads
