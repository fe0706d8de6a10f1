"""Problem instances, assignments, and objective evaluation.

Every solver in this package consumes an :class:`Instance` and produces an
:class:`Assignment` (one nominated author per paper) together with a
:class:`SolveReport`.  Objective values in reports are always recomputed
through the evaluators in this module, never copied out of solver internals.

Papers and authors are numbered starting at 1, matching the on-disk JSON
format.  All types are immutable after construction and all functions here
are pure.  An instance builds what it derives from its fields (its rows,
its violations, the exact core's index) once, on first use, and never
changes it; threads that race to build one build equal values, so instances
and assignments can be shared freely across threads.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, islice
from operator import contains
from typing import Iterable, Mapping, NamedTuple

_NAMED_PAPERS = 100  # validate names this many papers without authors, then counts the rest


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"


class InvalidInstanceError(ValueError):
    """Raised when a solver is handed an instance that fails validation."""


class InvalidAssignmentError(ValueError):
    """Raised when an assignment does not fit its instance."""


class _CoreIndex(NamedTuple):
    """What the exact core (:mod:`.flow`) reads of a valid instance, 0-based."""

    papers_of: tuple[tuple[int, ...], ...]  # each author's papers, ascending
    weights: tuple[int, ...]  # each author's exact p_j (see _exact)
    slots: tuple[tuple[int, int, bool], ...]  # each author's free slot, ascending


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

    A number in ``p`` or ``lam`` becomes a ``float``; a bool, numpy's
    included, or a value that is no number or too large for a float stays
    as given, for :func:`validate` to name.
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
        object.__setattr__(self, "lam", _number(self.lam))

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

    @cached_property
    def _core(self) -> _CoreIndex:
        """The exact core's index, built once per instance since it is frozen.

        It depends on the instance alone, never on ``b``, ``lam`` or a solve.
        """
        papers_of: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.authorship:
            papers_of[j - 1].append(i - 1)
        weights = tuple(map(_exact, self.p))
        slots = sorted((weight, author, False) for author, weight in enumerate(weights))
        return _CoreIndex(tuple(map(tuple, papers_of)), weights, tuple(slots))

    @property
    def nnz(self) -> int:
        return len(self.authorship)


@dataclass(frozen=True)
class Assignment:
    """One nominated reviewer per paper; ``nominee[i - 1]`` is paper ``i``'s author."""

    nominee: tuple[int, ...]

    def __post_init__(self) -> None:
        nominee = tuple(self.nominee)
        if not set(map(type, nominee)) <= {int}:
            nominee = tuple(map(_integer, nominee))
        object.__setattr__(self, "nominee", nominee)


def _exact(cost: float) -> int:
    """``cost * 2**1074`` as an integer.

    Every finite float is a whole multiple of ``2**-1074``, so sums and
    comparisons of these are exact, as with ``Fraction`` but without its cost.
    """
    numerator, denominator = cost.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def _integer(value: object) -> object:
    """``int(value)`` for an integer, numpy's included; anything else, a bool too, as given."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return value


def _number(value: object) -> object:
    """``float(value)`` for a number, numpy's included; anything else as given.

    A bool, numpy's too (no :class:`numbers.Number`), is not a number here.
    What ``float`` refuses, such as a complex or an int too large for a
    float, stays as given as well.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        return value
    try:
        return float(value)
    except (TypeError, OverflowError):
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
    pipeline.  ``integral`` is True on every hard-LP report
    (:func:`.lp.solve_hard_lp`) that carries a solution, and ``None`` on
    every other report.
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
    # The authorship is sorted, so equal pairs are adjacent, and the runs of
    # papers the pairs skip have no authors: no flag per paper, for a huge n.
    previous = None
    uncovered: list[range] = []
    unseen = 1  # the first paper no pair has named yet
    for pair in instance.authorship:
        i, j = pair
        if not type(i) is int is type(j):
            violations.append(f"authorship pair ({_shown(i)}, {_shown(j)}) must hold integers")
            continue
        if not (1 <= i <= n) or not (1 <= j <= m):
            violations.append(f"authorship pair ({_shown(i)}, {_shown(j)}) out of range")
            continue
        if pair == previous:
            violations.append(f"duplicate authorship pair ({i}, {j})")
        previous = pair
        if i > unseen:
            uncovered.append(range(unseen, i))
        unseen = i + 1
    uncovered.append(range(unseen, n + 1))
    named = list(islice(chain.from_iterable(uncovered), _NAMED_PAPERS))
    violations.extend(f"paper {i} has no authors" for i in named)
    more = sum(run.stop - run.start for run in uncovered) - len(named)
    if more:
        violations.append(f"… and {more} more papers have no authors")
    if len(instance.p) != instance.m:
        violations.append(f"p has length {len(instance.p)}, expected m={_shown(instance.m)}")
    for j, pj in enumerate(instance.p, start=1):
        # An int here is one too large for a float.
        if isinstance(pj, bool) or not isinstance(pj, (float, int)):
            violations.append(f"p_{j} must be a number, got {pj!r}")
        elif not (0.0 <= pj <= 1.0):
            violations.append(f"p_{j} out of [0,1]: {_shown(pj)}")
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
        return f"{name} must be a positive integer, got {_shown(count)}"
    return ""


def _limit_problem(b: object) -> str:
    """Why ``b`` is not a nomination limit, an integer (not a bool) >= 1; "" if it is one."""
    if b is not None and (isinstance(b, bool) or not isinstance(b, int)):
        return f"b must be an integer, got {b!r}"
    if b is None or b < 1:
        return f"b must be >= 1, got {_shown(b)}"
    return ""


def _lambda_problem(lam: object) -> str:
    """Why ``lam``, as :func:`_number` left it, is not a finite float > 0; "" if it is one.

    An int here is one too large for a float.
    """
    if isinstance(lam, bool) or not isinstance(lam, (float, int, type(None))):
        return f"lambda must be a number, got {lam!r}"
    if lam is None or not 0.0 < lam <= sys.float_info.max:
        return f"lambda must be > 0 and finite, got {_shown(lam)}"
    return ""


def _shown(value: object) -> str:
    """``repr(value)``, or an int too long to print (4300 digits by default) by its size."""
    try:
        return repr(value)
    except ValueError:
        assert isinstance(value, int)
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


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
    lam = instance.lam if lam is None else _number(lam)
    problem = _lambda_problem(lam)
    if problem:
        raise ValueError(f"penalty weight {problem}")
    return b, lam


def check_assignment(instance: Instance, assignment: Assignment) -> None:
    """Raise :class:`InvalidAssignmentError` unless every nominee is incident."""
    if len(assignment.nominee) != instance.n:
        raise InvalidAssignmentError(
            f"assignment has {len(assignment.nominee)} nominees, expected n={instance.n}"
        )
    # One pass at C speed; the loop below only names the first fault it found.
    nominee, rows = assignment.nominee, instance.rows
    if set(map(type, nominee)) <= {int} and all(map(contains, rows, nominee)):
        return
    for i, (row, j) in enumerate(zip(rows, nominee), start=1):
        if type(j) is not int or j not in row:
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
    report = report_for(instance, assignment, "", soft=(b, lam))
    return report.objective, report.expected_rejections, report.penalty


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
        b, lam = limits
        penalty = lam * sum(load - b for load in loads if load > b)
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


def fractional_loads(instance: Instance, solution: FractionalSolution) -> list[float]:
    """Per-author total weight of a fractional solution."""
    loads = [0.0] * instance.m
    for (_, j), value in solution.x.items():
        loads[j - 1] += value
    return loads
