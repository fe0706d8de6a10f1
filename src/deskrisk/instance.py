"""Problem instances, assignments, and objective evaluation.

Every solver in this package consumes an :class:`Instance` and produces an
:class:`Assignment` (one nominated author per paper) together with a
:class:`SolveReport`.  Objective values in reports are always recomputed
through the evaluators in this module, never copied out of solver internals.

Papers and authors are numbered starting at 1, matching the on-disk JSON
format.  The records are frozen (see :class:`_Record`) and all functions here
are pure.  An instance stores its papers' author lists, its rows.  What it
derives from them (its pairs, its violations, the exact core's index) it builds
once, on first use, and never changes; threads that race to build one build
equal values, so instances and assignments can be shared freely across
threads.  No solve route reads the pairs.
"""

from __future__ import annotations

import numbers
import sys
from bisect import bisect_left
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
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


class _Record:
    """A frozen record, as ``@dataclass(frozen=True)`` makes one, without importing its module
    (nor :mod:`inspect`, which it loads): the fields are the base record's, then the class's own
    annotations, in order, with its class-level defaults, and :func:`replace` stands in for
    ``dataclasses.replace``.  A field derived on read (a ``cached_property``) has no default.
    """

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__annotations__", {})
        given = {k: v for k, v in vars(cls).items() if k in own and type(v) is not cached_property}
        cls._defaults = {**getattr(cls, "_defaults", {}), **dict.fromkeys(own), **given}
        cls.__match_args__ = tuple(cls._defaults)
        cls._required = (getattr(cls, "_required", frozenset()) | own.keys()) - given.keys()

    def __init__(self, *args: object, **kwargs: object) -> None:
        given, names = len(args) + len(kwargs), self.__match_args__
        kwargs.update(zip(names, args))  # fewer keys than given: too many, or one given twice
        values = {**self._defaults, **kwargs}
        if len(kwargs) < given or len(values) > len(names) or not kwargs.keys() >= self._required:
            wrong = sorted(kwargs.keys() - set(names) | self._required - kwargs.keys())
            raise TypeError(f"{type(self).__name__}{names}: each once; missing or unknown: {wrong}")
        self.__dict__.update(values)
        self.__post_init__()

    __post_init__ = object.__init__  # a record without a hook of its own calls this no-op

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


def replace(record: _Record, **changes: object) -> _Record:
    """``record`` with ``changes``, built by its constructor, as ``dataclasses.replace`` does."""
    return type(record)(**dict(zip(record.__match_args__, record._values()), **changes))


class _CoreIndex(NamedTuple):
    """What the exact core (:mod:`.flow`) reads of a valid instance, 0-based."""

    papers_of: tuple[tuple[int, ...], ...]  # each author's papers, ascending
    weights: tuple[int, ...]  # each author's exact p_j (see _exact)
    slots: tuple[tuple[int, int, bool], ...]  # each author's free slot, ascending


class Instance(_Record):
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

    The constructor groups the pairs into ``rows``, the stored form, once:
    ``rows[i - 1]`` is paper ``i``'s authors, ascending, repeats kept.  The
    rows stop at paper ``n``, or ``_NAMED_PAPERS`` papers past the pairs'
    count if that is sooner, so a huge ``n`` allocates nothing per paper.
    The other pairs are stray: those of papers outside the rows, and those
    with an id that is no integer.  A numpy integer becomes an ``int``, and a
    number in ``p`` or ``lam`` a ``float``; anything else, a bool included,
    stays as given, for :func:`validate` to name.
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
        rows, strays = _grouped(self.__dict__.pop("authorship"), self.n)
        self.__dict__.update(rows=rows, _strays=strays)
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

        ``m`` defaults to ``len(p)``.  Rows that pass :func:`_valid_rows` are
        stored as given, with nothing in them for :func:`validate` to name;
        other rows are grouped as the constructor groups their pairs.
        """
        rows, p = tuple(map(tuple, papers)), tuple(p)
        instance = cls(len(rows), len(p) if m is None else m, (), p, b, lam)
        if not _valid_rows(rows, instance.m):
            return cls(len(rows), instance.m, _pairs(rows), p, b, lam)
        instance.__dict__["rows"] = rows
        instance.__dict__["_violations"] = tuple(_find_violations(instance, rows_valid=True))
        return instance

    @cached_property
    def authorship(self) -> tuple[tuple, ...]:
        """The stray pairs before the rows, the rows' pairs, then the stray pairs after them."""
        before, after = self._strays
        return before + _pairs(self.rows) + after

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
        for i, row in enumerate(self.rows):
            for j in row:
                papers_of[j - 1].append(i)
        weights = tuple(map(_exact, self.p))
        slots = sorted((weight, author, False) for author, weight in enumerate(weights))
        return _CoreIndex(tuple(map(tuple, papers_of)), weights, tuple(slots))

    @property
    def nnz(self) -> int:
        return sum(map(len, self.rows)) + sum(map(len, self._strays))


class Assignment(_Record):
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


def _valid_rows(rows: tuple[tuple, ...], m: object) -> bool:
    """Each row non-empty, its entries ints strictly ascending within ``1..m``: the load's pass."""
    if type(m) is not int:
        return False
    for row in rows:
        last = 0  # the first author is at least 1
        for j in row:
            if type(j) is not int or not last < j <= m:
                return False
            last = j
        if not last:
            return False
    return True


def _pairs(rows: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """The ``(paper, author)`` pairs of per-paper rows, in row order."""
    return tuple((i, j) for i, row in enumerate(rows, start=1) for j in row)


def _grouped(authorship: Iterable[tuple[object, object]], n: object) -> tuple[tuple, tuple]:
    """The rows of ``authorship`` and its stray pairs before and after them; see :class:`Instance`.

    The pairs of integer ids are sorted; any other pair, which could not be sorted with them,
    follows them as given.
    """
    ids, odd = [], []
    for i, j in authorship:
        if type(i) is not int:
            i = _integer(i)
        if type(j) is not int:
            j = _integer(j)
        (ids if type(i) is int is type(j) else odd).append((i, j))
    ids.sort()
    # A count that is not an int gives no rows, as n = 0 does.
    kept = max(0, min(n, len(ids) + _NAMED_PAPERS)) if type(n) is int else 0
    low, high = bisect_left(ids, (1,)), bisect_left(ids, (kept + 1,))
    rows: list[list[int]] = [[] for _ in range(kept)]
    for i, j in ids[low:high]:
        rows[i - 1].append(j)
    return tuple(map(tuple, rows)), (tuple(ids[:low]), tuple(ids[high:] + odd))


class FractionalSolution(_Record):
    """A relaxed solution: weights on incident pairs, optional overload slacks.

    ``x`` maps incident ``(paper, author)`` pairs to values in ``[0, 1]``;
    pairs missing from the map are zero.  ``y`` (present only for soft-limit
    relaxations) holds one nonnegative overload value per author.
    """

    x: Mapping[tuple[int, int], float]
    y: tuple[float, ...] | None = None


class SolveReport(_Record):
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


def _find_violations(instance: Instance, rows_valid: bool = False) -> list[str]:
    n_problem, m_problem = _count_problem("n", instance.n), _count_problem("m", instance.m)
    violations = [problem for problem in (n_problem, m_problem) if problem]
    # A count that is not one gives an empty range, as n = 0 does.
    n = 0 if n_problem else instance.n
    m = 0 if m_problem else instance.m
    if not rows_valid:  # rows that passed the load's pass (see _valid_rows) break nothing here
        # One loop over the rows and the stray pairs in authorship order: equal pairs are
        # adjacent, and the papers the pairs skip have no authors, so nothing is kept per paper.
        before, after = instance._strays
        previous = None
        uncovered: list[range] = []
        unseen = 1  # the first paper no pair has named yet
        for pair in chain(before, _pairs(instance.rows), after):
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
    # One pass at C speed; the loop below only names the first fault it found.  The rows
    # stop short of n only on an instance that cannot be valid: a paper past them has none.
    nominee, rows = assignment.nominee, instance.rows
    if set(map(type, nominee)) <= {int} and all(map(contains, chain(rows, repeat(())), nominee)):
        return
    for i, (row, j) in enumerate(zip(chain(rows, repeat(())), nominee), start=1):
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
    loads = tuple(_count_loads(instance, assignment))
    penalty = 0.0
    if limits is not None:
        b, lam = limits
        penalty = lam * sum(load - b for load in loads if load > b)
        objective = expected + penalty
    return SolveReport(SolveStatus.OPTIMAL, objective, expected, penalty, loads, solver, seed)


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
