"""Brute-force enumeration oracles.

Deliberately naive: every feasible assignment is generated and scored, so
these functions are the ground truth the real solvers are tested against.
Only usable when the product of per-paper author counts stays under the
enumeration cap.

One search scores all variants: the basic one at ``b = n``, the hard one
skipping overloaded candidates, the soft one paying ``lam`` per overload.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .instance import Assignment, Instance, require_valid, resolve_limits

DEFAULT_ENUMERATION_CAP = 10_000_000


class EnumerationLimitError(RuntimeError):
    """Instance is too large to enumerate; ``size`` is the assignment count."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"{size} feasible assignments exceed the enumeration cap of {cap}")
        self.size = size
        self.cap = cap


def assignment_count(instance: Instance) -> int:
    """Exact number of feasible assignments (product of per-paper author counts)."""
    size = 1
    for row in instance.rows:
        size *= len(row)
    return size


def _check_cap(instance: Instance, cap: int) -> None:
    require_valid(instance)
    size = assignment_count(instance)
    if size > cap:
        raise EnumerationLimitError(size, cap)


def enumerate_assignments(
    instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[Assignment]:
    """Yield every feasible assignment exactly once, in lexicographic nominee order."""
    _check_cap(instance, cap)
    for nominee in product(*instance.rows):
        yield Assignment(nominee=nominee)


def oracle_basic(
    instance: Instance, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Assignment, float]:
    """Exact minimizer of the expected-rejection objective.

    Ties go to the lexicographically smallest nominee vector.
    """
    _check_cap(instance, cap)
    return _search(instance, instance.n, 0.0)


def oracle_hard(
    instance: Instance, b: int | None = None, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Assignment, float] | None:
    """Exact optimum with every author load capped at ``b``; ``None`` if infeasible."""
    _check_cap(instance, cap)
    b, _ = resolve_limits(instance, b)
    return _search(instance, b, None)


def oracle_soft(
    instance: Instance,
    b: int | None = None,
    lam: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Assignment, float]:
    """Exact optimum of the soft-limit objective (always feasible)."""
    _check_cap(instance, cap)
    b, lam = resolve_limits(instance, b, lam, soft=True)
    return _search(instance, b, lam)


def _search(instance: Instance, b: int, lam: float | None) -> tuple[Assignment, float] | None:
    """Lexicographically first candidate of least ``sum p + lam * overload``.

    The overload counts nominations beyond ``b``; with ``lam`` ``None`` an
    overloaded candidate is skipped.  ``p`` is summed in paper order and the
    penalty added after, as the evaluators do; their ``+ lam * 0`` is left
    out, since it leaves a sum of nonnegative ``p`` unchanged.
    """
    cost = (0.0, *instance.p)  # cost[j] is p_j, so the loops need no j - 1
    counting, hard, size = b < instance.n, lam is None, instance.m + 1  # no load passes b >= n
    best, best_obj = None, float("inf")
    for nominee in product(*instance.rows):
        over = 0
        if counting:
            loads = [0] * size
            for j in nominee:
                loads[j] += 1
                if loads[j] > b:
                    over += 1
                    if hard:
                        break
            if over and hard:
                continue
        total = 0.0
        for j in nominee:
            total += cost[j]
        if over:
            total += lam * over
        if total < best_obj:
            best_obj = total
            best = nominee
    return None if best is None else (Assignment(nominee=best), best_obj)
