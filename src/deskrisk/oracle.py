"""Brute-force enumeration oracles.

Deliberately naive: every feasible assignment is generated and scored, so
these functions are the ground truth the real solvers are tested against.
Only usable when the product of per-paper author counts stays under the
enumeration cap.
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
    p = instance.p
    best: tuple[int, ...] | None = None
    best_obj = float("inf")
    for nominee in product(*instance.rows):
        total = 0.0
        for j in nominee:
            total += p[j - 1]
        if total < best_obj:
            best_obj = total
            best = nominee
    assert best is not None
    return Assignment(nominee=best), best_obj


def oracle_hard(
    instance: Instance, b: int | None = None, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Assignment, float] | None:
    """Exact optimum with every author load capped at ``b``; ``None`` if infeasible."""
    _check_cap(instance, cap)
    b, _ = resolve_limits(instance, b)
    p = instance.p
    m = instance.m
    best: tuple[int, ...] | None = None
    best_obj = float("inf")
    for nominee in product(*instance.rows):
        loads = [0] * m
        feasible = True
        for j in nominee:
            loads[j - 1] += 1
            if loads[j - 1] > b:
                feasible = False
                break
        if not feasible:
            continue
        total = 0.0
        for j in nominee:
            total += p[j - 1]
        if total < best_obj:
            best_obj = total
            best = nominee
    if best is None:
        return None
    return Assignment(nominee=best), best_obj


def oracle_soft(
    instance: Instance,
    b: int | None = None,
    lam: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Assignment, float]:
    """Exact optimum of the soft-limit objective (always feasible)."""
    _check_cap(instance, cap)
    b, lam = resolve_limits(instance, b, lam, soft=True)
    p = instance.p
    m = instance.m
    best: tuple[int, ...] | None = None
    best_obj = float("inf")
    for nominee in product(*instance.rows):
        loads = [0] * m
        total = 0.0
        for j in nominee:
            loads[j - 1] += 1
            total += p[j - 1]
        over = 0
        for load in loads:
            if load > b:
                over += load - b
        total += lam * over
        if total < best_obj:
            best_obj = total
            best = nominee
    assert best is not None
    return Assignment(nominee=best), best_obj
