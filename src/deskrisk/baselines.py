"""Sequential one-pass baselines, kept deliberately naive.

All four walk the papers in order and commit to a nominee immediately, which
is exactly why the hard-limit variants can paint themselves into a corner:
an early pick can exhaust the only author a later paper has, even on
instances a proper solver handles.  That failure mode is part of the
contract here; no repair or backtracking is added.

With ``seed=None`` every "pick one of" step takes the smallest author index;
with an integer seed it draws uniformly via ``random.Random(seed)`` (the
stdlib Mersenne Twister, stable across platforms), so fixtures reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .instance import Assignment, Instance, require_valid, resolve_limits


@dataclass(frozen=True)
class BaselineResult:
    """Assignment plus a flag marking that some paper had no under-limit author.

    When ``err`` is true the assignment still satisfies the one-nominee-per-
    paper rule but exceeds the load limit for at least one author.
    """

    assignment: Assignment
    err: bool


def _one_pass(
    instance: Instance, cap: int, seed: int | None, cost: Callable[[int, int], float]
) -> BaselineResult:
    """Walk the papers once, each nominating a cheapest author below ``cap``.

    ``cost(author, load)`` prices a pick from the author's load so far, and
    one draw picks among the tied cheapest authors below the cap.  When every
    incident author is at the cap, the draw is over all of them and the error
    flag is raised.
    """
    rng = None if seed is None else random.Random(seed)
    loads = [0] * instance.m
    nominee: list[int] = []
    err = False
    for row in instance.rows:
        under = [j for j in row if loads[j - 1] < cap]
        if under:
            costs = [cost(j, loads[j - 1]) for j in under]
            low = min(costs)
            candidates = [j for j, c in zip(under, costs) if c == low]
        else:
            candidates, err = row, True
        k = candidates[0] if rng is None else candidates[rng.randrange(len(candidates))]
        nominee.append(k)
        loads[k - 1] += 1
    return BaselineResult(assignment=Assignment(nominee=tuple(nominee)), err=err)


def rand_assign_hard(
    instance: Instance, b: int | None = None, seed: int | None = None
) -> BaselineResult:
    """Pick uniformly among each paper's under-limit authors.

    When no incident author is under the limit, picks among all of them and
    raises the error flag.
    """
    require_valid(instance)
    b, _ = resolve_limits(instance, b)
    return _one_pass(instance, b, seed, lambda author, load: 0.0)


def greedy_assign_hard(
    instance: Instance, b: int | None = None, seed: int | None = None
) -> BaselineResult:
    """Pick a least-irresponsible under-limit author per paper, in paper order."""
    require_valid(instance)
    b, _ = resolve_limits(instance, b)
    p = instance.p
    return _one_pass(instance, b, seed, lambda author, load: p[author - 1])


def rand_assign_soft(
    instance: Instance, b: int | None = None, seed: int | None = None
) -> Assignment:
    """Like :func:`rand_assign_hard` but over-limit picks are simply allowed.

    Always returns a valid assignment; overloads show up in the penalty term
    of the objective instead of an error flag.
    """
    return rand_assign_hard(instance, b, seed).assignment


def greedy_assign_soft(
    instance: Instance,
    b: int | None = None,
    lam: float | None = None,
    seed: int | None = None,
) -> Assignment:
    """Pick the author with the smallest marginal cost per paper.

    The marginal cost of giving paper ``i`` to author ``j`` is
    ``p_j + lam * max(0, load_j + 1 - b)``: the nomination risk plus the
    penalty increase if the pick pushes the author past the limit.
    """
    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=True)
    p = instance.p
    # Every author is below a cap of n, so no pick is an error.
    return _one_pass(
        instance, instance.n, seed, lambda author, load: p[author - 1] + lam * max(0, load + 1 - b)
    ).assignment
