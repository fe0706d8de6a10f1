"""Exact greedy solver for the unconstrained problem.

The expected-rejection objective separates across papers, so nominating a
minimum-probability co-author for each paper independently is globally
optimal.  Runs in time linear in the number of authorship incidences.
"""

from __future__ import annotations

import random

from .instance import Assignment, Instance, SolveReport, report_for, require_valid


def greedy_assign_basic(
    instance: Instance, seed: int | None = None
) -> tuple[Assignment, SolveReport]:
    """Nominate a least-irresponsible co-author for every paper.

    Ties are broken by smallest author index; passing ``seed`` picks uniformly
    among the tied minimizers instead.  Either way the nominee stays inside the
    argmin set, so the objective is the exact optimum.
    """
    require_valid(instance)
    rng = random.Random(seed) if seed is not None else None
    p = instance.p
    nominee: list[int] = []
    for row in instance.rows:
        low = min(p[j - 1] for j in row)
        ties = [j for j in row if p[j - 1] == low]
        if rng is None or len(ties) == 1:
            nominee.append(ties[0])
        else:
            nominee.append(ties[rng.randrange(len(ties))])
    assignment = Assignment(nominee=tuple(nominee))
    return assignment, report_for(instance, assignment, "greedy-basic", seed=seed)
