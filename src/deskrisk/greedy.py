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
    cost = (0.0, *instance.p).__getitem__  # 1-based
    # Author lists are ascending and ``min`` keeps the first minimizer.
    nominee = [min(row, key=cost) for row in instance.rows]
    if seed is not None:
        rng = random.Random(seed)
        p = instance.p
        for i, (row, j) in enumerate(zip(instance.rows, nominee)):
            ties = [k for k in row if p[k - 1] == p[j - 1]]
            if len(ties) > 1:
                nominee[i] = ties[rng.randrange(len(ties))]
    assignment = Assignment(nominee=tuple(nominee))
    return assignment, report_for(instance, assignment, "greedy-basic", seed=seed)
