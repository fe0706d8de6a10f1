"""The author-slot solver behind both exact variants.

:func:`solve_hard` and :func:`solve_soft_exact` run the greedy below on
the instance's core index, which each instance builds once and every solve
on it reuses: each author's papers and exact ``p_j``, and its free slots in
ascending weight.  They build no network: the paper's reduction to a
min-cost flow is an export in :mod:`.network`.

Each unit of source capacity into an author is a *slot*.  All of an
author's paper edges cost the same, so a slot's weight (its source edge's
cost plus that shared cost) does not depend on which paper it serves, and
the sets of slots that can serve distinct papers form a transversal matroid
(Edmonds & Fulkerson 1965).  Greedy is exact on a matroid (Edmonds 1971):
take slots in ascending weight and keep each one that an alternating search
from its author (author, incident paper, that paper's holder, ...) can
extend to an unassigned paper.  A failed search proves that no author it
visited can ever gain a paper, so those authors are skipped from then on.
Paths move papers between holders but never unassign one, so a cursor per
author finds its first unassigned paper in O(nnz) over the whole run, and
the search stops at the first author it reaches that has one; a slot
searches only once a walk from its own author's cursor finds none.
Weights are compared exactly, and every flow value is an integer.  The
soft penalty's two slopes are two kinds of slot per author: the first ``b``
weigh ``p_j`` and the rest ``p_j + lam``, so the same greedy gives the
exact soft optimum.
:func:`_slot_prices` prices each author at the cheapest absorber it can
pass a paper on to; those prices are the duals with which the LP routes
certify the greedy's answer as their relaxation's optimal vertex.  When a
hard cap leaves a paper unassigned, :func:`_hall_set` collects the papers
and authors that prove no assignment fits.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .instance import (
    Assignment,
    Instance,
    SolveReport,
    SolveStatus,
    _exact,
    report_for,
    require_valid,
    resolve_limits,
)


def _slot_greedy(
    instance: Instance, b: int, lam: float | None
) -> tuple[tuple[tuple[int, ...], ...], Sequence[tuple[int, int, bool]], list[int]]:
    """The author-slot greedy on the instance's core index, over 0-based ids.

    Author ``j`` gets ``b`` slots of weight ``p_j`` and, when ``lam`` is
    given, ``n`` more of weight ``p_j + lam``.  Equal weights keep the order
    of the builders' source edges (author ``j`` ascending, the free slot
    first), and each author's papers are searched in ascending order.  Each
    slot takes papers while an augmenting search from its author succeeds.
    Returns each author's papers, the slots as ``(exact weight, author,
    whether it is the lam slot)`` in ascending order, and each paper's
    holder, ``-1`` for a paper left unassigned.  The papers and the free
    slots are the index's own; the lam slots are its free slots shifted by
    ``lam``, merged in.  ``b`` and ``lam`` must already be resolved and the
    instance valid.

    A search from an author with an unassigned paper ends at once on it, so
    a slot first takes its author's unassigned papers in one walk from the
    author's cursor, and searches only for the room the walk leaves.  The
    search checks each author for an unassigned paper as it reaches it,
    advancing its cursor.  Authors are scanned in the order reached, so this
    stops at the author, paper and path where checking each paper as it is
    scanned would: the first author reached that has one, and its first.
    Along the path each author takes the paper it reached the next one
    through.  A failed search kills every author it reached (``reached``
    holds a search number or ``dead``), and a dead author's slots take
    nothing, as no slot does once every paper is assigned.
    """
    n, m = instance.n, instance.m
    papers_of, _, slots = instance._core
    if lam is not None:
        extra = _exact(lam)
        # Two ascending runs: the sort merges them.
        slots = sorted([*slots, *((weight + extra, author, True) for weight, author, _ in slots)])
    holder = [-1] * n
    cursor = [0] * m  # papers_of[a][:cursor[a]] stay assigned: paths unassign nothing
    reached = [0] * m
    gives = [0] * m  # the paper a reached author yields on the path
    parent = [0] * m  # the author that reached it through that paper
    dead = n + m + 1  # each search assigns a paper or kills its start
    search = assigned = 0

    for _, start, over in slots:
        if reached[start] == dead:
            continue
        room = n if over else b
        own, at, stop = papers_of[start], cursor[start], len(papers_of[start])
        while room and at < stop:
            if holder[own[at]] < 0:
                holder[own[at]] = start
                room -= 1
                assigned += 1
            at += 1
        cursor[start] = at
        while room and assigned < n:
            search += 1
            reached[start] = search
            queue = [start]
            for author in queue:
                for held in papers_of[author]:
                    end = holder[held]
                    if reached[end] < search:
                        reached[end] = search
                        gives[end] = held
                        parent[end] = author
                        own, at = papers_of[end], cursor[end]
                        stop = len(own)
                        while at < stop and holder[own[at]] >= 0:
                            at += 1
                        cursor[end] = at
                        if at < stop:
                            break
                        queue.append(end)
                else:
                    continue
                break  # end has an unassigned paper, own[at]
            else:
                for author in queue:
                    reached[author] = dead
                break
            holder[own[at]] = end
            while end != start:
                paper, end = gives[end], parent[end]
                holder[paper] = end
            room -= 1
            assigned += 1
        if assigned == n:
            break
    return papers_of, slots, holder


def _assign_by_slots(instance: Instance, b: int, lam: float | None) -> Assignment | None:
    """The author-slot greedy's nominees; ``None`` if no assignment fits."""
    holder = _slot_greedy(instance, b, lam)[2]
    if -1 in holder:
        return None
    return Assignment(nominee=tuple([h + 1 for h in holder]))


def _slot_prices(
    instance: Instance, b: int, lam: float | None
) -> tuple[list[int], list[int] | None]:
    """Each paper's holder and each author's exact price ``c_j`` (0-based, see :func:`_exact`).

    The prices are ``None`` when a paper stays unassigned (holder ``-1``).
    ``c_j`` is the cheapest absorber that ``j`` can pass a paper on to,
    through the holder of a paper passing it to another author on that
    paper, and on.  An author below ``b`` absorbs at ``p_k``, and in the
    soft variant any author at ``p_k + lam``.  Absorbers are taken in slot
    order, and a reverse search from each claims the unpriced authors at
    ``b`` that reach it.  Pricing each paper at its holder's price and each
    author's cap at ``p_j - c_j`` makes them duals of the LP relaxation in
    which pair ``(i, k)`` has reduced cost ``c_k - c_holder(i)`` and ``y_j``
    has ``lam + p_j - c_j``.  The greedy's answer is optimal, so no exchange
    path gains (it costs ``p_end - p_start``), and every reduced cost is
    nonnegative.  Hard-variant authors that reach no absorber form closed
    sets, priced by :func:`_price_closed_sets`.
    """
    papers_of, slots, holder = _slot_greedy(instance, b, lam)
    if -1 in holder:
        return holder, None
    load = [0] * instance.m
    for author in holder:
        load[author] += 1
    price: list[int | None] = [None] * instance.m
    for weight, root, over in slots:
        # A free slot absorbs for an author below b, a lam slot for one at or
        # above b that no cheaper absorber has claimed.
        if price[root] is not None or (load[root] < b) == over:
            continue
        price[root] = weight
        queue = [root]
        for k in queue:
            for paper in papers_of[k]:
                j = holder[paper]
                if price[j] is None and load[j] == b:
                    price[j] = weight
                    queue.append(j)
    if None in price:
        _price_closed_sets(instance, holder, slots, price)
    return holder, price


def _price_closed_sets(
    instance: Instance,
    holder: list[int],
    slots: Sequence[tuple[int, int, bool]],
    price: list[int | None],
) -> None:
    """Price the hard variant's authors that reach no absorber, in place.

    Nothing here can pass a paper on to a priced author, or it would have
    been claimed.  Author ``k`` takes ``c_k = max(p_k, c_j of every author j
    that can pass k a paper)``, which keeps every reduced cost and ``c_k -
    p_k`` nonnegative.  Seeds offer ``k`` its own ``p_k`` or a priced
    author's ``c_j``; they are taken from the highest down, and each author
    priced passes its price forward to every unpriced author it can pass a
    paper to.
    """
    rows, papers_of = instance.rows, instance._core.papers_of
    seeds: list[tuple[int, int]] = []
    for weight, k, _ in slots:
        if price[k] is None:
            seeds.append((weight, k))
            for paper in papers_of[k]:
                j = holder[paper]
                if price[j] is not None:
                    seeds.append((price[j], k))
    seeds.sort(key=itemgetter(0), reverse=True)
    for value, start in seeds:
        if price[start] is not None:
            continue
        price[start] = value
        queue = [start]
        for k in queue:
            for paper in papers_of[k]:
                if holder[paper] != k:
                    continue
                for j in rows[paper]:
                    j -= 1
                    if price[j] is None:
                        price[j] = value
                        queue.append(j)


def _hall_set(instance: Instance, holder: list[int]) -> tuple[list[int], set[int]]:
    """Papers ``S`` and authors ``A``, 0-based, reached from the first unassigned paper.

    Each paper in ``S`` adds its authors to ``A``, and each author added
    brings the papers it holds.  The hard greedy left every author reached
    at ``b``, so ``|S| = b * |A| + 1`` and Hall's condition fails (Hall 1935).
    Each author's papers come from the core index, ascending.
    """
    rows, papers_of = instance.rows, instance._core.papers_of
    papers, authors = [holder.index(-1)], set()
    for paper in papers:
        for j in rows[paper]:
            j -= 1
            if j not in authors:
                authors.add(j)
                papers.extend(i for i in papers_of[j] if holder[i] == j)
    return papers, authors


def solve_hard(
    instance: Instance, b: int | None = None
) -> tuple[Assignment | None, SolveReport]:
    """Exact optimum under a hard per-author nomination limit.

    Returns ``(None, report)`` with an Infeasible status when no assignment
    keeps every author within the limit.
    """
    return _solve_exact(instance, b, None, soft=False)


def solve_soft_exact(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[Assignment, SolveReport]:
    """Exact integral optimum of the soft objective.

    Author ``j``'s first ``b`` slots weigh ``p_j`` and the rest ``p_j +
    lam``, the penalty's two slopes; they cover every paper of a valid
    instance, so the answer is never Infeasible.
    """
    return _solve_exact(instance, b, lam, soft=True)


def _solve_exact(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> tuple[Assignment | None, SolveReport]:
    """The slot greedy's answer and its report, for either variant."""
    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=soft)
    solver = "soft-exact-flow" if soft else "hard-flow"
    assignment = _assign_by_slots(instance, b, lam)
    if assignment is None:
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver=solver)
    return assignment, report_for(instance, assignment, solver, soft=(b, lam) if soft else None)
