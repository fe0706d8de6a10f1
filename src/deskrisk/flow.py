"""The author-slot solver behind both exact variants, and the networks it solves.

:func:`build_hard_network` and :func:`build_soft_network` pose the
nomination problem as a circulation on a four-layer network (source,
authors, papers, sink, plus a return edge): the paper's reduction, kept as
an export.  :func:`solve_hard` and :func:`solve_soft_exact` do not build it:
they run the greedy below on the instance's core index, which each instance
builds once and every solve on it reuses: each author's papers and exact
``p_j``, and its free slots in ascending weight.
:func:`min_cost_circulation` solves only networks these builders emit: it
reads the instance back from the edges, rebuilds the network to check it,
and writes the greedy's nominees as a flow, so both routes give the same
nominees.

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
the search stops at the first author it reaches that has one.
Weights are compared exactly, and every flow value is an integer.  The
soft penalty's two slopes are two kinds of slot per author: the first ``b``
weigh ``p_j`` and the rest ``p_j + lam`` (in :func:`build_soft_network`, a
free source edge up to ``b`` and one costing ``lam`` beyond), so the same
greedy gives the exact soft optimum.
:func:`_slot_prices` prices each author at the cheapest absorber it can
pass a paper on to; those prices are the duals with which the LP routes
certify the greedy's answer as their relaxation's optimal vertex.  When a
hard cap leaves a paper unassigned, :func:`_hall_set` collects the papers
and authors that prove no assignment fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

from .instance import (
    Assignment,
    Instance,
    SolveReport,
    SolveStatus,
    _count_loads,
    _exact,
    report_for,
    require_valid,
    resolve_limits,
)

SOURCE, SINK = 1, 2


class MalformedNetworkError(ValueError):
    """Raised when a network is not one that the builders below emit."""


@dataclass(frozen=True)
class FlowEdge:
    tail: int
    head: int
    lower: int
    capacity: int
    cost: float


@dataclass
class FlowNetwork:
    """Directed graph with per-edge lower bound, capacity, and cost.

    Vertices are numbered ``1..num_vertices``.  ``supply[v - 1]`` is the
    required net outflow of vertex ``v`` (all zero for a pure circulation);
    supplies must sum to zero.  Edge order is insertion order and is part of
    the contract: reruns produce identical optima.
    """

    num_vertices: int
    edges: list[FlowEdge] = field(default_factory=list)
    supply: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.supply:
            self.supply = [0] * self.num_vertices

    def add_edge(
        self, tail: int, head: int, lower: int, capacity: int, cost: float
    ) -> int:
        """Append an edge and return its index."""
        self.edges.append(FlowEdge(tail, head, lower, capacity, cost))
        return len(self.edges) - 1


@dataclass(frozen=True)
class Circulation:
    """Integral per-edge flow (aligned with the network's edge list) and its cost."""

    flow: tuple[int, ...]
    cost: float


def min_cost_circulation(network: FlowNetwork) -> Circulation | None:
    """Cheapest integral circulation of a builder's network; ``None`` if none exists.

    Only networks that :func:`build_hard_network` or
    :func:`build_soft_network` emit are solved.  The instance, ``b`` and
    ``lam`` are read back from the edges and the network is rebuilt from
    them; any difference in vertices, edges or supply raises
    :class:`MalformedNetworkError`.  The nominees come from the greedy the
    exact solvers run, and the flow follows from them: each author's load
    fills its free source edge up to ``b`` and the ``lam`` edge beyond.
    """
    try:
        instance, b, lam = _read_instance(network)
        rebuilt, pair_edges = _assignment_network(instance, b, lam, soft=lam is not None)
    except (ValueError, TypeError) as exc:
        raise MalformedNetworkError(f"not a network the builders emit: {exc}") from None
    if (rebuilt.num_vertices, rebuilt.edges, rebuilt.supply) != (
        network.num_vertices,
        network.edges,
        network.supply,
    ):
        raise MalformedNetworkError("not a network the builders emit")
    assignment = _assign_by_slots(instance, b, lam)
    if assignment is None:
        return None
    flow = [0] * len(rebuilt.edges)
    for i, j in enumerate(assignment.nominee, start=1):
        flow[pair_edges[i, j]] = 1
    for j, load in enumerate(_count_loads(instance, assignment)):
        free = min(load, b)
        if lam is None:
            flow[j] = free
        else:
            flow[2 * j : 2 * j + 2] = free, load - free
    flow[-instance.n - 1 :] = [1] * instance.n + [instance.n]
    total = 0.0
    for e, f in zip(network.edges, flow):
        total += e.cost * f
    return Circulation(flow=tuple(flow), cost=total)


def _read_instance(network: FlowNetwork) -> tuple[Instance, int, float | None]:
    """The ``(instance, b, lam)`` a builder would have made ``network`` from.

    The return edge's capacity is ``n``, the remaining vertices are the
    authors, there are two source edges per author iff the network is soft,
    and each author's pair edges cost its ``p_j``.  Only the caller's
    rebuild shows whether the guess is right.
    """
    edges = network.edges
    if not edges:
        raise MalformedNetworkError("network has no edges")
    n = edges[-1].capacity
    m = network.num_vertices - n - 2
    sources = [e for e in edges if e.tail == SOURCE]
    # Every paper has a sink edge and every author a source edge or two.
    if not 0 < n < len(edges) or m < 1 or len(sources) not in (m, 2 * m):
        raise MalformedNetworkError(
            f"{n} papers, {m} authors and {len(sources)} source edges do not fit together"
        )
    p = [0.0] * m  # an author without papers has no pair edge to show its p
    pairs = []
    for e in edges:
        if 3 <= e.tail <= m + 2 and m + 3 <= e.head <= m + n + 2:
            pairs.append((e.head - m - 2, e.tail - 2))
            p[e.tail - 3] = e.cost
    lam = sources[1].cost if len(sources) == 2 * m else None
    return Instance(n=n, m=m, authorship=tuple(pairs), p=tuple(p)), sources[0].capacity, lam


def check_circulation(network: FlowNetwork, circulation: Circulation) -> list[str]:
    """Verify bounds and per-vertex conservation; returns violations (empty = ok)."""
    violations: list[str] = []
    balance = [-supply for supply in network.supply]
    for idx, (e, f) in enumerate(zip(network.edges, circulation.flow)):
        if not (e.lower <= f <= e.capacity):
            violations.append(f"edge {idx} flow {f} outside [{e.lower}, {e.capacity}]")
        balance[e.tail - 1] += f
        balance[e.head - 1] -= f
    for v, net in enumerate(balance, start=1):
        if net != 0:
            violations.append(f"vertex {v} violates conservation by {net}")
    return violations


def _assignment_network(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> tuple[FlowNetwork, dict[tuple[int, int], int]]:
    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=soft)
    n, m = instance.n, instance.m
    net = FlowNetwork(num_vertices=m + n + 2)
    for j in range(1, m + 1):
        net.add_edge(SOURCE, j + 2, 0, b, 0.0)
        if lam is not None:
            net.add_edge(SOURCE, j + 2, 0, n, lam)
    pair_edges = {
        (i, j): net.add_edge(j + 2, i + m + 2, 0, 1, instance.p[j - 1])
        for i, j in instance.authorship
    }
    for i in range(1, n + 1):
        net.add_edge(i + m + 2, SINK, 1, 1, 0.0)
    net.add_edge(SINK, SOURCE, 0, n, 0.0)
    return net, pair_edges


def build_hard_network(
    instance: Instance, b: int | None = None
) -> tuple[FlowNetwork, dict[tuple[int, int], int]]:
    """Translate a load-capped instance into an assignment network.

    Layout: vertex 1 is the source, 2 the sink, authors sit at ``j + 2`` and
    papers at ``i + m + 2``.  Author capacity ``b`` lives on the source
    edges, the exactly-one-nomination rule on the unit lower bounds of the
    paper-to-sink edges, and nomination risk as the cost of the author-paper
    edges.  Returns the network plus a map from incident pairs to the index
    of their author-paper edge.
    """
    return _assignment_network(instance, b, None, soft=False)


def build_soft_network(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[FlowNetwork, dict[tuple[int, int], int]]:
    """Assignment network whose cost equals the soft objective.

    Same layout as the load-capped network, but each author gets two parallel
    source edges: one free up to ``b`` nominations and one charging ``lam``
    per extra unit, reproducing the penalty's two slopes.
    """
    return _assignment_network(instance, b, lam, soft=True)


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

    The search checks each author for an unassigned paper as it reaches it.
    Authors are scanned in the order reached, so this stops at the author,
    paper and path where checking each paper as it is scanned would: the
    first author reached that has one, and its first.  Along the path each
    author takes the paper it reached the next one through.  A failed search
    kills every author it reached; ``reached`` holds a search number or ``dead``.
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

    def free_paper(author: int) -> int:
        papers = papers_of[author]
        at, end = cursor[author], len(papers)
        while at < end and holder[papers[at]] >= 0:
            at += 1
        cursor[author] = at
        return papers[at] if at < end else -1

    for _, start, over in slots:
        room = n if over else b
        while room and assigned < n and reached[start] < dead:
            end = start
            paper = free_paper(start)
            if paper < 0:
                search += 1
                reached[start] = search
                queue = [start]
                for author in queue:
                    for held in papers_of[author]:
                        other = holder[held]
                        if reached[other] < search:
                            reached[other] = search
                            gives[other] = held
                            parent[other] = author
                            paper = free_paper(other)
                            if paper >= 0:
                                end = other
                                break
                            queue.append(other)
                    if paper >= 0:
                        break
                else:
                    for author in queue:
                        reached[author] = dead
                    break
            holder[paper] = end
            while end != start:
                paper, end = gives[end], parent[end]
                holder[paper] = end
            room -= 1
            assigned += 1
    return papers_of, slots, holder


def _assign_by_slots(instance: Instance, b: int, lam: float | None) -> Assignment | None:
    """The author-slot greedy's nominees; ``None`` if no assignment fits."""
    holder = _slot_greedy(instance, b, lam)[2]
    if -1 in holder:
        return None
    return Assignment(nominee=tuple(author + 1 for author in holder))


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
