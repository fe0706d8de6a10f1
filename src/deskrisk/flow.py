"""The author-slot solver behind both exact variants, and the networks it solves.

:func:`build_hard_network` and :func:`build_soft_network` pose the
nomination problem as a circulation on a four-layer network (source,
authors, papers, sink, plus a return edge): the paper's reduction.
:func:`solve_hard` and :func:`solve_soft_exact` do not build it: they run
the greedy below straight on the instance's author-to-papers lists.
:func:`min_cost_circulation` solves a built network by renumbering its
layers onto the same greedy, so the two routes give the same nominees.

Each unit of source capacity into an author is a *slot*.  All of an
author's paper edges cost the same, so a slot's weight (its source edge's
cost plus that shared cost) does not depend on which paper it serves, and
the sets of slots that can serve distinct papers form a transversal matroid
(Edmonds & Fulkerson 1965).  Greedy is exact on a matroid (Edmonds 1971):
take slots in ascending weight and keep each one that an alternating search
from its author (author, incident paper, that paper's holder, ...) can
extend to an unassigned paper.  A failed search proves that no author it
visited can ever gain a paper, so those authors are skipped from then on.
Weights are compared exactly, and every flow value is an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from .instance import (
    Assignment,
    Instance,
    SolveReport,
    SolveStatus,
    assignment_from_pairs,
    report_for,
    require_valid,
    resolve_limits,
)

SOURCE, SINK = 1, 2


class MalformedNetworkError(ValueError):
    """Raised when a network violates its own invariants or is not an assignment network."""


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


def _validate_network(network: FlowNetwork) -> None:
    n = network.num_vertices
    if n < 1:
        raise MalformedNetworkError(f"network needs at least one vertex, got {n}")
    if len(network.supply) != n:
        raise MalformedNetworkError(
            f"supply vector has length {len(network.supply)}, expected {n}"
        )
    if sum(network.supply) != 0:
        raise MalformedNetworkError(f"supplies must sum to 0, got {sum(network.supply)}")
    for idx, e in enumerate(network.edges):
        if not (1 <= e.tail <= n and 1 <= e.head <= n):
            raise MalformedNetworkError(f"edge {idx} endpoints ({e.tail}, {e.head}) out of range")
        if not (0 <= e.lower <= e.capacity):
            raise MalformedNetworkError(
                f"edge {idx} needs 0 <= lower <= capacity, got [{e.lower}, {e.capacity}]"
            )
        if not math.isfinite(e.cost):
            raise MalformedNetworkError(f"edge {idx} has non-finite cost {e.cost}")


def _assignment_layers(network: FlowNetwork):
    """Split an assignment network into its layers, or raise MalformedNetworkError.

    Returns the source edges, each paper vertex's edge into the sink, each
    author's ``(paper vertex, edge)`` list and shared edge cost, and the
    return edge.
    """
    edges = network.edges
    source: list[int] = []
    papers: dict[int, int] = {}
    incident: dict[int, list[tuple[int, int]]] = {}
    cost: dict[int, float] = {}
    back: list[int] = []
    for k, e in enumerate(edges):
        if (e.tail, e.head) == (SINK, SOURCE):
            fits = not back and e.lower == 0 and e.cost == 0.0
            back.append(k)
        elif e.tail == SOURCE:
            fits = e.lower == 0
            source.append(k)
        elif e.head == SINK:
            fits = e.tail not in papers and (e.lower, e.capacity, e.cost) == (1, 1, 0.0)
            papers[e.tail] = k
        else:
            fits = (e.lower, e.capacity) == (0, 1) and e.cost == cost.setdefault(e.tail, e.cost)
            incident.setdefault(e.tail, []).append((e.head, k))
        if not fits:
            raise MalformedNetworkError(
                f"edge {k} ({e.tail} -> {e.head}) does not fit an assignment network"
            )
    authors = {edges[k].head for k in source} | incident.keys()
    heads = {paper for arcs in incident.values() for paper, _ in arcs}
    if (
        any(network.supply)
        or len(back) != 1
        or edges[back[0]].capacity < len(papers)
        or (authors | papers.keys()) & {SOURCE, SINK}
        or authors & papers.keys()
        or not heads <= papers.keys()
    ):
        raise MalformedNetworkError(
            "not an assignment network: it needs no supplies, one return edge, and "
            "source -> author -> paper -> sink layers"
        )
    return source, papers, incident, cost, back[0]


def min_cost_circulation(network: FlowNetwork) -> Circulation | None:
    """Cheapest integral circulation of an assignment network; ``None`` if none exists.

    Only networks shaped like the builders' output are solved: no supplies,
    source edges into authors, ``[0, 1]`` author-to-paper edges sharing one
    cost per author, one ``[1, 1]`` edge from each paper into the sink, and
    one return edge.  Any other raises :class:`MalformedNetworkError`.  The
    layers are renumbered onto the dense ids of :func:`_fill_slots`, the core
    the exact solvers run on the instance itself.
    """
    _validate_network(network)
    source, sink_edges, incident, cost, back = _assignment_layers(network)
    edges = network.edges
    paper_id = {paper: i for i, paper in enumerate(sink_edges)}
    authors = dict.fromkeys([edges[k].head for k in source] + list(incident))
    author_id = {author: a for a, author in enumerate(authors)}
    papers_of: list[list[int]] = [[] for _ in author_id]
    pair_edge: dict[tuple[int, int], int] = {}  # (author id, paper id) -> first edge
    for author, arcs in incident.items():
        a = author_id[author]
        for paper, k in arcs:
            papers_of[a].append(paper_id[paper])
            pair_edge.setdefault((a, paper_id[paper]), k)
    # a stable sort: equal weights keep edge order
    slots = sorted(
        source, key=lambda k: _exact(edges[k].cost) + _exact(cost.get(edges[k].head, 0.0))
    )
    filled = _fill_slots(
        papers_of, len(paper_id), [(author_id[edges[k].head], edges[k].capacity) for k in slots]
    )
    if filled is None:
        return None
    holder, counts = filled
    flow = [0] * len(edges)
    for k, count in zip(slots, counts):
        flow[k] = count
    for paper, a in enumerate(holder):
        flow[pair_edge[a, paper]] = 1
    for k in sink_edges.values():
        flow[k] = 1
    flow[back] = len(holder)
    total = 0.0
    for e, f in zip(edges, flow):
        total += e.cost * f
    return Circulation(flow=tuple(flow), cost=total)


def _exact(cost: float) -> int:
    """``cost * 2**1074`` as an integer.

    Every finite float is a whole multiple of ``2**-1074``, so sums and
    comparisons of these are exact, as with ``Fraction`` but without its cost.
    """
    numerator, denominator = cost.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def _fill_slots(
    papers_of: list[list[int]], papers: int, slots: list[tuple[int, int]]
) -> tuple[list[int], list[int]] | None:
    """The author-slot greedy over dense ids; ``None`` if some paper stays unassigned.

    Authors and papers are numbered from 0.  ``papers_of[a]`` lists author
    ``a``'s papers in search order, and ``slots`` holds ``(author,
    capacity)`` in ascending weight.  Each slot takes papers while an
    augmenting search from its author succeeds.  Returns each paper's
    holder and how many papers each slot took.
    """
    holder = [-1] * papers
    dead = [False] * len(papers_of)
    counts: list[int] = []
    assigned = 0
    for author, capacity in slots:
        count = 0
        while (
            count < capacity
            and assigned < papers
            and _augment(author, papers_of, holder, dead)
        ):
            count += 1
            assigned += 1
        counts.append(count)
    if assigned < papers:
        return None
    return holder, counts


def _augment(start: int, papers_of: list[list[int]], holder: list[int], dead: list[bool]) -> bool:
    """Give ``start`` one more paper, moving held papers along an alternating path.

    Breadth-first from ``start``: an incident paper is either unassigned,
    which ends the search, or held by an author who may take another paper
    instead.  A failed search marks every author it visited as dead.
    """
    if dead[start]:
        return False
    gives_up = {start: -1}  # reached author -> paper it yields
    via: dict[int, int] = {}  # reached paper -> author reaching it
    queue = [start]
    for author in queue:
        for paper in papers_of[author]:
            if paper in via:
                continue
            via[paper] = author
            other = holder[paper]
            if other < 0:
                step = paper
                while step >= 0:
                    holder[step] = via[step]
                    step = gives_up[via[step]]
                return True
            if other not in gives_up and not dead[other]:
                gives_up[other] = paper
                queue.append(other)
    for author in gives_up:
        dead[author] = True
    return False


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


def solve_network(
    instance: Instance, network: FlowNetwork, pair_edges: dict[tuple[int, int], int]
) -> Assignment | None:
    """Solve a network from the builders above and read off each paper's nominee."""
    circulation = min_cost_circulation(network)
    if circulation is None:
        return None
    return assignment_from_pairs(instance, pair_edges, circulation.flow)


def _assign_by_slots(instance: Instance, b: int, lam: float | None) -> Assignment | None:
    """The author-slot greedy on the instance itself; ``None`` if no assignment fits.

    Author ``j`` gets ``b`` slots of weight ``p_j`` and, when ``lam`` is
    given, ``n`` more of weight ``p_j + lam``.  Equal weights keep the order
    of the builders' source edges (author ``j`` ascending, the free slot
    first), and each author's papers are searched in ascending order, so the
    answer is the one :func:`min_cost_circulation` reads off the network.
    ``b`` and ``lam`` must already be resolved and the instance valid.
    """
    papers_of: list[list[int]] = [[] for _ in range(instance.m)]
    for i, j in instance.authorship:
        papers_of[j - 1].append(i - 1)
    slots: list[tuple[int, int, int]] = []  # (weight, author, capacity)
    extra = None if lam is None else _exact(lam)
    for author, p in enumerate(instance.p):
        weight = _exact(p)
        slots.append((weight, author, b))
        if extra is not None:
            slots.append((weight + extra, author, instance.n))
    slots.sort(key=itemgetter(0))
    filled = _fill_slots(papers_of, instance.n, [(author, cap) for _, author, cap in slots])
    if filled is None:
        return None
    return Assignment(nominee=tuple(author + 1 for author in filled[0]))


def solve_hard(
    instance: Instance, b: int | None = None
) -> tuple[Assignment | None, SolveReport]:
    """Exact optimum under a hard per-author nomination limit.

    Returns ``(None, report)`` with an Infeasible status when no assignment
    keeps every author within the limit.
    """
    require_valid(instance)
    b, _ = resolve_limits(instance, b)
    assignment = _assign_by_slots(instance, b, None)
    if assignment is None:
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-flow")
    return assignment, report_for(instance, assignment, "hard-flow")
