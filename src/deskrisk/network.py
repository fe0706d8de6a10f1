"""The paper's assignment networks, kept as an export, and a check of their circulations.

:func:`build_hard_network` and :func:`build_soft_network` pose the
nomination problem as a circulation on a four-layer network (source,
authors, papers, sink, plus a return edge): the paper's reduction, which
``--dump-network`` writes out.  No route builds it (see :mod:`.flow`).
:func:`min_cost_circulation` solves only networks these builders emit: it
reads the instance back from the edges, rebuilds the network to check it,
and writes the exact solvers' nominees as a flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .flow import _assign_by_slots
from .instance import Instance, _count_loads, require_valid, resolve_limits

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
