import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from operator import itemgetter

import pytest
from conftest import SWEEP_B, SWEEP_LAMBDA, conference, edge_cases, random_instance, sweep
from make_golden import sweep_grid

import deskrisk
from deskrisk import flow, network
from deskrisk import instance as instance_module
from deskrisk.io import report_to_dict
from deskrisk import (
    Circulation,
    FlowEdge,
    FlowNetwork,
    Instance,
    LinearProgram,
    LpStatus,
    MalformedNetworkError,
    SolveStatus,
    author_loads,
    build_hard_network,
    build_soft_network,
    check_circulation,
    greedy_assign_basic,
    min_cost_circulation,
    oracle_hard,
    oracle_soft,
    solve_hard,
    solve_lp,
    solve_soft_exact,
)

TRAP = Instance.from_rows([[1, 2], [1]], p=[0.1, 0.2])


class TestBuildHardNetwork:
    def test_trap_instance_layout(self):
        # n=2, m=2: vertices 1 (source), 2 (sink), 3-4 (authors), 5-6 (papers)
        net, pair_edges = build_hard_network(TRAP, b=1)
        assert net.num_vertices == 6
        assert len(net.edges) == 8  # 2 source-author + 3 author-paper + 2 paper-sink + 1 return
        assert net.edges[0] == FlowEdge(1, 3, 0, 1, 0.0)
        assert net.edges[1] == FlowEdge(1, 4, 0, 1, 0.0)
        assert net.edges[2] == FlowEdge(3, 5, 0, 1, 0.1)
        assert net.edges[3] == FlowEdge(4, 5, 0, 1, 0.2)
        assert net.edges[4] == FlowEdge(3, 6, 0, 1, 0.1)
        assert net.edges[5] == FlowEdge(5, 2, 1, 1, 0.0)
        assert net.edges[6] == FlowEdge(6, 2, 1, 1, 0.0)
        assert net.edges[7] == FlowEdge(2, 1, 0, 2, 0.0)
        assert pair_edges == {(1, 1): 2, (1, 2): 3, (2, 1): 4}

    def test_single_pair_instance_has_one_edge_per_layer(self):
        net, _ = build_hard_network(Instance.from_rows([[1]], p=[0.3]), b=1)
        assert len(net.edges) == 4

    def test_edge_count_formula(self):
        rng = random.Random(41)
        for _ in range(15):
            inst = random_instance(rng)
            net, _ = build_hard_network(inst, b=2)
            assert len(net.edges) == inst.m + inst.nnz + inst.n + 1


def _generic(edges, num_vertices=2, supply=None):
    net = FlowNetwork(num_vertices=num_vertices, supply=list(supply or []))
    for edge in edges:
        net.add_edge(*edge)
    return net


def assignment_network(sources, pairs, n, m):
    """Network in the builders' layout: source 1, sink 2, authors 3.., papers m+3...

    ``sources`` holds ``(author, capacity, cost)`` edges and ``pairs`` holds
    ``(author, paper, cost)`` edges, both 1-based.
    """
    net = FlowNetwork(num_vertices=m + n + 2)
    for j, capacity, cost in sources:
        net.add_edge(1, j + 2, 0, capacity, cost)
    for j, i, cost in pairs:
        net.add_edge(j + 2, i + m + 2, 0, 1, cost)
    for i in range(1, n + 1):
        net.add_edge(i + m + 2, 2, 1, 1, 0.0)
    net.add_edge(2, 1, 0, n, 0.0)
    return net


# Circulation networks that no builder emits.  The solver serves only the
# builders' networks, so each of these is rejected rather than solved.  The
# last four are in the builders' layout but with sources, costs or paper
# counts that no instance gives.
GENERIC_NETWORKS = {
    "no_demands_means_zero_flow": _generic(
        [(1, 2, 0, 5, 1.0), (2, 3, 0, 5, 2.0), (3, 1, 0, 5, 0.5)], num_vertices=3
    ),
    "lower_bound_forces_flow_around_a_cycle": _generic([(1, 2, 2, 4, 1.0), (2, 1, 0, 10, 3.0)]),
    "supply_form_transport": _generic([(1, 2, 0, 3, 1.5)], supply=[2, -2]),
    "supply_exceeding_capacity_is_infeasible": _generic([(1, 2, 0, 3, 1.0)], supply=[4, -4]),
    "cheaper_parallel_route_wins": _generic(
        [(1, 3, 0, 1, 5.0), (1, 2, 0, 1, 1.0), (2, 3, 0, 1, 1.0)],
        num_vertices=3,
        supply=[1, 0, -1],
    ),
    "negative_cycle_is_saturated": _generic([(1, 2, 0, 5, -1.0), (2, 1, 0, 3, 0.5)]),
    "negative_edge_with_lower_bound": _generic([(1, 2, 1, 4, -2.0), (2, 1, 0, 10, 1.0)]),
    "author_edges_of_differing_cost": _generic(
        [(1, 3, 0, 2, 0.0), (3, 4, 0, 1, 0.1), (3, 5, 0, 1, 0.2), (4, 2, 1, 1, 0.0),
         (5, 2, 1, 1, 0.0), (2, 1, 0, 2, 0.0)],
        num_vertices=5,
    ),
    "layers_without_papers": assignment_network([(1, 2, 0.5)], [], n=0, m=1),
    "priced_source_edge_without_a_penalty_edge": assignment_network(
        [(1, 1, 0.25)], [(1, 1, 0.5)], n=1, m=1
    ),
    "penalty_edge_below_the_paper_count": assignment_network(
        [(1, 1, 0.0), (1, 1, 3.0)], [(1, i, 0.1) for i in (1, 2, 3)], n=3, m=1
    ),
    "penalty_edge_before_the_free_edge": assignment_network(
        [(1, 2, 1.0), (1, 2, 0.0)], [(1, i, 0.0) for i in (1, 2)], n=2, m=1
    ),
}


def _network_lp(net):
    """The circulation as a linear program: one column per edge, one row per vertex."""
    lp = LinearProgram.minimize([e.cost for e in net.edges])
    lp.lower = [float(e.lower) for e in net.edges]
    lp.upper = [float(e.capacity) for e in net.edges]
    rows = [[] for _ in range(net.num_vertices)]
    for k, e in enumerate(net.edges):
        rows[e.tail - 1].append((k, 1.0))
        rows[e.head - 1].append((k, -1.0))
    for row, supply in zip(rows, net.supply):
        lp.add_eq(row, float(supply))
    return lp


def _mutants(net, rng):
    """Copies of ``net`` with one edge changed, dropped, duplicated or swapped,
    or with the vertex count shifted."""
    edges = net.edges
    k, other = rng.randrange(len(edges)), rng.randrange(len(edges))
    name = rng.choice(["tail", "head", "lower", "capacity", "cost"])
    delta = rng.choice([-1, 1]) if name != "cost" else rng.choice([-0.25, 0.25, 1.0])
    changed = replace(edges[k], **{name: getattr(edges[k], name) + delta})
    swapped = list(edges)
    swapped[k], swapped[other] = swapped[other], swapped[k]
    variants = [
        edges[:k] + [changed] + edges[k + 1 :],
        edges[:k] + edges[k + 1 :],
        edges[:other] + [edges[k]] + edges[other:],
        swapped,
    ]
    for variant in variants:
        yield FlowNetwork(num_vertices=net.num_vertices, edges=variant, supply=list(net.supply))
    for shift in (-1, 1):
        yield FlowNetwork(num_vertices=net.num_vertices + shift, edges=list(edges))


class TestMinCostCirculation:
    @pytest.mark.parametrize("name", sorted(GENERIC_NETWORKS))
    def test_generic_networks_are_rejected(self, name):
        with pytest.raises(MalformedNetworkError):
            min_cost_circulation(GENERIC_NETWORKS[name])

    def test_lower_bound_forces_flow_around_a_cycle(self):
        # the paper's [1, 1] sink edge pulls one unit through every layer
        net, _ = build_soft_network(Instance.from_rows([[1]], p=[0.5]), b=1, lam=0.25)
        result = min_cost_circulation(net)
        assert result == Circulation(flow=(1, 0, 1, 1, 1), cost=0.5)
        assert check_circulation(net, result) == []

    def test_supply_exceeding_capacity_is_infeasible(self):
        # three papers, two authors with one slot each
        inst = Instance.from_rows([[1, 2]] * 3, p=[0.1, 0.2])
        net, _ = build_hard_network(inst, b=1)
        assert min_cost_circulation(net) is None

    def test_cheaper_parallel_route_wins(self):
        # author 1's penalty edge (0.1 + 0.3) undercuts author 2's free one (0.5)
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[0.1, 0.5])
        net, _ = build_soft_network(inst, b=1, lam=0.3)
        result = min_cost_circulation(net)
        assert result is not None
        assert result.flow[:4] == (1, 1, 0, 0)
        assert result.cost == pytest.approx(0.5, abs=1e-12)
        assert check_circulation(net, result) == []

    def test_trap_network_cost(self):
        net, _ = build_hard_network(TRAP, b=1)
        result = min_cost_circulation(net)
        assert result is not None
        assert result.cost == pytest.approx(0.3, abs=1e-9)
        assert check_circulation(net, result) == []

    def test_overloaded_single_author_network_is_infeasible(self):
        inst = Instance.from_rows([[1]] * 5, p=[0.1])
        net, _ = build_hard_network(inst, b=2)
        assert min_cost_circulation(net) is None

    def test_lower_bound_above_capacity_is_malformed(self):
        net = FlowNetwork(num_vertices=2)
        net.add_edge(1, 2, 3, 1, 0.0)
        with pytest.raises(MalformedNetworkError):
            min_cost_circulation(net)

    def test_unbalanced_supply_is_malformed(self):
        net = FlowNetwork(num_vertices=2, supply=[1, 0])
        net.add_edge(1, 2, 0, 1, 0.0)
        with pytest.raises(MalformedNetworkError):
            min_cost_circulation(net)

    def test_check_circulation_flags_bad_flows(self):
        net = FlowNetwork(num_vertices=2)
        net.add_edge(1, 2, 0, 1, 0.0)
        net.add_edge(2, 1, 0, 1, 0.0)
        bad = Circulation(flow=(1, 0), cost=0.0)
        assert any("conservation" in v for v in check_circulation(net, bad))

    def test_matches_lp_oracle_on_random_networks(self):
        # network constraint matrices are totally unimodular, so the LP value
        # equals the integral optimum and doubles as an independent oracle
        rng = random.Random(45)
        cases = [(random_instance(rng), rng.choice([1, 2, 3])) for _ in range(80)]
        feasible = infeasible = 0
        for inst, b in cases + edge_cases(rng):
            lam = rng.choice([0.1, 1.0, 10.0])
            for soft in (False, True):
                if soft:
                    net, _ = build_soft_network(inst, b, lam)
                    assignment, report = solve_soft_exact(inst, b, lam)
                else:
                    net, _ = build_hard_network(inst, b)
                    assignment, report = solve_hard(inst, b)
                oracle = solve_lp(_network_lp(net))
                result = min_cost_circulation(net)
                if result is None:
                    infeasible += 1
                    assert oracle.status is LpStatus.INFEASIBLE
                    assert assignment is None and not soft
                else:
                    feasible += 1
                    assert oracle.status is LpStatus.OPTIMAL
                    assert result.cost == pytest.approx(oracle.objective, abs=1e-7)
                    assert result.cost == pytest.approx(report.objective, abs=1e-9)
                    assert check_circulation(net, result) == []
        assert feasible > 100 and infeasible > 10

    def test_mutated_networks_are_rejected_or_solved(self):
        # A mutant is either no builder's network or some other instance's
        # network, which must then be solved to a valid circulation.
        rng = random.Random(47)
        cases = [(random_instance(rng), rng.choice([1, 2, 3])) for _ in range(150)]
        rejected = solved = 0
        for inst, b in cases + edge_cases(rng):
            for net, _ in (build_hard_network(inst, b), build_soft_network(inst, b, 0.3)):
                for mutant in _mutants(net, rng):
                    try:
                        result = min_cost_circulation(mutant)
                    except MalformedNetworkError:
                        rejected += 1
                        continue
                    solved += 1
                    if result is not None:
                        assert check_circulation(mutant, result) == []
        assert rejected > 1000 and solved > 50


class TestSolveHard:
    def test_trap_instance(self):
        assignment, report = solve_hard(TRAP, b=1)
        assert assignment is not None
        assert assignment.nominee == (2, 1)
        assert report.objective == pytest.approx(0.3, abs=1e-9)
        assert report.loads == (1, 1)

    def test_infeasible_instance_reports_no_solution(self):
        inst = Instance.from_rows([[1]] * 5, p=[0.1])
        assignment, report = solve_hard(inst, b=2)
        assert assignment is None
        assert report.status is SolveStatus.INFEASIBLE
        assert report.objective is None
        assert report.loads is None

    def test_large_limit_matches_greedy(self):
        rng = random.Random(42)
        for _ in range(25):
            inst = random_instance(rng)
            _, flow_report = solve_hard(inst, b=inst.n)
            _, greedy_report = greedy_assign_basic(inst)
            assert flow_report.objective == pytest.approx(
                greedy_report.objective, abs=1e-9
            )

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(43)
        feasible = infeasible = 0
        cases = [(random_instance(rng), rng.choice([1, 2, 3])) for _ in range(120)]
        for inst, b in cases + edge_cases(rng):
            expected = oracle_hard(inst, b)
            assignment, report = solve_hard(inst, b)
            if expected is None:
                infeasible += 1
                assert assignment is None
                assert report.status is SolveStatus.INFEASIBLE
            else:
                feasible += 1
                assert assignment is not None
                assert report.objective == pytest.approx(expected[1], abs=1e-9)
                assert max(author_loads(inst, assignment)) <= b
        assert feasible > 20 and infeasible > 5

    def test_returned_circulation_is_integral_and_conserving(self):
        rng = random.Random(44)
        for _ in range(20):
            inst = random_instance(rng)
            b = rng.choice([2, 3])
            net, _ = build_hard_network(inst, b)
            result = min_cost_circulation(net)
            if result is None:
                continue
            assert all(isinstance(f, int) for f in result.flow)
            assert check_circulation(net, result) == []


def _network_nominees(inst, b, lam=None):
    """The nominees that min_cost_circulation reads off the builders' network."""
    if lam is None:
        network, pair_edges = build_hard_network(inst, b)
    else:
        network, pair_edges = build_soft_network(inst, b, lam)
    circulation = min_cost_circulation(network)
    if circulation is None:
        return None
    nominee = [0] * inst.n
    for (i, j), edge in pair_edges.items():
        if circulation.flow[edge] == 1:
            nominee[i - 1] = j
    return tuple(nominee)


class TestSolvePath:
    def test_matches_the_network_route(self):
        # The exact solvers run the slot greedy on the instance; the network
        # route must pick the very same nominees, ties included.
        rng = random.Random(46)
        cases = [(random_instance(rng), rng.choice([1, 2, 3])) for _ in range(2000)]
        cases += edge_cases(rng)
        cases.append((Instance.from_rows([[1], [1, 2]], p=[2**-60, 0.5]), 1))
        feasible = infeasible = 0
        for inst, b in cases:
            assignment, _ = solve_hard(inst, b)
            if assignment is None:
                infeasible += 1
                assert _network_nominees(inst, b) is None
            else:
                feasible += 1
                assert assignment.nominee == _network_nominees(inst, b)
            for lam in (5e-324, 2**-60, 0.5, 1.0):
                assignment, _ = solve_soft_exact(inst, b, lam)
                assert assignment.nominee == _network_nominees(inst, b, lam)
        assert feasible > 500 and infeasible > 100

    def test_solvers_build_no_network(self, monkeypatch):
        cases = [(TRAP, 1), (Instance.from_rows([[1]] * 5, p=[0.1]), 2)]
        expected = [(solve_hard(inst, b), solve_soft_exact(inst, b, 0.3)) for inst, b in cases]
        assert expected[0][0][0] is not None and expected[1][0][0] is None

        def refuse(*args, **kwargs):
            raise AssertionError("an exact solver built or solved a flow network")

        monkeypatch.setattr(FlowNetwork, "add_edge", refuse)
        monkeypatch.setattr(network, "min_cost_circulation", refuse)
        for (inst, b), (hard, soft) in zip(cases, expected):
            assert solve_hard(inst, b) == hard
            assert solve_soft_exact(inst, b, 0.3) == soft


def _reference_slot_greedy(instance, b, lam):
    """The slot greedy as first written, kept frozen to check the cursor search.

    Each step is a breadth-first search with two fresh dicts that rescans
    every paper of every author it reaches and stops at the first
    unassigned paper it scans.
    """
    papers_of = [[] for _ in range(instance.m)]
    for i, j in instance.authorship:
        papers_of[j - 1].append(i - 1)
    slots = []
    extra = None if lam is None else flow._exact(lam)
    for author, p in enumerate(instance.p):
        weight = flow._exact(p)
        slots.append((weight, author, False))
        if extra is not None:
            slots.append((weight + extra, author, True))
    slots.sort(key=itemgetter(0))
    holder = [-1] * instance.n
    dead = [False] * instance.m

    def augment(start):
        if dead[start]:
            return False
        gives_up = {start: -1}
        via = {}
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

    assigned = 0
    for _, author, over in slots:
        capacity = instance.n if over else b
        count = 0
        while count < capacity and assigned < instance.n and augment(author):
            count += 1
            assigned += 1
    return papers_of, slots, holder


class TestSlotGreedyMatchesReference:
    """The cursor search ends at the same author, paper and path as the frozen reference."""

    def assert_same(self, monkeypatch, inst, b, lam):
        expected = _reference_slot_greedy(inst, b, lam)
        # The index keeps tuples where the reference built lists.
        papers_of, slots, holder = flow._slot_greedy(inst, b, lam)
        assert ([list(papers) for papers in papers_of], list(slots), holder) == expected
        prices = flow._slot_prices(inst, b, lam)
        with monkeypatch.context() as patch:
            patch.setattr(flow, "_slot_greedy", _reference_slot_greedy)
            assert prices == flow._slot_prices(inst, b, lam)
        return -1 not in expected[2]

    def test_random_instances_with_tied_p(self, monkeypatch):
        rng = random.Random(47)
        feasible = infeasible = 0
        for _ in range(300):
            n, m = rng.randint(1, 12), rng.randint(1, 6)
            rows = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m))) for _ in range(n)]
            p = [rng.choice([0.0, 0.25, 0.5, 1.0]) for _ in range(m)]
            inst = Instance.from_rows(rows, p)
            for b in (1, 2, 3):
                if self.assert_same(monkeypatch, inst, b, None):
                    feasible += 1
                else:
                    infeasible += 1
                for lam in (5e-324, 0.05, 0.3, 2.5):
                    assert self.assert_same(monkeypatch, inst, b, lam)
        assert feasible > 300 and infeasible > 100

    @pytest.mark.parametrize("seed", [42, 7])
    def test_conference(self, monkeypatch, seed):
        # b = 3 leaves 500 authors 1,500 slots for 2,000 papers: Infeasible.
        inst = conference(seed)
        for b in (3, 4, 5):
            for lam in (None, 0.05, 0.3):
                feasible = self.assert_same(monkeypatch, inst, b, lam)
                assert feasible == (b > 3 or lam is not None)

    def test_sweep(self, monkeypatch):
        # The benchmark sweep's own inputs: b = 2 and 3 leave 100 authors too
        # few slots for 400 papers.
        inst = sweep()
        for b in SWEEP_B:
            for lam in (None, *SWEEP_LAMBDA):
                feasible = self.assert_same(monkeypatch, inst, b, lam)
                assert feasible == (b > 3 or lam is not None)


def _sweep_reports(inst, points):
    """``report_to_dict`` of each ``(solver name, b, lambda)`` point, solved on ``inst``."""
    reports = []
    for name, b, lam in points:
        args = (inst, b) if lam is None else (inst, b, lam)
        assignment, report = getattr(deskrisk, name)(*args)
        reports.append(report_to_dict(report, assignment))
    return reports


class TestCoreIndex:
    """Each instance builds the exact core's index once and shares it with no other."""

    def test_solves_on_one_instance_build_it_once(self, monkeypatch):
        built = []

        def counted(cost):
            built.append(cost)
            return exact(cost)

        exact = instance_module._exact
        monkeypatch.setattr(instance_module, "_exact", counted)
        inst = replace(conference(42))
        for _ in range(2):
            solve_hard(inst, 3)
            solve_soft_exact(inst, 4, 0.3)
            deskrisk.solve_soft(inst, 4, 0.3)
        assert built == list(inst.p)  # one weight per author, once

    def test_each_instance_has_its_own(self):
        rng = random.Random(48)
        for _ in range(60):
            inst = random_instance(rng)
            b, lam = rng.choice([1, 2, 3]), rng.choice([0.1, 1.0])
            solve_hard(inst, b)  # the copies below come after its index
            equal = replace(inst)
            other = replace(inst, p=tuple(rng.random() for _ in inst.p))
            assert equal == inst and equal is not inst
            for case in (inst, equal, other):
                assert case._core.weights == tuple(map(flow._exact, case.p))
                expected, (_, report) = oracle_hard(case, b), solve_hard(case, b)
                if expected is None:
                    assert report.status is SolveStatus.INFEASIBLE
                else:
                    assert report.objective == pytest.approx(expected[1], abs=1e-9)
                _, report = solve_soft_exact(case, b, lam)
                assert report.objective == pytest.approx(oracle_soft(case, b, lam)[1], abs=1e-9)
            assert len({id(inst._core), id(equal._core), id(other._core)}) == 3

    def test_a_second_sweep_pass_repeats_the_first(self):
        # Per-call state (holders, cursors, search marks) must not outlive a solve.
        grid = sweep_grid()
        fresh = [_sweep_reports(replace(sweep()), [point])[0] for point in grid]
        inst = replace(sweep())
        for _ in range(2):
            assert _sweep_reports(inst, grid) == fresh
        assert sum(report["status"] == "Infeasible" for report in fresh) == 2

    def test_threads_solving_one_instance_agree(self):
        # Threads may race to build the index; every solve must still see a whole one.
        grid = sweep_grid()[:14]  # b = 2 and 3: both hard points are Infeasible
        expected = _sweep_reports(replace(sweep()), grid)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                inst = replace(sweep())
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(_sweep_reports, inst, grid) for _ in range(4)]
                    results = [future.result(timeout=60) for future in futures]
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(interval)
