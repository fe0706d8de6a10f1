import random

import pytest
from conftest import edge_cases, random_instance

from deskrisk import (
    FractionalSolution,
    Instance,
    author_loads,
    build_soft_lp,
    build_soft_network,
    fractional_loads,
    greedy_assign_basic,
    min_cost_circulation,
    oracle_soft,
    round_soft,
    solve_lp,
    solve_soft,
    solve_soft_exact,
    solve_soft_relaxed,
)

FORCED = Instance.from_rows([[1], [1]], p=[0.1])  # two papers, one author


class TestBuildSoftLp:
    def test_all_ones_2x2_has_pair_plus_overload_variables(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[1 / 6, 1 / 6])
        lp, pair_vars, y_vars = build_soft_lp(inst, b=1, lam=1.0)
        assert lp.num_vars == 6  # 4 pair variables + 2 overload variables
        assert len(pair_vars) == 4 and len(y_vars) == 2
        assert len(lp.eq_rows) == 2
        assert len(lp.ineq_rows) == 2
        assert lp.objective[y_vars[1]] == 1.0
        assert lp.upper[y_vars[1]] is None

    def test_nonpositive_penalty_is_rejected(self):
        inst = Instance.from_rows([[1]], p=[0.5])
        with pytest.raises(ValueError):
            build_soft_lp(inst, b=1, lam=0.0)
        for solver in (build_soft_lp, solve_soft_exact):
            with pytest.raises(ValueError, match="lambda"):
                solver(inst, b=1, lam=float("inf"))

    def test_forced_overload_prices_in(self):
        lp, _, y_vars = build_soft_lp(FORCED, b=1, lam=0.5)
        solution = solve_lp(lp)
        assert solution.objective == pytest.approx(0.7, abs=1e-7)
        assert solution.values[y_vars[1]] == pytest.approx(1.0, abs=1e-7)


class TestSolveSoftRelaxed:
    def test_equal_probability_2x2_avoids_overload(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[1 / 6, 1 / 6])
        fractional, report = solve_soft_relaxed(inst, b=1, lam=1.0)
        assert report.objective == pytest.approx(1 / 3, abs=1e-7)
        assert all(y <= 1e-7 for y in fractional.y)

    def test_forced_overload_is_exact(self):
        fractional, report = solve_soft_relaxed(FORCED, b=1, lam=0.5)
        assert fractional.y[0] == pytest.approx(1.0, abs=1e-7)
        assert report.objective == pytest.approx(0.7, abs=1e-7)

    def test_large_limit_kills_the_penalty(self):
        rng = random.Random(61)
        for _ in range(10):
            inst = random_instance(rng)
            _, report = solve_soft_relaxed(inst, b=inst.n, lam=5.0)
            assert report.penalty <= 1e-7

    def test_overload_variables_track_fractional_loads(self):
        rng = random.Random(62)
        for _ in range(30):
            inst = random_instance(rng)
            b = rng.choice([1, 2, 3])
            fractional, _ = solve_soft_relaxed(inst, b=b, lam=rng.choice([0.1, 1.0, 10.0]))
            loads = fractional_loads(inst, fractional)
            for y_j, load in zip(fractional.y, loads):
                assert abs(y_j - max(0.0, load - b)) <= 1e-7

    def test_penalty_weight_monotonicity(self):
        rng = random.Random(63)
        for _ in range(15):
            inst = random_instance(rng)
            b = rng.choice([1, 2])
            lam = rng.choice([0.1, 0.5, 2.0])
            _, low = solve_soft_relaxed(inst, b=b, lam=lam)
            _, high = solve_soft_relaxed(inst, b=b, lam=2 * lam)
            assert high.objective >= low.objective - 1e-9


class TestRoundSoft:
    def test_strict_argmax(self):
        inst = Instance.from_rows([[1, 2]], p=[0.5, 0.5])
        fractional = FractionalSolution(x={(1, 1): 0.7, (1, 2): 0.3})
        assert round_soft(inst, fractional).nominee == (1,)

    def test_tie_takes_smallest_author_index(self):
        inst = Instance.from_rows([[1, 2]], p=[0.5, 0.5])
        fractional = FractionalSolution(x={(1, 1): 0.5, (1, 2): 0.5})
        assert round_soft(inst, fractional).nominee == (1,)

    def test_integral_input_passes_through(self):
        rng = random.Random(64)
        for _ in range(20):
            inst = random_instance(rng)
            nominee = tuple(rng.choice(row) for row in inst.rows)
            x = {(i, j): 1.0 if j == nominee[i - 1] else 0.0 for i, j in inst.authorship}
            assert round_soft(inst, FractionalSolution(x=x)).nominee == nominee

    def test_matches_the_per_paper_loop(self):
        # The loop round_soft was first written as: a strict > keeps the
        # first maximum, and a pair missing from x weighs 0.
        rng = random.Random(66)
        for _ in range(200):
            inst = random_instance(rng)
            weights = [0.0, 0.25, 0.5, 1.0]
            x = {pair: rng.choice(weights) for pair in inst.authorship if rng.random() < 0.8}
            nominee = []
            for i, row in enumerate(inst.rows, start=1):
                best = row[0]
                for j in row[1:]:
                    if x.get((i, j), 0.0) > x.get((i, best), 0.0):
                        best = j
                nominee.append(best)
            assert round_soft(inst, FractionalSolution(x=x)).nominee == tuple(nominee)

    def test_nan_weight_counts_as_minus_infinity(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[0.5, 0.5])
        nan = float("nan")
        fractional = FractionalSolution(x={(1, 1): nan, (1, 2): 0.3, (2, 1): nan, (2, 2): nan})
        assert round_soft(inst, fractional).nominee == (2, 1)


class TestSolveSoft:
    def test_forced_instance_rounds_losslessly(self):
        assignment, report = solve_soft(FORCED, b=1, lam=0.5)
        assert assignment.nominee == (1, 1)
        assert report.objective == pytest.approx(0.7, abs=1e-7)
        assert report.lp_bound == pytest.approx(0.7, abs=1e-7)
        assert report.gap == pytest.approx(0.0, abs=1e-7)

    def test_bound_oracle_rounded_chain(self):
        rng = random.Random(65)
        for _ in range(60):
            inst = random_instance(rng, n_max=5, m_max=5)
            b = rng.choice([1, 2])
            lam = rng.choice([0.1, 1.0, 10.0])
            _, oracle_objective = oracle_soft(inst, b, lam)
            assignment, report = solve_soft(inst, b, lam)
            assert report.lp_bound <= oracle_objective + 1e-7
            assert oracle_objective <= report.rounded_objective + 1e-7
            assert report.objective == report.rounded_objective

    def test_large_limit_matches_greedy(self):
        rng = random.Random(66)
        for _ in range(20):
            inst = random_instance(rng)
            _, soft_report = solve_soft(inst, b=inst.n, lam=1.0)
            _, greedy_report = greedy_assign_basic(inst)
            assert soft_report.objective == pytest.approx(greedy_report.objective, abs=1e-9)


class TestSolveSoftExact:
    def test_forced_overload_arithmetic(self):
        inst = Instance.from_rows([[1]] * 5, p=[0.1])
        assignment, report = solve_soft_exact(inst, b=2, lam=0.4)
        assert assignment.nominee == (1, 1, 1, 1, 1)
        assert report.objective == pytest.approx(5 * 0.1 + 0.4 * 3, abs=1e-9)
        assert report.penalty == pytest.approx(1.2, abs=1e-9)

    def test_network_has_two_source_edges_per_author(self):
        inst = Instance.from_rows([[1, 2], [2]], p=[0.3, 0.4])
        net, _ = build_soft_network(inst, b=1, lam=2.0)
        assert len(net.edges) == 2 * inst.m + inst.nnz + inst.n + 1
        free, priced = net.edges[0], net.edges[1]
        assert (free.capacity, free.cost) == (1, 0.0)
        assert (priced.capacity, priced.cost) == (inst.n, 2.0)
        assert min_cost_circulation(net) is not None

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(67)
        cases = [(random_instance(rng), rng.choice([1, 2, 3])) for _ in range(80)]
        for inst, b in cases + edge_cases(rng):
            lam = rng.choice([0.1, 1.0, 10.0])
            _, expected = oracle_soft(inst, b, lam)
            _, report = solve_soft_exact(inst, b, lam)
            assert report.objective == pytest.approx(expected, abs=1e-9)

    def test_never_worse_than_rounding(self):
        rng = random.Random(68)
        for _ in range(30):
            inst = random_instance(rng)
            b = rng.choice([1, 2])
            lam = rng.choice([0.5, 2.0])
            _, exact_report = solve_soft_exact(inst, b, lam)
            _, rounded_report = solve_soft(inst, b, lam)
            assert exact_report.objective <= rounded_report.objective + 1e-9

    def test_large_limit_matches_greedy(self):
        rng = random.Random(69)
        for _ in range(20):
            inst = random_instance(rng)
            _, exact_report = solve_soft_exact(inst, b=inst.n, lam=1.0)
            _, greedy_report = greedy_assign_basic(inst)
            assert exact_report.objective == pytest.approx(greedy_report.objective, abs=1e-9)

    def test_slots_are_ordered_by_exact_weight(self):
        # Author 1's priced slot weighs 2**-60 + 0.5, which rounds to 0.5, the
        # weight of author 2's free slot.  Only the exact order gives paper 2
        # to author 2; the oracle's float sums tie and cannot tell the two apart.
        inst = Instance.from_rows([[1], [1, 2]], p=[2**-60, 0.5])
        assignment, _ = solve_soft_exact(inst, b=1, lam=0.5)
        assert assignment.nominee == (1, 2)
