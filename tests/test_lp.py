import math
import random
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import FIXTURES, conference, edge_cases, random_instance

from deskrisk import (
    FractionalSolution,
    GeneratorSpec,
    Instance,
    LinearProgram,
    LpStart,
    LpStatus,
    build_hard_lp,
    build_soft_lp,
    generate,
    greedy_assign_basic,
    load_instance,
    oracle_hard,
    solve_hard,
    solve_hard_lp,
    solve_lp,
    solve_soft,
    solve_soft_exact,
)
from deskrisk import lp as lp_module
from deskrisk.flow import _slot_basis


class TestSolveLp:
    def test_bound_attaining_minimum(self):
        lp = LinearProgram.minimize([1.0])
        lp.upper = [1.0]
        solution = solve_lp(lp)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective == pytest.approx(0.0, abs=1e-9)
        assert solution.values == pytest.approx((0.0,), abs=1e-9)

    def test_hand_solved_two_variable_program(self):
        # min x0 + 2 x1 with x0 + x1 = 1 and x0 - x1 <= 0.3 pushes x0 to 0.65
        lp = LinearProgram.minimize([1.0, 2.0])
        lp.upper = [1.0, 1.0]
        lp.add_eq([(0, 1.0), (1, 1.0)], 1.0)
        lp.add_ineq([(0, 1.0), (1, -1.0)], 0.3, "<=")
        solution = solve_lp(lp)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.35, abs=1e-7)
        assert solution.values == pytest.approx((0.65, 0.35), abs=1e-7)

    def test_geq_rows_are_honored(self):
        lp = LinearProgram.minimize([1.0])
        lp.add_ineq([(0, 1.0)], 2.5, ">=")
        solution = solve_lp(lp)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective == pytest.approx(2.5, abs=1e-7)

    def test_infeasible_program(self):
        lp = LinearProgram.minimize([1.0])
        lp.upper = [1.0]
        lp.add_ineq([(0, 1.0)], 2.0, ">=")
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded_program(self):
        lp = LinearProgram.minimize([-1.0])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_malformed_program_is_rejected(self):
        lp = LinearProgram.minimize([1.0])
        lp.add_eq([(3, 1.0)], 1.0)
        with pytest.raises(ValueError):
            solve_lp(lp)

    def test_nan_upper_bound_is_rejected(self):
        lp = LinearProgram.minimize([1.0])
        lp.upper = [float("nan")]
        lp.add_eq([(0, 1.0)], 1.0)
        with pytest.raises(ValueError, match="variable 0"):
            solve_lp(lp)

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_objective_is_rejected(self, coeff):
        lp = LinearProgram.minimize([1.0, coeff])
        with pytest.raises(ValueError, match="objective coefficient of variable 1"):
            solve_lp(lp)

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ([("eq", [(0, 1.0), (-1, 1.0)], None)], "row references variable -1, have 2"),
            ([("ineq", [(1, 1.0), (2, 1.0)], ">=")], "row references variable 2, have 2"),
            ([("ineq", [(0, 1.0)], "==")], "unknown sense '=='"),
            # Rows are checked in order, each row's variables before its sense.
            ([("ineq", [(5, 1.0)], "<="), ("ineq", [(0, 1.0)], "==")], "variable 5"),
            ([("ineq", [(0, 1.0)], "=="), ("ineq", [(5, 1.0)], "<=")], "unknown sense"),
            ([("ineq", [(5, 1.0)], "==")], "variable 5"),
            ([("ineq", [(0, 1.0)], "=="), ("eq", [(5, 1.0)], None)], "variable 5"),
        ],
    )
    def test_malformed_rows_name_the_first_fault(self, rows, message):
        lp = LinearProgram.minimize([1.0, 1.0])
        for kind, row, sense in rows:
            if kind == "eq":
                lp.add_eq(row, 1.0)
            else:
                lp.add_ineq(row, 1.0, sense)
        with pytest.raises(ValueError, match=re.escape(message)):
            lp.check()

    def test_first_malformed_variable_is_named(self):
        lp = LinearProgram.minimize([1.0, float("nan")])
        lp.lower = [-math.inf, 0.0]
        with pytest.raises(ValueError, match="lower bound of variable 0 must be finite"):
            lp.check()

    def test_mixed_senses(self):
        # min x0 + x1 with x0 >= 0.25, x1 >= 0.5 and x0 + x1 <= 2
        lp = LinearProgram.minimize([1.0, 1.0])
        lp.add_ineq([(0, 1.0)], 0.25, ">=")
        lp.add_ineq([(0, 1.0), (1, 1.0)], 2.0, "<=")
        lp.add_ineq([(1, 1.0)], 0.5, ">=")
        solution = solve_lp(lp)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.values == pytest.approx((0.25, 0.5), abs=1e-9)

    def test_certification_reports_a_gap(self):
        lp = LinearProgram.minimize([1.0, 2.0])
        lp.upper = [1.0, 1.0]
        lp.add_eq([(0, 1.0), (1, 1.0)], 1.0)
        solution = solve_lp(lp)
        assert type(solution.duality_gap) is float
        assert solution.duality_gap <= 1e-7

    @staticmethod
    def corrupt_backend(monkeypatch, corrupt):
        real = lp_module._run_highs

        def run_highs(*args):
            answer = real(*args)
            corrupt(answer)
            return answer

        monkeypatch.setattr(lp_module, "_run_highs", run_highs)

    @staticmethod
    def two_variable_program():
        # HiGHS holds the inequality row first (row 0), then the equality row.
        lp = LinearProgram.minimize([1.0, 2.0])
        lp.upper = [1.0, None]
        lp.add_eq([(0, 1.0), (1, 1.0)], 1.0)
        lp.add_ineq([(0, 1.0)], 0.5, "<=")
        return lp

    # Each part of the duals: the equality and inequality row duals, and the
    # reduced costs of the bounded and of the unbounded variable.
    @pytest.mark.parametrize(
        "part",
        [("row_dual", 1), ("row_dual", 0), ("col_dual", 0), ("col_dual", 1)],
        ids=["eqlin", "ineqlin", "lower", "upper"],
    )
    def test_nan_marginals_fail_certification(self, monkeypatch, part):
        name, k = part

        def corrupt(answer):
            getattr(answer, name)[k] = math.nan

        self.corrupt_backend(monkeypatch, corrupt)
        solution = solve_lp(self.two_variable_program())
        assert solution.status is LpStatus.ERROR
        assert "duality gap nan" in solution.message

    def test_unbounded_variable_adds_no_upper_term(self, monkeypatch):
        # A reduced cost within tolerance on the infinite side prices nothing.
        def corrupt(answer):
            answer.col_dual[1] = -1e-12

        self.corrupt_backend(monkeypatch, corrupt)
        solution = solve_lp(self.two_variable_program())
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.5, abs=1e-7)

    @pytest.mark.parametrize(
        ("corrupt", "fault"),
        [
            (lambda answer: answer.row_dual.__setitem__(1, -answer.row_dual[1]), "duality gap"),
            (lambda answer: answer.row_dual.__setitem__(0, -answer.row_dual[0]), "inequality row 0"),
            (lambda answer: answer.col_dual.__setitem__(0, 1e-6), "reduced-cost residual"),
            (lambda answer: answer.col_dual.__setitem__(1, -1e-6), "variable 1 has dual"),
            (lambda answer: answer.row_dual.fill(math.nan), "duality gap nan"),
        ],
        ids=["flip-eq-dual", "flip-ineq-dual", "nudge-bounded", "nudge-unbounded", "nan-duals"],
    )
    def test_mutated_duals_fail_certification(self, monkeypatch, corrupt, fault):
        # At the optimum x = (0.5, 0.5) both variables are basic, z = (0, 0),
        # and the row duals are -1 (inequality) and 2 (equality).
        self.corrupt_backend(monkeypatch, corrupt)
        solution = solve_lp(self.two_variable_program())
        assert solution.status is LpStatus.ERROR
        assert fault in solution.message

    @pytest.mark.parametrize(
        ("sense", "row_dual", "col_dual", "fault"),
        [
            # min x0 with x0 <= 2: y = 1, z = 0 prices the row's -inf side.
            ("<=", 1.0, 0.0, "inequality row 0 has dual 1.000e+00 on an infinite bound"),
            # min x0 with x0 >= 1: y = -2, z = -1 prices x0's +inf upper bound.
            (">=", -2.0, -1.0, "variable 0 has dual -1.000e+00 on an infinite bound"),
        ],
    )
    def test_dual_on_an_infinite_bound_fails_certification(
        self, monkeypatch, sense, row_dual, col_dual, fault
    ):
        # Both mutations keep c - A'y - z at zero; only the sign check catches them.
        def corrupt(answer):
            answer.row_dual[0] = row_dual
            answer.col_dual[0] = col_dual

        self.corrupt_backend(monkeypatch, corrupt)
        lp = LinearProgram.minimize([1.0])
        lp.add_ineq([(0, 1.0)], 2.0 if sense == "<=" else 1.0, sense)
        solution = solve_lp(lp)
        assert solution.status is LpStatus.ERROR
        assert solution.message == fault

    @pytest.mark.parametrize("k", [0, 1])
    def test_nan_primal_value_fails_certification(self, monkeypatch, k):
        def corrupt(answer):
            answer.x[k] = math.nan

        self.corrupt_backend(monkeypatch, corrupt)
        solution = solve_lp(self.two_variable_program())
        assert solution.status is LpStatus.ERROR
        assert "residual nan" in solution.message

    def test_iterations_are_none_when_the_backend_omits_them(self, monkeypatch):
        def corrupt(answer):
            answer.iterations = None

        self.corrupt_backend(monkeypatch, corrupt)
        solution = solve_lp(self.two_variable_program())
        assert solution.status is LpStatus.OPTIMAL
        assert solution.iterations is None

    def test_nan_value_fails_the_bounds_check(self, monkeypatch):
        def corrupt(answer):
            answer.x[0] = math.nan

        self.corrupt_backend(monkeypatch, corrupt)
        lp = LinearProgram.minimize([1.0])
        lp.upper = [1.0]
        solution = solve_lp(lp)
        assert solution.status is LpStatus.ERROR
        assert "variable 0 value nan violates bounds" in solution.message

    @pytest.mark.parametrize(
        ("coeff", "rhs", "message"),
        [
            (math.nan, 1.0, "row coefficient must be finite, got nan"),
            (1.0, math.inf, "row right-hand side must be finite, got inf"),
        ],
    )
    def test_non_finite_row_data_is_rejected(self, coeff, rhs, message):
        lp = LinearProgram.minimize([1.0])
        lp.add_ineq([(0, coeff)], rhs, ">=")
        with pytest.raises(ValueError, match=re.escape(message)):
            lp.check()

    def test_missing_binding_names_the_path_and_the_scipy_version(self, monkeypatch, tmp_path):
        import scipy

        missing = tmp_path / "_core.so"
        monkeypatch.delitem(sys.modules, lp_module._BINDING, raising=False)
        monkeypatch.setattr(lp_module, "_binding_path", lambda: str(missing))
        with pytest.raises(RuntimeError) as caught:
            solve_lp(self.two_variable_program())
        assert str(missing) in str(caught.value)
        assert f"scipy {scipy.__version__}" in str(caught.value)


class TestBuildHardLp:
    def test_all_ones_2x2_shape(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[1 / 6, 1 / 6])
        lp, pair_vars = build_hard_lp(inst, b=1)
        assert lp.num_vars == 4
        assert len(lp.eq_rows) == 2
        assert len(lp.ineq_rows) == 2
        assert set(pair_vars) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert lp.lower == [0.0] * 4
        assert lp.upper == [1.0] * 4

    def test_single_pair_is_forced_to_one(self):
        inst = Instance.from_rows([[1]], p=[0.4])
        lp, _ = build_hard_lp(inst, b=1)
        assert lp.num_vars == 1
        solution = solve_lp(lp)
        assert solution.values == pytest.approx((1.0,), abs=1e-9)
        assert solution.objective == pytest.approx(0.4, abs=1e-7)

    def test_overloaded_single_author_is_infeasible(self):
        inst = Instance.from_rows([[1]] * 5, p=[0.1])
        lp, _ = build_hard_lp(inst, b=2)
        assert solve_lp(lp).status is LpStatus.INFEASIBLE


class TestFractionalOptima:
    def evaluate(self, inst, lp, x):
        objective = sum(c * v for c, v in zip(lp.objective, x))
        for row, rhs in lp.eq_rows:
            assert sum(coeff * x[k] for k, coeff in row) == pytest.approx(rhs, abs=1e-9)
        for row, rhs, sense in lp.ineq_rows:
            value = sum(coeff * x[k] for k, coeff in row)
            if sense == "<=":
                assert value <= rhs + 1e-9
            else:
                assert value >= rhs - 1e-9
        return objective

    def test_equal_probability_family_all_achieve_one_third(self):
        # x = [[t, 1-t], [1-t, t]] is feasible with the same value for every t,
        # so fractional optima exist alongside the integral ones
        inst = load_instance(FIXTURES / "frac_2x2.json")
        lp, pair_vars = build_hard_lp(inst, b=1)
        solution = solve_lp(lp)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective == pytest.approx(1 / 3, abs=1e-7)
        for t in (0.0, 0.5, 1.0):
            x = [0.0] * lp.num_vars
            x[pair_vars[(1, 1)]] = t
            x[pair_vars[(1, 2)]] = 1.0 - t
            x[pair_vars[(2, 1)]] = 1.0 - t
            x[pair_vars[(2, 2)]] = t
            assert self.evaluate(inst, lp, x) == pytest.approx(1 / 3, abs=1e-9)

    def test_relaxation_lower_bounds_the_integer_optimum(self):
        rng = random.Random(51)
        checked = 0
        for _ in range(40):
            inst = random_instance(rng)
            b = rng.choice([1, 2, 3])
            best = oracle_hard(inst, b)
            if best is None:
                continue
            lp, _ = build_hard_lp(inst, b)
            solution = solve_lp(lp)
            assert solution.status is LpStatus.OPTIMAL
            assert solution.objective <= best[1] + 1e-7
            checked += 1
        assert checked > 10

    def test_solutions_satisfy_constraints_within_tolerance(self):
        rng = random.Random(52)
        for _ in range(20):
            inst = random_instance(rng)
            lp, _ = build_hard_lp(inst, b=2)
            solution = solve_lp(lp)
            if solution.status is not LpStatus.OPTIMAL:
                continue
            self.evaluate(inst, lp, list(solution.values))


def exact_cases() -> list[tuple[Instance, int]]:
    """Mid-size generated instances (b * m close to n) plus the conftest edge cases."""
    cases = [
        (generate(GeneratorSpec(n=300, m=75, authors_min=1, authors_max=5, seed=seed)), b)
        for seed, b in ((1, 4), (2, 5), (3, 4), (4, 6))
    ]
    return cases + edge_cases(random.Random(58))


def near_integer(value: float) -> bool:
    return abs(value - round(value)) <= 1e-9


class TestAssignmentVertices:
    """Both relaxations are totally unimodular, so a simplex answer is an integral vertex."""

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_conference_lps_certify_without_a_pivot(self, soft):
        # Started at the exact core's optimal basis, HiGHS only confirms it.
        # From the basic greedy's basis dual simplex took 3,753 (hard) and
        # 544 (soft) iterations here, and from the slack basis 6,043 and 3,679.
        inst = conference(42)
        lp = build_soft_lp(inst, 5, 0.3)[0] if soft else build_hard_lp(inst, 5)[0]
        solution = solve_lp(lp)
        assert solution.status is LpStatus.OPTIMAL
        assert solution.iterations == 0

    def test_hard_vertex_is_integral_and_exact(self):
        for inst, b in exact_cases():
            solution = solve_lp(build_hard_lp(inst, b)[0])
            assignment, report = solve_hard(inst, b)
            if assignment is None:
                assert solution.status is LpStatus.INFEASIBLE
                continue
            assert solution.status is LpStatus.OPTIMAL
            assert all(near_integer(v) and round(v) in (0, 1) for v in solution.values)
            assert math.isclose(solution.objective, report.objective, rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 2.0])
    def test_soft_vertex_is_integral_and_rounds_without_gap(self, lam):
        for inst, b in exact_cases():
            lp, pair_vars, y_vars = build_soft_lp(inst, b, lam)
            solution = solve_lp(lp)
            assert solution.status is LpStatus.OPTIMAL
            x = [solution.values[k] for k in pair_vars.values()]
            assert all(near_integer(v) and round(v) in (0, 1) for v in x)
            assert all(near_integer(solution.values[k]) for k in y_vars.values())

            _, rounded = solve_soft(inst, b, lam)
            _, exact = solve_soft_exact(inst, b, lam)
            assert math.isclose(rounded.lp_bound, exact.objective, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(rounded.gap, 0.0, abs_tol=1e-9 * max(1.0, exact.objective))


class TestSolveHardLp:
    def test_agrees_with_the_exact_solver(self):
        rng = random.Random(67)
        cases = exact_cases() + [(random_instance(rng), rng.randint(1, 3)) for _ in range(200)]
        for inst, b in cases:
            assignment, report = solve_hard_lp(inst, b)
            exact, exact_report = solve_hard(inst, b)
            assert report.status is exact_report.status
            if exact is None:
                assert assignment is None
                continue
            assert report.integral is True
            assert abs(report.objective - exact_report.objective) <= 1e-9

    @pytest.mark.parametrize("seed", [42, 7])
    def test_lp_routes_report_the_cores_nominees_at_conference_size(self, seed):
        inst = conference(seed)
        assert solve_hard_lp(inst, 5)[0] == solve_hard(inst, 5)[0]
        rounded, report = solve_soft(inst, 5, 0.3)
        exact, exact_report = solve_soft_exact(inst, 5, 0.3)
        assert rounded == exact
        assert math.isclose(report.lp_bound, exact_report.objective, rel_tol=1e-9)

    def test_fractional_answer_is_returned_with_its_weights(self, monkeypatch):
        inst = load_instance(FIXTURES / "frac_2x2.json")
        values = (0.5, 0.5, 0.0, 1.0)
        answer = lp_module.LpSolution(status=LpStatus.OPTIMAL, values=values, objective=1 / 3)
        monkeypatch.setattr(lp_module, "solve_lp", lambda lp: answer)
        solution, report = solve_hard_lp(inst, 1)
        assert solution == FractionalSolution(
            x={(1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.0, (2, 2): 1.0}
        )
        assert (report.integral, report.loads, report.penalty) == (False, None, 0.0)
        assert report.objective == report.expected_rejections == pytest.approx(1 / 3)


def warm_start_cases() -> list[tuple[str, Instance, int]]:
    """(source, instance, b): the fixtures, the edge cases, 300 random draws
    and the exact cases, each at b = 1, 2, 3 and at its own b if it has one."""
    rng = random.Random(61)
    cases = [(path.stem, load_instance(path), None) for path in sorted(FIXTURES.glob("*.json"))]
    cases += [("edge", inst, b) for inst, b in edge_cases(random.Random(62))]
    cases += [("random", random_instance(rng), None) for _ in range(300)]
    cases += [("exact", inst, b) for inst, b in exact_cases()]
    return [
        (source, inst, b)
        for source, inst, own in cases
        for b in sorted({1, 2, 3, own} - {None})
    ]


class TestWarmStart:
    """The assignment programs start at the exact core's optimal basis; the answer must not move.

    A hard program the core finds infeasible starts at the optimal basis of
    the uncapped program instead.
    """

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_start_changes_no_answer(self, soft):
        rng = random.Random(63)
        statuses = set()
        for source, inst, b in warm_start_cases():
            lam = rng.choice([0.05, 0.3, 2.0])
            lp = build_soft_lp(inst, b, lam)[0] if soft else build_hard_lp(inst, b)[0]
            assert lp.start is not None
            warm, cold = solve_lp(lp), solve_lp(replace(lp, start=None))
            assert warm.status is cold.status, (source, b)
            assert warm.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE), warm.message
            statuses.add(warm.status)
            if warm.status is LpStatus.OPTIMAL:
                assert math.isclose(warm.objective, cold.objective, rel_tol=1e-9, abs_tol=1e-12)
        # Every soft program is feasible; some hard ones are not.
        assert statuses == ({LpStatus.OPTIMAL} if soft else {LpStatus.OPTIMAL, LpStatus.INFEASIBLE})

    @pytest.mark.parametrize("lam", [None, 5e-324, 0.05, 0.3, 2.5])
    def test_every_feasible_program_certifies_without_a_pivot(self, lam):
        # A core answer that is not optimal gives a basis that is not dual
        # feasible.  HiGHS leaves it by pivots, or by moving a pair to its
        # upper bound without an iteration, so the vertex is checked too.
        for source, inst, b in warm_start_cases():
            if lam is None:
                lp, pair_vars = build_hard_lp(inst, b)
                assignment = solve_hard(inst, b)[0]
            else:
                lp, pair_vars, _ = build_soft_lp(inst, b, lam)
                assignment = solve_soft_exact(inst, b, lam)[0]
            solution = solve_lp(lp)
            if assignment is None:
                assert solution.status is LpStatus.INFEASIBLE, (source, b)
                continue
            assert (solution.status, solution.iterations) == (LpStatus.OPTIMAL, 0), (source, b)
            nominated = [pair_vars[pair] for pair in enumerate(assignment.nominee, start=1)]
            assert all(solution.values[k] > 0.5 for k in nominated), (source, b)

    def test_start_is_the_cores_optimal_basis(self):
        # The authors tie.  At b = 2 the core gives paper 1 to author 2 and
        # papers 2 and 3 to author 1.  Author 2 has room, so its slack stays
        # basic; author 1 is full and could pass paper 2 to author 2, so its
        # row is held tight with the pair (2, 2) basic at 0.
        inst = Instance.from_rows([[1, 2], [1, 2], [1]], p=[0.5, 0.5])
        assert solve_hard(inst, 2)[0].nominee == (2, 1, 1)
        lp, pair_vars = build_hard_lp(inst, 2)
        basic = tuple(pair_vars[pair] for pair in ((1, 2), (2, 1), (3, 1), (2, 2)))
        assert lp.start == LpStart(basic, (0,))
        assert solve_lp(lp).iterations == 0
        # At b = 1 author 1 holds papers 1 and 3, one over the cap, so y_1 is
        # basic.  Author 2 is full and could pass paper 2 to author 1, so its
        # row is held tight with (2, 1) basic.
        assert solve_soft_exact(inst, 1, 0.5)[0].nominee == (1, 2, 1)
        lp, pair_vars, y_vars = build_soft_lp(inst, 1, 0.5)
        basic = tuple(pair_vars[pair] for pair in ((1, 1), (2, 2), (3, 1)))
        assert lp.start == LpStart(basic + (y_vars[1], pair_vars[2, 1]), (0, 1))
        assert solve_lp(lp).iterations == 0
        # Both authors are full and neither has room to pass a paper to: a
        # closed set.  Author 2's p = 0.6 sets the price of both, so its slack
        # stays basic, and author 1 is priced through (2, 1).
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[0.2, 0.6])
        lp, pair_vars = build_hard_lp(inst, 1)
        basic = tuple(pair_vars[pair] for pair in ((1, 1), (2, 2), (2, 1)))
        assert lp.start == LpStart(basic, (0,))
        assert solve_lp(lp).iterations == 0

    def test_infeasible_hard_program_starts_from_the_uncapped_optimum(self):
        # Three papers do not fit two authors at b = 1, so the core has no
        # answer.  The start is the optimal basis at b = n, where author 1
        # holds every paper and its row is held tight.
        inst = Instance.from_rows([[1, 2], [1, 2], [1]], p=[0.5, 0.5])
        lp = build_hard_lp(inst, 1)[0]
        assert lp.start == build_hard_lp(inst, inst.n)[0].start
        assert lp.start.tight == (0,)
        assert solve_lp(lp).status is LpStatus.INFEASIBLE
        # With no author on every paper, the start holds each paper's
        # cheapest author and every slack.
        inst = Instance.from_rows([[1, 2], [1, 2], [2, 3], [3]], p=[0.1, 0.2, 0.3])
        nominee = greedy_assign_basic(inst)[0].nominee
        assert nominee == (1, 1, 2, 3)
        lp, pair_vars = build_hard_lp(inst, 1)
        assert lp.start == LpStart(tuple(pair_vars[pair] for pair in enumerate(nominee, start=1)))
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("seed, most", [(42, 1_361), (7, 675)])
    def test_infeasible_conference_program_is_proved_from_the_start(self, seed, most):
        # At b = 3 the hard program has no answer.  From the slack basis dual
        # simplex took 4,320 (seed 42) and 5,004 (seed 7) iterations here.
        solution = solve_lp(build_hard_lp(conference(seed), 3)[0])
        assert solution.status is LpStatus.INFEASIBLE
        assert solution.iterations <= most

    @staticmethod
    def soft_program():
        # The basic greedy's basis: author 1 holds every paper (variables 0,
        # 2 and 4), y_1 (variable 5) is basic and author 1's row is tight.
        lp = build_soft_lp(Instance.from_rows([[1, 2], [1, 2], [1]], p=[0.5, 0.5]), 1, 0.5)[0]
        lp.start = LpStart((0, 2, 4, 5), (0,))
        lp.check()
        return lp

    @pytest.mark.parametrize(
        ("mutate", "message"),
        [
            (lambda basic, tight: (basic[:-1], tight), "start has 3 basic variables, expected 4"),
            (lambda basic, tight: (basic, ()), "start has 4 basic variables, expected 3"),
            (lambda basic, tight: ((7,) + basic[1:], tight), "start names variable 7, have 7"),
            (lambda basic, tight: ((-1,) + basic[1:], tight), "start names variable -1, have 7"),
            (lambda basic, tight: ((1.0,) + basic[1:], tight), "start names variable 1.0, have 7"),
            (lambda basic, tight: (basic[:1] + basic[:-1], tight), "twice"),
            (lambda basic, tight: (basic + (6,), (0, 0)), "row 0 tight twice"),
            (lambda basic, tight: (basic, (2,)), "row 2 tight, which is not a '<=' row"),
            (lambda basic, tight: (basic, (-1,)), "row -1 tight, which is not a '<=' row"),
        ],
        ids=[
            "too-few", "too-many", "past-the-end", "negative", "float", "duplicate-variable",
            "duplicate-row", "row-out-of-range", "negative-row",
        ],
    )
    def test_malformed_start_is_rejected(self, mutate, message):
        lp = self.soft_program()
        lp.start = LpStart(*mutate(*lp.start))
        with pytest.raises(ValueError, match=re.escape(message)):
            lp.check()
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_lp(lp)

    def test_tight_row_must_be_a_leq_row(self):
        lp = LinearProgram.minimize([1.0, 1.0])
        lp.add_ineq([(0, 1.0)], 0.5, ">=")
        lp.add_ineq([(1, 1.0)], 2.0, "<=")
        lp.start = LpStart((1,), (1,))
        lp.check()
        assert solve_lp(lp).objective == pytest.approx(0.5, abs=1e-9)
        lp.start = LpStart((0,), (0,))
        with pytest.raises(ValueError, match=re.escape("row 0 tight, which is not a '<=' row")):
            lp.check()

    def test_rejected_basis_is_an_error(self, monkeypatch):
        real = lp_module._basis

        def short_basis(core, form):
            basis = real(core, form)
            basis.row_status = basis.row_status[:-1]
            return basis

        monkeypatch.setattr(lp_module, "_basis", short_basis)
        solution = solve_lp(self.soft_program())
        assert solution.status is LpStatus.ERROR
        assert solution.message == "HiGHS rejected the starting basis"


def _reference_assignment_lp(instance, b, lam):
    """The relaxation built as first written, kept frozen to check the array builder.

    Python row lists of ``(variable, coefficient)`` pairs, a pair-to-variable
    dict, and the start looked up in it; soft when ``lam`` is given.
    """
    nnz = instance.nnz
    pair_vars = dict(zip(instance.authorship, range(nnz)))
    y_vars = {} if lam is None else {j: nnz + j - 1 for j in range(1, instance.m + 1)}
    lp = LinearProgram.minimize(
        [instance.p[j - 1] for _, j in instance.authorship] + [lam] * len(y_vars)
    )
    lp.upper[:nnz] = [1.0] * nnz
    ones = [(k, 1.0) for k in range(nnz)]
    start = 0
    for row in instance.rows:
        lp.add_eq(ones[start : start + len(row)], 1.0)
        start += len(row)
    by_author = [[] for _ in range(instance.m)]
    for entry, (_, j) in zip(ones, instance.authorship):
        by_author[j - 1].append(entry)
    for j, entries in enumerate(by_author, start=1):
        if y_vars:
            entries.append((y_vars[j], -1.0))
        lp.add_ineq(entries, float(b), "<=")
    holder, tight = _slot_basis(instance, b, lam) or _slot_basis(instance, instance.n, None)
    basic = [pair_vars[i, j + 1] for i, j in enumerate(holder, start=1)]
    basic += [
        y_vars[j + 1] if pair is None else pair_vars[pair[0] + 1, pair[1] + 1]
        for j, pair in tight.items()
    ]
    lp.start = LpStart(tuple(basic), tuple(tight))
    return lp


def assert_same_form(got, want, case):
    for name, a, b in zip(got._fields, got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, case)
        else:
            assert a == b, (name, case)


class TestAssignmentForm:
    """The array builder gives the solver form of the row-list programs, start included."""

    @staticmethod
    def cases():
        rng = random.Random(71)
        cases = [(path.stem, load_instance(path)) for path in sorted(FIXTURES.glob("*.json"))]
        cases += [("random", random_instance(rng)) for _ in range(200)]
        return cases + [(f"conference {seed}", conference(seed)) for seed in (42, 7)]

    @pytest.mark.parametrize("lam", [None, 5e-324, 0.3, 2.5])
    def test_equals_the_row_list_program(self, lam):
        infeasible = 0
        for source, inst in self.cases():
            for b in (1, 2, 3, 5):
                form = lp_module._assignment_form(inst, b, lam, soft=lam is not None)
                assert form.start is not None
                reference = lp_module._solver_form(_reference_assignment_lp(inst, b, lam))
                assert_same_form(form, reference, (source, b))
                view = build_hard_lp(inst, b)[0] if lam is None else build_soft_lp(inst, b, lam)[0]
                assert_same_form(form, lp_module._solver_form(view), (source, b))
                infeasible += lam is None and _slot_basis(inst, b, None) is None
        # The hard programs include some with no assignment under the cap.
        assert (infeasible > 0) == (lam is None)

    def test_routes_build_no_linear_program(self, monkeypatch):
        cases = [(conference(42), 5), (Instance.from_rows([[1]] * 5, p=[0.1]), 2)]
        expected = [(solve_hard_lp(inst, b), solve_soft(inst, b, 0.3)) for inst, b in cases]
        assert expected[0][0][0] is not None and expected[1][0][0] is None

        def refuse(*args, **kwargs):
            raise AssertionError("an LP route built or converted a LinearProgram")

        for name in ("__init__", "add_eq", "add_ineq"):
            monkeypatch.setattr(LinearProgram, name, refuse)
        monkeypatch.setattr(lp_module, "_solver_form", refuse)
        for (inst, b), (hard, soft) in zip(cases, expected):
            assert solve_hard_lp(inst, b) == hard
            assert solve_soft(inst, b, 0.3) == soft
