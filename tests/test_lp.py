import math
import random
import re
import sys

import numpy as np
import pytest
from conftest import FIXTURES, SWEEP_B, SWEEP_LAMBDA, conference, edge_cases, random_instance, sweep

from deskrisk import (
    GeneratorSpec,
    Instance,
    LinearProgram,
    LpStatus,
    build_hard_lp,
    build_soft_lp,
    generate,
    load_instance,
    oracle_hard,
    solve_hard,
    solve_hard_lp,
    solve_lp,
    solve_soft,
    solve_soft_exact,
    solve_soft_relaxed,
)
from deskrisk import lp as lp_module
from deskrisk import program
from deskrisk.flow import _exact, _hall_set, _slot_prices


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
        real = program._run_highs

        def run_highs(*args):
            answer = real(*args)
            corrupt(answer)
            return answer

        monkeypatch.setattr(program, "_run_highs", run_highs)

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
        monkeypatch.delitem(sys.modules, program._BINDING, raising=False)
        monkeypatch.setattr(program, "_binding_path", lambda: str(missing))
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


def refuse_highs(monkeypatch):
    """Fail the test on any HiGHS run or load of its binding."""

    def refuse(*args, **kwargs):
        raise AssertionError("a route called HiGHS")

    monkeypatch.setattr(program, "_run_highs", refuse)
    monkeypatch.setattr(program, "_binding", refuse)


class TestAssignmentVertices:
    """Both relaxations are totally unimodular, so a simplex answer is an integral vertex."""

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_conference_lps_certify_without_a_pivot(self, soft, monkeypatch):
        # The core's prices certify its own vertex, so no simplex runs.  From
        # the slack basis dual simplex takes 6,043 (hard) and 3,679 (soft)
        # iterations here.
        inst, lam = conference(42), 0.3 if soft else None
        refuse_highs(monkeypatch)
        core = solve_soft_exact(inst, 5, lam)[0] if soft else solve_hard(inst, 5)[0]
        assert lp_module._certified_assignment(inst, 5, lam, soft) == core

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

    @pytest.mark.parametrize(
        ("route", "message"),
        [
            (lambda inst: solve_hard_lp(inst, 1), "hard relaxation"),
            (lambda inst: solve_soft(inst, 1, 0.5), "soft relaxation"),
        ],
        ids=["hard", "soft"],
    )
    def test_prices_that_fail_the_certificate_raise(self, monkeypatch, route, message):
        # With every price at 0, author 1's row dual is p_1 = 1/6 > 0 on a
        # "<=" row, which the exact check refuses as c_1 < p_1.
        inst = load_instance(FIXTURES / "frac_2x2.json")
        monkeypatch.setattr(
            lp_module, "_slot_prices", lambda *args: (_slot_prices(*args)[0], [0] * inst.m)
        )
        fault = "author 1: price 0.0 is below p_1 = 0.16666666666666666"
        message = f"{message} failed its certificate: {fault}"
        with pytest.raises(RuntimeError, match=re.escape(message) + "$"):
            route(inst)


class TestPriceCheck:
    """The routes' exact check of the core's prices, and its tie to the exported program."""

    @pytest.mark.parametrize(
        ("rows", "p", "lam", "change", "fault"),
        [
            # Author 2 has no paper, so its price must be its own p_2.
            ([[1, 2]], [0.2, 0.6], None, lambda holder, price: (holder, [price[0], price[1] + 1]),
             "author 2: load 0 is below b = 1, but its price is not p_2"),
            ([[1, 2], [2]], [0.2, 0.6], None, lambda holder, price: ([0, 0], price),
             "paper 2: holder 1 is not one of its authors"),
            # Holder 1 at the cap priced above co-author 2: only the pair test sees it.
            ([[1, 2]], [0.2, 0.6], None, lambda holder, price: (holder, [price[0] + 1, price[1]]),
             "paper 1: co-author 2 is priced below its holder 1"),
            # Author 1 holds 3 papers at b = 1, so it must cost p_1 + lam exactly.
            ([[1]] * 3, [0.5], 0.25, lambda holder, price: (holder, [price[0] - 1]),
             "author 1: load 3 is above b = 1, but its price is not p_1 + lambda"),
        ],
        ids=["changed-price", "holder-not-an-author", "cheaper-co-author", "soft-off-its-slope"],
    )
    def test_a_broken_certificate_names_its_row(self, monkeypatch, rows, p, lam, change, fault):
        inst = Instance.from_rows(rows, p=p)
        holder, price = _slot_prices(inst, 1, lam)
        assert lp_module._price_fault(inst, 1, lam, holder, price) == ""
        monkeypatch.setattr(lp_module, "_slot_prices", lambda *args: change(holder, price))
        kind = "hard" if lam is None else "soft"
        message = re.escape(f"{kind} relaxation failed its certificate: {fault}") + "$"
        with pytest.raises(RuntimeError, match=message):
            solve_hard_lp(inst, 1) if lam is None else solve_soft(inst, 1, lam)

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_prices_certify_the_exported_program_in_floats(self, soft):
        # Wherever the exact check passes, the core's vertex and the float
        # duals its prices give also pass _certify on the program --dump-lp
        # exports, so the two checks agree on what the routes answer.
        checked = 0
        for source, inst, b, lam in cross_check_cases(soft):
            holder, price = _slot_prices(inst, b, lam)
            if price is None:
                continue
            assert lp_module._price_fault(inst, b, lam, holder, price) == "", (source, b, lam)
            form = program._assignment_form(inst, b, lam, soft)
            author, lengths = program._pairs(inst)
            held = np.asarray(holder)
            x = (author == np.repeat(held, lengths)).astype(float)
            if soft:
                x = np.concatenate((x, np.maximum(np.bincount(held, minlength=inst.m) - b, 0)))
            cost = np.array([value / 2**1074 for value in price])
            row_dual = np.concatenate((np.asarray(inst.p) - cost, cost[held]))
            reduced = form.c - np.bincount(form.col, form.value * row_dual[form.row])
            objective = float(np.sum(form.c * x))
            answer = program._Answer(LpStatus.OPTIMAL, "", 0, objective, x, row_dual, reduced)
            assert program._certify(form, answer)[0] == "", (source, b, lam)
            checked += 1
        assert checked > 300


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


def cross_check_cases(soft: bool) -> list[tuple[str, Instance, int, float | None]]:
    """(source, instance, b, lam): the fixtures and 200 random draws at b = 1, 2, 3 and 5,
    and the benchmark's sweep grid; ``lam`` is ``None`` unless ``soft``."""
    rng = random.Random(63)
    cases = [(path.stem, load_instance(path)) for path in sorted(FIXTURES.glob("*.json"))]
    cases += [("random", random_instance(rng)) for _ in range(200)]
    lams = SWEEP_LAMBDA if soft else (None,)
    grid = [(source, inst, b, rng.choice(lams)) for source, inst in cases for b in (1, 2, 3, 5)]
    return grid + [("sweep", sweep(), b, lam) for b in SWEEP_B for lam in lams]


class TestWarmStart:
    """The routes start and stop at the exact core's vertex, which its prices certify.

    Dual simplex from the slack basis must reach the same optimum, and a
    hard program the core cannot fill must have a Hall set that proves it.
    """

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_start_changes_no_answer(self, soft):
        statuses = set()
        for source, inst, b, lam in cross_check_cases(soft):
            solution = solve_lp(program._assignment_form(inst, b, lam, soft))
            if soft:
                report = solve_soft_relaxed(inst, b, lam)[1]
            else:
                report = solve_hard_lp(inst, b)[1]
            statuses.add(solution.status)
            if report.objective is None:
                assert solution.status is LpStatus.INFEASIBLE, (source, b)
                continue
            assert solution.status is LpStatus.OPTIMAL, (source, b, lam, solution.message)
            assert abs(solution.objective - report.objective) <= program.OPTIMALITY_TOL
        # Every soft program is feasible; some hard ones are not.
        assert statuses == ({LpStatus.OPTIMAL} if soft else {LpStatus.OPTIMAL, LpStatus.INFEASIBLE})

    @pytest.mark.parametrize("lam", [None, 5e-324, 0.05, 0.3, 2.5])
    def test_every_feasible_program_certifies_without_a_pivot(self, lam, monkeypatch):
        # The routes raise unless the core's prices certify its vertex.  The
        # soft bound adds the same terms in the same order as the exact
        # route's objective, so the two are bit-identical.
        refuse_highs(monkeypatch)
        for source, inst, b in warm_start_cases():
            if lam is None:
                assignment, report = solve_hard_lp(inst, b)
                assert assignment == solve_hard(inst, b)[0], (source, b)
            else:
                assignment, report = solve_soft(inst, b, lam)
                exact, exact_report = solve_soft_exact(inst, b, lam)
                assert assignment == exact, (source, b)
                assert report.lp_bound == exact_report.objective, (source, b)

    def test_prices_are_the_cheapest_absorbers(self):
        half, one = _exact(0.5), _exact(1.0)
        # The authors tie.  At b = 2 the core gives paper 1 to author 2 and
        # papers 2 and 3 to author 1.  Author 2 has room and absorbs at its
        # own p; author 1 is full and can pass paper 2 to it, so both cost 0.5.
        inst = Instance.from_rows([[1, 2], [1, 2], [1]], p=[0.5, 0.5])
        assert _slot_prices(inst, 2, None) == ([1, 0, 0], [half, half])
        # At b = 1 author 1 holds papers 1 and 3, one over the cap, so it
        # absorbs only at p + lam = 1.0.  Author 2 is full and can pass
        # paper 2 to author 1, so it costs 1.0 too.
        assert _slot_prices(inst, 1, 0.5) == ([0, 1, 0], [one, one])
        # Both authors are full and neither has room to pass a paper to: a
        # closed set.  Author 2's p = 0.6 sets the price of both.
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[0.2, 0.6])
        assert _slot_prices(inst, 1, None) == ([0, 1], [_exact(0.6)] * 2)
        # Two closed sets.  Author 2 is on paper 1 but author 1 holds it, so
        # author 2 can pass author 1 nothing, and author 1 keeps its own p.
        inst = Instance.from_rows([[1, 2], [2]], p=[0.2, 0.6])
        assert _slot_prices(inst, 1, None) == ([0, 1], [_exact(0.2), _exact(0.6)])

    def test_infeasible_hard_program_gives_a_hall_set(self):
        # Three papers do not fit two authors at b = 1.  Paper 3 is left
        # unassigned; its author 1 holds paper 1, whose author 2 holds paper 2.
        inst = Instance.from_rows([[1, 2], [1, 2], [1]], p=[0.5, 0.5])
        holder, prices = _slot_prices(inst, 1, None)
        assert (holder, prices) == ([0, 1, -1], None)
        assert _hall_set(inst, holder) == ([2, 0, 1], {0, 1})
        # Four papers, three authors: the reach from paper 4 takes all of them.
        inst = Instance.from_rows([[1, 2], [1, 2], [2, 3], [3]], p=[0.1, 0.2, 0.3])
        holder = _slot_prices(inst, 1, None)[0]
        assert _hall_set(inst, holder) == ([3, 2, 1, 0], {0, 1, 2})
        assert solve_hard_lp(inst, 1)[0] is None

    @pytest.mark.parametrize("seed", [42, 7])
    def test_infeasible_conference_program_is_proved_by_a_hall_set(self, seed, monkeypatch):
        # b = 3 leaves 500 authors 1,500 slots for 2,000 papers.  From the
        # slack basis dual simplex took 4,320 (seed 42) and 5,004 (seed 7)
        # iterations to prove it.
        inst = conference(seed)
        papers, authors = _hall_set(inst, _slot_prices(inst, 3, None)[0])
        assert (len(set(papers)), len(authors)) == (1501, 500)
        assert lp_module._hall_fault(inst, 3, papers, authors) == ""
        refuse_highs(monkeypatch)
        assert solve_hard_lp(inst, 3)[0] is None


class TestHallSet:
    def test_verdict_agrees_with_the_oracle_and_needs_every_author(self):
        rng = random.Random(73)
        infeasible = 0
        for _ in range(300):
            inst = random_instance(rng, n_max=5, m_max=4)
            for b in (1, 2, 3):
                assignment = solve_hard_lp(inst, b)[0]
                assert (assignment is None) == (oracle_hard(inst, b) is None)
                holder, prices = _slot_prices(inst, b, None)
                if prices is not None:
                    continue
                infeasible += 1
                papers, authors = _hall_set(inst, holder)
                assert lp_module._hall_fault(inst, b, papers, authors) == ""
                for j in authors:
                    assert lp_module._hall_fault(inst, b, papers, authors - {j}) != ""
        assert infeasible > 100

    @pytest.mark.parametrize("b", [2, 3])
    def test_infeasible_sweep_programs_are_proved(self, b):
        inst = sweep()
        papers, authors = _hall_set(inst, _slot_prices(inst, b, None)[0])
        assert lp_module._hall_fault(inst, b, papers, authors) == ""
        for j in authors:
            assert lp_module._hall_fault(inst, b, papers, authors - {j}) != ""

    def test_a_hall_set_that_fails_its_check_raises(self, monkeypatch):
        # Paper 3's only author is 1, so dropping author 1 leaves it outside.
        inst = Instance.from_rows([[1, 2], [1, 2], [1]], p=[0.5, 0.5])
        monkeypatch.setattr(lp_module, "_hall_set", lambda *args: (_hall_set(*args)[0], {1}))
        fault = "author 1 is on a paper of the set but not in it"
        message = f"hard relaxation Hall set failed its check: {fault}"
        with pytest.raises(RuntimeError, match=re.escape(message) + "$"):
            solve_hard_lp(inst, 1)
        assert lp_module._hall_fault(inst, 1, [2, 0, 1], {0, 1}) == ""
        assert lp_module._hall_fault(inst, 2, [2, 0, 1], {0, 1}) == "3 papers fit 2 authors at b = 2"

    def test_papers_that_exactly_fill_their_authors_prove_nothing(self):
        # |S| = b * |A|: both papers fit author 1 at b = 2.
        inst = Instance.from_rows([[1], [1]], p=[0.5])
        assert lp_module._hall_fault(inst, 2, [0, 1], {0}) == "2 papers fit 1 authors at b = 2"
        assert lp_module._hall_fault(inst, 1, [0, 1], {0}) == ""


def _reference_assignment_lp(instance, b, lam):
    """The relaxation built as first written, kept frozen to check the array builder.

    Python row lists of ``(variable, coefficient)`` pairs and a
    pair-to-variable dict; soft when ``lam`` is given.
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
    return lp


def assert_same_form(got, want, case):
    for name, a, b in zip(got._fields, got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, case)
        else:
            assert a == b, (name, case)


class TestAssignmentForm:
    """The array builder gives the solver form of the row-list programs."""

    @staticmethod
    def cases():
        rng = random.Random(71)
        cases = [(path.stem, load_instance(path)) for path in sorted(FIXTURES.glob("*.json"))]
        cases += [("random", random_instance(rng)) for _ in range(200)]
        return cases + [(f"conference {seed}", conference(seed)) for seed in (42, 7)]

    @pytest.mark.parametrize("lam", [None, 5e-324, 0.3, 2.5])
    def test_equals_the_row_list_program(self, lam):
        for source, inst in self.cases():
            for b in (1, 2, 3, 5):
                form = program._assignment_form(inst, b, lam, soft=lam is not None)
                reference = program._solver_form(_reference_assignment_lp(inst, b, lam))
                assert_same_form(form, reference, (source, b))
                view = build_hard_lp(inst, b)[0] if lam is None else build_soft_lp(inst, b, lam)[0]
                assert_same_form(form, program._solver_form(view), (source, b))

    def test_routes_build_no_linear_program(self, monkeypatch):
        cases = [(conference(42), 5), (Instance.from_rows([[1]] * 5, p=[0.1]), 2)]
        expected = [(solve_hard_lp(inst, b), solve_soft(inst, b, 0.3)) for inst, b in cases]
        assert expected[0][0][0] is not None and expected[1][0][0] is None

        def refuse(*args, **kwargs):
            raise AssertionError("an LP route built or converted a LinearProgram")

        for name in ("__init__", "add_eq", "add_ineq"):
            monkeypatch.setattr(LinearProgram, name, refuse)
        for name in ("_solver_form", "_assignment_form", "_certify"):
            monkeypatch.setattr(program, name, refuse)
        refuse_highs(monkeypatch)
        for (inst, b), (hard, soft) in zip(cases, expected):
            assert solve_hard_lp(inst, b) == hard
            assert solve_soft(inst, b, 0.3) == soft
