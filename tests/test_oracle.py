import random

import pytest
from conftest import FIXTURES, random_instance

from deskrisk import (
    EnumerationLimitError,
    Instance,
    assignment_count,
    author_loads,
    basic_objective,
    enumerate_assignments,
    load_instance,
    oracle_basic,
    oracle_hard,
    oracle_soft,
    soft_objective,
)

# a = [[1, 1], [1, 0]]: the two-paper instance where a bad first pick strands paper 2
TRAP_ROWS = [[1, 2], [1]]


class TestEnumerate:
    def test_trap_instance_has_exactly_two_assignments(self):
        inst = Instance.from_rows(TRAP_ROWS, p=[0.5, 0.5])
        nominees = [a.nominee for a in enumerate_assignments(inst)]
        assert nominees == [(1, 1), (2, 1)]

    def test_single_paper_three_authors(self):
        inst = Instance.from_rows([[1, 2, 3]], p=[0.1, 0.2, 0.3])
        assert [a.nominee for a in enumerate_assignments(inst)] == [(1,), (2,), (3,)]

    def test_single_author_papers_are_forced(self):
        inst = Instance.from_rows([[1], [1], [1]], p=[0.5])
        assert [a.nominee for a in enumerate_assignments(inst)] == [(1, 1, 1)]

    def test_count_matches_product_of_row_sizes(self):
        rng = random.Random(3)
        for _ in range(25):
            inst = random_instance(rng, n_max=5, m_max=4)
            expected = 1
            for row in inst.rows:
                expected *= len(row)
            assert assignment_count(inst) == expected
            assert sum(1 for _ in enumerate_assignments(inst)) == expected

    def test_cap_exceeded_names_the_product_size(self):
        inst = Instance.from_rows([[1, 2, 3]], p=[0.1, 0.2, 0.3])
        with pytest.raises(EnumerationLimitError, match="3 feasible assignments"):
            list(enumerate_assignments(inst, cap=2))


class TestOracleBasic:
    def test_single_paper_argmin(self):
        inst = Instance.from_rows([[1, 2]], p=[0.5, 0.2])
        assignment, objective = oracle_basic(inst)
        assert assignment.nominee == (2,)
        assert objective == pytest.approx(0.2, abs=1e-12)

    def test_all_ones_2x2_equal_probabilities(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[1 / 6, 1 / 6])
        assignment, objective = oracle_basic(inst)
        assert objective == pytest.approx(1 / 3, abs=1e-12)
        assert assignment.nominee == (1, 1)  # lexicographically smallest tie

    def test_objective_is_reachable(self):
        rng = random.Random(21)
        for _ in range(25):
            inst = random_instance(rng)
            assignment, objective = oracle_basic(inst)
            assert basic_objective(inst, assignment) == objective


class TestOracleHard:
    def test_overloaded_single_author_is_infeasible(self):
        inst = Instance.from_rows([[1]] * 5, p=[0.1])
        assert oracle_hard(inst, b=2) is None

    def test_trap_instance_has_unique_feasible_assignment(self):
        inst = Instance.from_rows(TRAP_ROWS, p=[0.5, 0.5])
        best = oracle_hard(inst, b=1)
        assert best is not None
        assert best[0].nominee == (2, 1)

    def test_large_limit_matches_basic(self):
        rng = random.Random(22)
        for _ in range(25):
            inst = random_instance(rng)
            hard = oracle_hard(inst, b=inst.n)
            assert hard is not None
            _, basic_obj = oracle_basic(inst)
            assert hard[1] == basic_obj

    def test_feasible_results_respect_the_limit(self):
        rng = random.Random(23)
        seen_feasible = 0
        for _ in range(40):
            inst = random_instance(rng)
            b = rng.choice([1, 2])
            best = oracle_hard(inst, b)
            if best is not None:
                seen_feasible += 1
                assert max(author_loads(inst, best[0])) <= b
        assert seen_feasible > 5


class TestOracleSoft:
    def test_forced_instance(self):
        inst = Instance.from_rows([[1], [1]], p=[0.1])
        assignment, objective = oracle_soft(inst, b=1, lam=0.5)
        assert assignment.nominee == (1, 1)
        assert objective == pytest.approx(0.7, abs=1e-12)

    def test_large_limit_matches_basic(self):
        rng = random.Random(24)
        for _ in range(25):
            inst = random_instance(rng)
            _, soft_obj = oracle_soft(inst, b=inst.n, lam=2.0)
            _, basic_obj = oracle_basic(inst)
            assert soft_obj == basic_obj

    def test_all_ones_2x2_spreads_the_load(self):
        # the four assignments score 1/3 + penalty for doubled-up authors,
        # so the permutation-style ones (loads [1, 1]) win at exactly 1/3
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[1 / 6, 1 / 6])
        assignment, objective = oracle_soft(inst, b=1, lam=1.0)
        assert objective == pytest.approx(1 / 3, abs=1e-12)
        assert sorted(author_loads(inst, assignment)) == [1, 1]

    def test_never_beats_hard_oracle_when_hard_is_feasible(self):
        rng = random.Random(25)
        for _ in range(40):
            inst = random_instance(rng)
            b = rng.choice([1, 2])
            hard = oracle_hard(inst, b)
            if hard is None:
                continue
            _, soft_obj = oracle_soft(inst, b, lam=rng.choice([0.1, 1.0, 10.0]))
            assert soft_obj <= hard[1] + 1e-12

    def test_objective_is_reachable(self):
        rng = random.Random(26)
        for _ in range(25):
            inst = random_instance(rng, n_max=5, m_max=4)
            assignment, objective = oracle_soft(inst, b=1, lam=0.7)
            recomputed, _, _ = soft_objective(inst, assignment, b=1, lam=0.7)
            assert recomputed == objective


class TestOneSearch:
    """Each oracle against the first minimum over ``enumerate_assignments``.

    The candidates are scored with the public evaluators, so a change in how
    the search scores, skips or breaks ties shows as a different nominee or
    a different float.
    """

    LAMBDAS = (5e-324, 0.05, 0.3, 2.5)

    @staticmethod
    def first_minimum(candidates, score):
        if not candidates:
            return None
        best = min(candidates, key=score)  # min keeps the first of equal scores
        return best.nominee, score(best)

    @staticmethod
    def found(result):
        return None if result is None else (result[0].nominee, result[1])

    def test_every_oracle_returns_the_first_minimum(self):
        fixtures = sorted(FIXTURES.glob("*.json"))
        assert fixtures
        rng = random.Random(16)
        instances = [load_instance(path) for path in fixtures]
        instances += [random_instance(rng, n_max=5, m_max=4) for _ in range(300)]
        for inst in instances:
            candidates = list(enumerate_assignments(inst))
            basic = self.first_minimum(candidates, lambda a: basic_objective(inst, a))
            assert self.found(oracle_basic(inst)) == basic
            for b in (1, 2, 3):
                fits = [a for a in candidates if max(author_loads(inst, a)) <= b]
                hard = self.first_minimum(fits, lambda a: basic_objective(inst, a))
                assert self.found(oracle_hard(inst, b)) == hard
                for lam in self.LAMBDAS:
                    soft = self.first_minimum(
                        candidates, lambda a: soft_objective(inst, a, b, lam)[0]
                    )
                    assert self.found(oracle_soft(inst, b, lam)) == soft
