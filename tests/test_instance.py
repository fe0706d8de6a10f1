import random
import re

import pytest
from conftest import conference, random_instance

from deskrisk import (
    Assignment,
    Instance,
    InvalidAssignmentError,
    InvalidInstanceError,
    author_loads,
    basic_objective,
    build_hard_lp,
    greedy_assign_hard,
    greedy_assign_soft,
    oracle_hard,
    oracle_soft,
    rand_assign_hard,
    rand_assign_soft,
    require_valid,
    soft_objective,
    solve_hard,
    solve_soft,
    solve_soft_exact,
    validate,
)
from deskrisk import instance as instance_module
from deskrisk.io import instance_to_dict


class TestValidate:
    def test_minimal_instance_is_ok(self):
        inst = Instance(n=1, m=1, authorship=((1, 1),), p=(0.5,))
        assert validate(inst) == []

    def test_paper_without_authors(self):
        inst = Instance(n=1, m=1, authorship=(), p=(0.5,))
        assert any("paper 1 has no authors" in v for v in validate(inst))

    def test_probability_out_of_range(self):
        inst = Instance(n=1, m=1, authorship=((1, 1),), p=(1.3,))
        assert any("p_1 out of [0,1]" in v for v in validate(inst))

    def test_zero_and_one_probabilities_are_legal(self):
        inst = Instance.from_rows([[1, 2]], p=[0.0, 1.0])
        assert validate(inst) == []

    def test_duplicate_pair_is_reported_not_dropped(self):
        inst = Instance(n=1, m=2, authorship=((1, 1), (1, 1)), p=(0.5, 0.5))
        assert any("duplicate authorship pair (1, 1)" in v for v in validate(inst))

    def test_repeated_pairs_are_reported_once_per_extra_copy(self):
        pairs = ((3, 1), (1, 1), (2, 2), (1, 1), (3, 1), (1, 1))
        inst = Instance(n=2, m=2, authorship=pairs, p=(0.5, 0.5))
        assert validate(inst) == [
            "duplicate authorship pair (1, 1)",
            "duplicate authorship pair (1, 1)",
            "authorship pair (3, 1) out of range",
            "authorship pair (3, 1) out of range",
        ]

    def test_out_of_range_pair(self):
        inst = Instance(n=1, m=1, authorship=((1, 1), (2, 1)), p=(0.5,))
        assert any("out of range" in v for v in validate(inst))

    def test_bad_limit_and_penalty(self):
        inst = Instance(n=1, m=1, authorship=((1, 1),), p=(0.5,), b=0, lam=-1.0)
        messages = validate(inst)
        assert any("b must be >= 1" in v for v in messages)
        assert any("lambda must be > 0" in v for v in messages)
        for lam in (float("inf"), float("nan")):
            inst = Instance(n=1, m=1, authorship=((1, 1),), p=(0.5,), lam=lam)
            assert any("lambda must be > 0 and finite" in v for v in validate(inst))
        for b in (2.5, float("nan"), True):
            inst = Instance(n=1, m=1, authorship=((1, 1),), p=(0.5,), b=b)
            assert validate(inst) == [f"b must be an integer, got {b!r}"]

    def test_booleans_are_not_numbers(self):
        # The JSON loader refuses true and false in p and lambda; so does validate.
        inst = Instance(n=1, m=1, authorship=((1, 1),), p=(True,), b=1, lam=True)
        assert validate(inst) == [
            "p_1 must be a number, got True",
            "lambda must be a number, got True",
        ]

    @pytest.mark.parametrize(
        ("n", "m", "message"),
        [
            (2.5, 1, "n must be a positive integer, got 2.5"),
            (True, 1, "n must be a positive integer, got True"),
            (1, 1.5, "m must be a positive integer, got 1.5"),
        ],
    )
    def test_non_integer_count_is_a_violation(self, n, m, message):
        inst = Instance(n=n, m=m, authorship=((1, 1),), p=(0.5,))
        # A count that is not an int gives no rows, so writing it out works.
        assert len(inst.rows) == (n if type(n) is int else 0)
        assert instance_to_dict(inst)["n"] is n
        assert validate(inst)[0] == message
        with pytest.raises(InvalidInstanceError, match=re.escape(message)):
            require_valid(inst)

    @pytest.mark.parametrize(
        "pair",
        [(1, 1.9), (2.5, 2), (True, True), (1, "1"), (1, "x"), (None, 1)],
        ids=["float-author", "float-paper", "bool", "numeric-str", "str", "none"],
    )
    def test_non_integer_ids_are_kept_and_named(self, pair):
        # Such a pair is neither rounded nor parsed: it stays as given, after
        # the sorted integer pairs, and makes the instance invalid.
        inst = Instance(n=2, m=2, authorship=((2, 2), pair, (1, 1)), p=(0.1, 0.2))
        assert inst.authorship == ((1, 1), (2, 2), pair)
        assert f"authorship pair ({pair[0]!r}, {pair[1]!r}) must hold integers" in validate(inst)
        assert len(inst.rows) == 2 and instance_to_dict(inst)["n"] == 2
        with pytest.raises(InvalidInstanceError, match="must hold integers"):
            solve_hard(inst, b=2)

    @pytest.mark.parametrize(
        "value", ["0.3", b"0.3", None, 0.3j], ids=["str", "bytes", "none", "complex"]
    )
    def test_text_probability_is_kept_and_named(self, value):
        inst = Instance(n=1, m=1, authorship=((1, "1"),), p=(value,))
        assert inst.p == (value,)
        assert validate(inst)[-1] == f"p_1 must be a number, got {value!r}"
        with pytest.raises(InvalidInstanceError, match="must be a number"):
            solve_hard(inst, b=1)

    def test_numpy_scalars_are_still_accepted(self):
        np = pytest.importorskip("numpy")
        pairs = ((np.int64(1), np.int32(2)), (1, 1))
        inst = Instance(n=1, m=2, authorship=pairs, p=(np.float64(0.25), np.float32(0.5)))
        assert inst.authorship == ((1, 1), (1, 2))
        assert all(type(j) is int for pair in inst.authorship for j in pair)
        assert inst.p == (0.25, 0.5) and all(type(v) is float for v in inst.p)
        assert validate(inst) == []
        assert Assignment(nominee=(np.int64(2),)).nominee == (2,)

    def test_numpy_booleans_are_not_numbers(self):
        # numpy's bool is no Python bool, but float() takes it as 1.0 or 0.0.
        np = pytest.importorskip("numpy")
        pairs = ((1, 1), (1, 2))
        inst = Instance(n=1, m=2, authorship=pairs, p=(np.True_, 0.5))
        assert inst.p[0] is np.True_
        assert validate(inst) == [f"p_1 must be a number, got {np.True_!r}"]
        inst = Instance(n=1, m=2, authorship=pairs, p=(0.5, 0.5), lam=np.False_)
        assert validate(inst) == [f"lambda must be a number, got {np.False_!r}"]

    def test_integers_too_large_for_a_float_are_kept_and_named(self):
        huge = 10**400
        inst = Instance(n=1, m=1, authorship=((1, 1),), p=(huge,), lam=huge)
        assert inst.p == (huge,) and inst.lam == huge
        assert validate(inst) == [
            f"p_1 out of [0,1]: {huge}",
            f"lambda must be > 0 and finite, got {huge}",
        ]
        with pytest.raises(InvalidInstanceError, match="p_1 out of"):
            solve_hard(inst, b=1)

    def test_huge_integers_are_named_by_their_size(self):
        # Past 4300 digits an int refuses str() and repr(); 10**5000 has 16,610 bits.
        huge, size = 10**5000, "integer of 16610 bits"
        inst = Instance(n=1, m=1, authorship=((huge, 1), (1, 1)), p=(huge,), b=-huge, lam=huge)
        assert validate(inst) == [
            f"authorship pair (an {size}, 1) out of range",
            f"p_1 out of [0,1]: an {size}",
            f"b must be >= 1, got a negative {size}",
            f"lambda must be > 0 and finite, got an {size}",
        ]
        inst = Instance(n=1, m=-huge, authorship=((1, 1),), p=(0.5,))
        assert validate(inst) == [
            f"m must be a positive integer, got a negative {size}",
            "authorship pair (1, 1) out of range",
            "paper 1 has no authors",
            f"p has length 1, expected m=a negative {size}",
        ]
        inst = Instance.from_rows([[1]], p=[0.5])
        for b, lam, message in (
            (-huge, 1.0, f"nomination limit b must be >= 1, got a negative {size}"),
            (1, huge, f"penalty weight lambda must be > 0 and finite, got an {size}"),
        ):
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                instance_module.resolve_limits(inst, b, lam, soft=True)

    def test_huge_paper_count_names_the_first_papers_and_counts_the_rest(self):
        # n = 10**20 allocates nothing per paper, and the list stays short.
        inst = Instance(n=10**20, m=1, authorship=((1, 1),), p=(0.5,))
        named = [f"paper {i} has no authors" for i in range(2, 102)]
        assert validate(inst) == named + [f"… and {10**20 - 101} more papers have no authors"]
        inst = Instance(n=5, m=1, authorship=((2, 1), (4, 1), (4, 1)), p=(0.5,))
        assert validate(inst) == [
            "duplicate authorship pair (4, 1)",
            "paper 1 has no authors",
            "paper 3 has no authors",
            "paper 5 has no authors",
        ]

    def test_numpy_integer_counts_and_limit_are_ints(self):
        np = pytest.importorskip("numpy")
        one = np.int64(1)
        inst = Instance(n=one, m=np.int32(2), authorship=((1, 1), (1, 2)), p=(0.5, 0.5), b=one)
        assert (inst.n, inst.m, inst.b) == (1, 2, 1)
        assert all(type(count) is int for count in (inst.n, inst.m, inst.b))
        assert validate(inst) == []
        assert solve_hard(inst, b=np.int64(1))[0].nominee == (1,)

    def test_every_violation_is_reported_at_once(self):
        inst = Instance(n=2, m=1, authorship=((1, 1),), p=(2.0,), b=0)
        assert len(validate(inst)) == 3

    def test_checked_once_per_instance(self, monkeypatch):
        inst = Instance(n=2, m=1, authorship=((1, 1),), p=(2.0,), b=0)
        first = validate(inst)
        monkeypatch.setattr(instance_module, "_find_violations", None)
        with pytest.raises(InvalidInstanceError, match="; ".join(map(re.escape, first))):
            require_valid(inst)
        again = validate(inst)
        assert again == first and again is not first
        again.clear()
        assert validate(inst) == first


class TestAuthorLoads:
    def test_five_single_author_papers(self):
        inst = Instance.from_rows([[1]] * 5, p=[0.1])
        assignment = Assignment(nominee=(1, 1, 1, 1, 1))
        assert author_loads(inst, assignment) == [5]

    def test_permutation_assignment(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[0.5, 0.5])
        assert author_loads(inst, Assignment(nominee=(2, 1))) == [1, 1]

    def test_direct_count(self):
        inst = Instance.from_rows([[1, 2], [1, 2], [1, 2]], p=[0.5, 0.5])
        assert author_loads(inst, Assignment(nominee=(1, 1, 2))) == [2, 1]

    def test_loads_sum_to_paper_count(self):
        rng = random.Random(11)
        for _ in range(30):
            inst = random_instance(rng)
            nominee = tuple(rng.choice(row) for row in inst.rows)
            assert sum(author_loads(inst, Assignment(nominee=nominee))) == inst.n

    def test_non_incident_nominee_rejected(self):
        inst = Instance.from_rows([[1], [1, 2]], p=[0.5, 0.5])
        with pytest.raises(InvalidAssignmentError):
            author_loads(inst, Assignment(nominee=(2, 1)))

    @pytest.mark.parametrize(
        "nominee", [1.9, 1.0, True, "1"], ids=["float", "integral-float", "bool", "str"]
    )
    def test_non_integer_nominee_rejected(self, nominee):
        inst = Instance.from_rows([[1, 2]], p=[0.5, 0.5])
        assignment = Assignment(nominee=(nominee,))
        assert assignment.nominee == (nominee,)
        with pytest.raises(InvalidAssignmentError, match="non-author"):
            author_loads(inst, assignment)

    def test_conference_assignment_names_its_first_bad_nominee(self):
        inst = conference(42)
        nominee = [row[0] for row in inst.rows]
        assert sum(author_loads(inst, Assignment(nominee=tuple(nominee)))) == inst.n
        for paper in (700, 1500):  # the message names the first
            row = inst.rows[paper - 1]
            nominee[paper - 1] = next(j for j in range(1, inst.m + 1) if j not in row)
        with pytest.raises(InvalidAssignmentError, match=r"^paper 700 nominates non-author \d+$"):
            author_loads(inst, Assignment(nominee=tuple(nominee)))

    def test_conference_assignment_takes_a_numpy_nominee(self):
        np = pytest.importorskip("numpy")
        inst = conference(42)
        plain = tuple(row[-1] for row in inst.rows)
        assignment = Assignment(nominee=(*plain[:-1], np.int64(plain[-1])))
        assert assignment.nominee == plain and type(assignment.nominee[-1]) is int
        assert author_loads(inst, assignment) == author_loads(inst, Assignment(nominee=plain))

    def test_wrong_length_rejected(self):
        inst = Instance.from_rows([[1], [1]], p=[0.5])
        with pytest.raises(InvalidAssignmentError):
            author_loads(inst, Assignment(nominee=(1,)))


class TestBasicObjective:
    def test_equal_sixths_give_one_third(self):
        # all four valid assignments of the all-ones 2x2 instance score the same
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[1 / 6, 1 / 6])
        for nominee in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            assert basic_objective(inst, Assignment(nominee=nominee)) == pytest.approx(
                1 / 3, abs=1e-12
            )

    def test_all_zero_probabilities(self):
        inst = Instance.from_rows([[1]], p=[0.0])
        assert basic_objective(inst, Assignment(nominee=(1,))) == 0.0

    def test_matches_independent_per_paper_sum(self):
        rng = random.Random(4)
        for _ in range(50):
            inst = random_instance(rng, n_max=4, m_max=4)
            nominee = tuple(rng.choice(row) for row in inst.rows)
            assignment = Assignment(nominee=nominee)
            expected = 0.0
            for i in range(1, inst.n + 1):
                expected += inst.p[nominee[i - 1] - 1]
            assert basic_objective(inst, assignment) == expected

    def test_permutation_equivariance(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng)
            nominee = tuple(rng.choice(row) for row in inst.rows)
            perm = list(range(1, inst.m + 1))
            rng.shuffle(perm)  # perm[j - 1] is the new name of author j
            relabeled = Instance(
                n=inst.n,
                m=inst.m,
                authorship=tuple((i, perm[j - 1]) for i, j in inst.authorship),
                p=tuple(
                    inst.p[perm.index(j_new) ] for j_new in range(1, inst.m + 1)
                ),
            )
            moved = Assignment(nominee=tuple(perm[j - 1] for j in nominee))
            assert basic_objective(relabeled, moved) == basic_objective(
                inst, Assignment(nominee=nominee)
            )

    def test_pure_function(self):
        inst = Instance.from_rows([[1, 2], [2]], p=[0.3, 0.7])
        assignment = Assignment(nominee=(1, 2))
        first = basic_objective(inst, assignment)
        assert basic_objective(inst, assignment) == first


class TestSoftObjective:
    def test_forced_overload(self):
        inst = Instance.from_rows([[1], [1]], p=[0.1], b=1, lam=0.5)
        objective, expected, penalty = soft_objective(inst, Assignment(nominee=(1, 1)))
        assert objective == pytest.approx(0.7, abs=1e-12)
        assert expected == pytest.approx(0.2, abs=1e-12)
        assert penalty == pytest.approx(0.5, abs=1e-12)

    def test_no_overload_means_no_penalty(self):
        inst = Instance.from_rows([[1, 2], [1, 2]], p=[0.3, 0.6], b=1, lam=2.0)
        assignment = Assignment(nominee=(1, 2))
        objective, expected, penalty = soft_objective(inst, assignment)
        assert penalty == 0.0
        assert objective == basic_objective(inst, assignment)

    def test_matches_independent_formula(self):
        rng = random.Random(9)
        for _ in range(50):
            inst = random_instance(rng, n_max=5, m_max=4)
            nominee = tuple(rng.choice(row) for row in inst.rows)
            assignment = Assignment(nominee=nominee)
            objective, _, _ = soft_objective(inst, assignment, b=1, lam=0.3)
            loads = [0] * inst.m
            for j in nominee:
                loads[j - 1] += 1
            independent = basic_objective(inst, assignment) + 0.3 * sum(
                max(0, load - 1) for load in loads
            )
            assert objective == pytest.approx(independent, abs=1e-12)

    def test_large_limit_degenerates_to_basic(self):
        rng = random.Random(10)
        for _ in range(30):
            inst = random_instance(rng)
            nominee = tuple(rng.choice(row) for row in inst.rows)
            assignment = Assignment(nominee=nominee)
            objective, _, penalty = soft_objective(inst, assignment, b=inst.n, lam=1.0)
            assert penalty == 0.0
            assert objective == basic_objective(inst, assignment)

    def test_missing_parameters_rejected(self):
        inst = Instance.from_rows([[1]], p=[0.5])
        with pytest.raises(ValueError):
            soft_objective(inst, Assignment(nominee=(1,)))


class TestReportFor:
    @pytest.mark.parametrize("soft", [None, (1, 0.3)], ids=["basic", "soft"])
    def test_one_check_and_one_load_count_per_report(self, monkeypatch, soft):
        calls = {"check_assignment": 0, "_count_loads": 0}
        for name in calls:
            real = getattr(instance_module, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(instance_module, name, spy)
        inst = Instance.from_rows([[1, 2], [1], [1, 2]], p=[0.1, 0.4])
        instance_module.report_for(inst, Assignment(nominee=(1, 1, 2)), "spy", soft=soft)
        assert calls == {"check_assignment": 1, "_count_loads": 1}

    def test_matches_the_evaluators_bit_for_bit(self):
        rng = random.Random(12)
        for _ in range(50):
            inst = random_instance(rng)
            assignment = Assignment(nominee=tuple(rng.choice(row) for row in inst.rows))
            basic = instance_module.report_for(inst, assignment, "basic")
            assert basic.objective == basic.expected_rejections == basic_objective(inst, assignment)
            assert basic.penalty == 0.0
            assert basic.loads == tuple(author_loads(inst, assignment))
            soft = instance_module.report_for(inst, assignment, "soft", soft=(1, 0.3))
            assert (soft.objective, soft.expected_rejections, soft.penalty) == soft_objective(
                inst, assignment, 1, 0.3
            )
            assert soft.loads == basic.loads

    def test_bad_limits_are_reported_before_a_bad_assignment(self):
        inst = Instance.from_rows([[1]], p=[0.5])
        with pytest.raises(ValueError, match="penalty weight"):
            instance_module.report_for(inst, Assignment(nominee=(2,)), "x", soft=(1, None))


# Every entry point that takes a nomination limit, called with ``b`` alone.
LIMITED = {
    "solve_hard": solve_hard,
    "solve_soft_exact": lambda inst, b: solve_soft_exact(inst, b, 0.3),
    "solve_soft": lambda inst, b: solve_soft(inst, b, 0.3),
    "build_hard_lp": build_hard_lp,
    "oracle_hard": oracle_hard,
    "oracle_soft": lambda inst, b: oracle_soft(inst, b, 0.3),
    "rand_assign_hard": rand_assign_hard,
    "rand_assign_soft": rand_assign_soft,
    "greedy_assign_hard": greedy_assign_hard,
    "greedy_assign_soft": lambda inst, b: greedy_assign_soft(inst, b, 0.3),
}


class TestLimits:
    @pytest.mark.parametrize("b", [2.5, float("nan"), True], ids=["2.5", "nan", "True"])
    @pytest.mark.parametrize("name", sorted(LIMITED))
    def test_non_integer_limit_is_rejected(self, name, b):
        # At b=2.5 the hard solver used to cap loads at 3, while the LP and the
        # oracle read the same cap as infeasible.
        inst = Instance.from_rows([[1], [1], [1], [1, 2]], p=[0.1, 0.9])
        with pytest.raises(ValueError, match="nomination limit b must be an integer"):
            LIMITED[name](inst, b)

# Every entry point that takes a penalty weight, called with ``(b, lam)``.
WEIGHTED = {
    "solve_soft_exact": solve_soft_exact,
    "solve_soft": solve_soft,
    "oracle_soft": oracle_soft,
    "greedy_assign_soft": greedy_assign_soft,
    "report_for": lambda inst, b, lam: instance_module.report_for(
        inst, Assignment(nominee=(1,)), "x", soft=(b, lam)
    ),
}


class TestPenaltyWeight:
    @pytest.mark.parametrize("lam", [True, False])
    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_boolean_weight_is_rejected(self, name, lam):
        inst = Instance.from_rows([[1]], p=[0.5])
        with pytest.raises(ValueError, match=f"penalty weight lambda must be a number, got {lam}"):
            WEIGHTED[name](inst, 1, lam)

    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_numpy_boolean_weight_is_rejected(self, name):
        np = pytest.importorskip("numpy")
        inst = Instance.from_rows([[1]], p=[0.5])
        message = f"penalty weight lambda must be a number, got {np.True_!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            WEIGHTED[name](inst, 1, np.True_)

    @pytest.mark.parametrize("name", sorted(WEIGHTED))
    def test_weight_too_large_for_a_float_is_rejected(self, name):
        inst = Instance.from_rows([[1]], p=[0.5])
        message = f"penalty weight lambda must be > 0 and finite, got {10**400}"
        with pytest.raises(ValueError, match=re.escape(message)):
            WEIGHTED[name](inst, 1, 10**400)

    def test_numpy_and_integer_weights_become_floats(self):
        np = pytest.importorskip("numpy")
        inst = Instance.from_rows([[1]], p=[0.5], lam=np.int64(2))
        assert type(inst.lam) is float and validate(inst) == []
        for lam, want in ((np.float64(0.3), 0.3), (np.float32(0.25), 0.25), (3, 3.0), (None, 2.0)):
            got = instance_module.resolve_limits(inst, 1, lam, soft=True)[1]
            assert got == want and type(got) is float

    @pytest.mark.parametrize("solve", [solve_soft_exact, solve_soft], ids=["exact", "lp-round"])
    def test_integer_weight_gives_a_float_penalty(self, solve):
        # An int lambda used to make the penalty the int 0, which a report
        # file writes as "penalty": 0 where every other report has 0.0.
        inst = Instance.from_rows([[1]], p=[0.5])
        report = solve(inst, 1, 2)[1]
        assert type(report.penalty) is float and type(report.objective) is float
