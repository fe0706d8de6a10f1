import json
import random
import re

import hypothesis.strategies as st
import pytest
from conftest import FIXTURES, random_instance
from hypothesis import example, given, settings

from deskrisk import (
    Assignment,
    FormatError,
    Instance,
    SolveReport,
    SolveStatus,
    load_assignment,
    load_instance,
    load_instance_csv,
    save_assignment,
    save_instance,
    validate,
)
from deskrisk.io import (
    _loads,
    dumps,
    instance_from_dict,
    instance_to_dict,
    report_from_dict,
    report_to_dict,
)


class TestInstanceJson:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = random.Random(81)
        for k in range(25):
            inst = random_instance(rng)
            if k % 3 == 0:
                inst = Instance(inst.n, inst.m, inst.authorship, inst.p, b=2, lam=0.25)
            path = tmp_path / f"inst_{k}.json"
            save_instance(inst, path)
            assert load_instance(path) == inst

    def test_fixture_shape(self):
        inst = load_instance(FIXTURES / "frac_2x2.json")
        assert (inst.n, inst.m) == (2, 2)
        assert inst.rows == ((1, 2), (1, 2))
        assert inst.p == (1 / 6, 1 / 6)
        assert inst.b is None and inst.lam is None

    def test_papers_listed_in_ascending_order(self, tmp_path):
        inst = Instance(n=1, m=3, authorship=((1, 3), (1, 1)), p=(0.1, 0.2, 0.3))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert json.loads(path.read_text())["papers"] == [[1, 3]]

    def test_format_field_is_written_and_checked(self, tmp_path):
        inst = Instance.from_rows([[1]], p=[0.5])
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        obj = json.loads(path.read_text())
        assert obj["format"] == 1
        obj["format"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match="format version"):
            load_instance(path)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"n": "two"},
            {"papers": [[1], "x"]},
            {"papers": [[1.5], [1]]},
            {"p": "half"},
            {"b": 1.5},
            {"lambda": "heavy"},
            # json.dumps writes these as the non-standard Infinity/NaN tokens.
            {"lambda": float("inf")},
            {"lambda": float("-inf")},
            {"p": [float("nan")]},
        ],
    )
    def test_malformed_fields_are_rejected(self, tmp_path, mutation):
        base = instance_to_dict(Instance.from_rows([[1], [1]], p=[0.5]))
        base.update(mutation)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base))
        with pytest.raises(FormatError):
            load_instance(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("p", [True, 0.5]),
            ("p", [0.5, False]),
            ("lambda", True),
            ("lambda", False),
            ("b", True),
            ("n", True),
            ("m", False),
        ],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, field, value):
        # bool is an int in Python, so true and false must be refused by name.
        base = instance_to_dict(Instance.from_rows([[1], [1]], p=[0.5, 0.5]))
        base.update({"m": 2, "lambda": 0.3, field: value})
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(base))
        with pytest.raises(FormatError, match=f"'{field}'"):
            load_instance(path)

    @pytest.mark.parametrize(
        "papers, bad",
        [
            ([[1], [True]], 1),
            ([[1], [1, 2.0]], 1),
            ([[1.5], [1]], 0),
            ([[1], [None], "x"], 1),
            ([[1], (1,), [1]], 1),
            ([[1], [1], 7], 2),
        ],
        ids=["bool", "float", "first-row", "none", "tuple", "int-row"],
    )
    def test_first_bad_row_is_named(self, papers, bad):
        obj = {"format": 1, "n": len(papers), "m": 2, "papers": papers, "p": [0.5, 0.5]}
        message = f"instance: papers[{bad}] must be a list of integers"
        with pytest.raises(FormatError, match=re.escape(message)):
            instance_from_dict(obj)

    def test_invalid_json_is_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_instance(path)

    def test_duplicate_pairs_survive_loading_for_validation(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps({"format": 1, "n": 1, "m": 2, "papers": [[1, 1]], "p": [0.5, 0.5]})
        )
        inst = load_instance(path)
        assert any("duplicate" in v for v in validate(inst))

    @pytest.mark.parametrize("field", ["p", "lambda"])
    def test_number_too_large_for_a_float_is_kept_for_validate(self, tmp_path, field):
        huge = 10**400
        base = instance_to_dict(Instance.from_rows([[1]], p=[0.5]))
        base[field] = [huge] if field == "p" else huge
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(base))
        inst = load_instance(path)
        assert (inst.p[0] if field == "p" else inst.lam) == huge
        message = "p_1 out of [0,1]:" if field == "p" else "lambda must be > 0 and finite, got"
        assert validate(inst) == [f"{message} {huge}"]


# What report and instance files hold: ints (big ones too), floats, bools, null and
# text (non-ASCII too), lists of ints with and without bools, nested and empty lists.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4)
)
JSON_VALUES = (
    JSON_SCALARS
    | st.lists(st.integers() | st.integers(max_value=-(2**70)), max_size=6)
    | st.lists(st.integers() | st.booleans(), max_size=4)
    | st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
)


class TestAssignmentAndReportJson:
    def test_assignment_round_trip(self, tmp_path):
        assignment = Assignment(nominee=(2, 1, 3))
        path = tmp_path / "assignment.json"
        save_assignment(assignment, path)
        assert load_assignment(path) == assignment

    def test_report_round_trip(self):
        report = SolveReport(
            status=SolveStatus.OPTIMAL,
            objective=0.7,
            expected_rejections=0.2,
            penalty=0.5,
            loads=(2,),
            solver="soft-exact-flow",
            seed=7,
            lp_bound=0.7,
            rounded_objective=0.7,
            gap=0.0,
        )
        assert report_from_dict(report_to_dict(report)) == report

    @pytest.mark.parametrize(
        "obj",
        [{"format": 1}, {"format": 1, "status": "Solved"}, {"format": 1, "status": [1]}],
        ids=["missing", "unknown", "unhashable"],
    )
    def test_report_without_a_known_status_is_a_format_error(self, obj):
        with pytest.raises(FormatError, match="report: field 'status' must be one of"):
            report_from_dict(obj)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("loads", 5),
            ("loads", "ab"),
            ("loads", [1, True]),
            ("loads", [1.0]),
            ("objective", "x"),
            ("expected_rejections", [0.5]),
            ("penalty", True),
            ("lp_bound", "0.5"),
            ("rounded_objective", {}),
            ("gap", False),
            ("solver", 3),
            ("solver", None),
            ("seed", 1.5),
            ("seed", True),
            ("integral", 1),
            ("integral", "true"),
        ],
    )
    def test_malformed_report_field_is_a_format_error(self, field, value):
        obj = report_to_dict(SolveReport(status=SolveStatus.OPTIMAL, objective=0.5, solver="x"))
        obj[field] = value
        with pytest.raises(FormatError, match=f"report: field '{field}' must be"):
            report_from_dict(obj)

    def test_infeasible_report_has_no_solution_fields(self):
        report = SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-flow")
        obj = report_to_dict(report)
        assert obj["status"] == "Infeasible"
        assert obj["objective"] is None
        assert obj["loads"] is None

    def test_nan_nominee_token_is_rejected(self, tmp_path):
        path = tmp_path / "assignment.json"
        path.write_text('{"format": 1, "nominee": [1, NaN]}')
        with pytest.raises(FormatError, match="assignment: non-finite number NaN"):
            load_assignment(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_dumps_refuses_non_finite_numbers(self, value):
        report = SolveReport(status=SolveStatus.OPTIMAL, objective=value, solver="x")
        with pytest.raises(ValueError):
            dumps(report_to_dict(report))

    def test_dumps_is_stable(self):
        report = SolveReport(status=SolveStatus.OPTIMAL, objective=1.0, solver="x")
        assert dumps(report_to_dict(report)) == dumps(report_to_dict(report))

    @given(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=6))
    @example({"loads": [0, True], "nominee": [1, 2], "é": [[1, 2]], "gap": []})
    @settings(max_examples=200, deadline=None)
    def test_dumps_writes_what_json_writes(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize(
        "obj", [{"nominee": [1, float("nan")]}, {"loads": [1, 2], "objective": float("nan")}]
    )
    def test_dumps_refuses_nan_beside_integer_lists(self, obj):
        with pytest.raises(ValueError):
            dumps(obj)


# Each JSON file kind and its loader; reports have no file loader of their own.
LOADERS = pytest.mark.parametrize(
    "kind, load",
    [
        ("instance", load_instance),
        ("assignment", load_assignment),
        ("report", lambda path: report_from_dict(_loads(path, "report"))),
    ],
    ids=["instance", "assignment", "report"],
)


class TestLoaderFailures:
    """Every file a loader cannot read is a ``FormatError`` that names the file."""

    @LOADERS
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("1" * 4301, "Exceeds the limit (4300 digits) for integer string conversion: "
             "value has 4301 digits"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
            ("{not json", "Expecting property name enclosed in double quotes"),
        ],
        ids=["long-integer", "deep-nesting", "not-utf-8", "bad-json"],
    )
    def test_unreadable_file_is_a_format_error_naming_it(self, kind, load, text, reason, tmp_path):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(FormatError) as caught:
            load(path)
        message = str(caught.value)
        assert message.startswith(f"{kind}: invalid JSON in {path}: {reason}")
        assert "set_int_max_str_digits" not in message

    @LOADERS
    def test_non_finite_number_is_its_own_format_error(self, kind, load, tmp_path):
        path = tmp_path / f"{kind}.json"
        path.write_text('{"format": 1, "x": [Infinity]}')
        with pytest.raises(FormatError) as caught:
            load(path)
        message = f"{kind}: non-finite number Infinity in {path} is not valid JSON"
        assert str(caught.value) == message
        assert caught.value.__cause__ is None

    def test_cli_names_the_file_and_exits_1(self, tmp_path, capsys):
        from deskrisk.cli import run_cli

        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert run_cli(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: instance: invalid JSON in {path}: ")


class TestCsvImport:
    def write(self, tmp_path, pairs, probabilities):
        pairs_path = tmp_path / "pairs.csv"
        p_path = tmp_path / "p.csv"
        pairs_path.write_text(pairs)
        p_path.write_text(probabilities)
        return pairs_path, p_path

    def test_import_with_headers(self, tmp_path):
        pairs_path, p_path = self.write(
            tmp_path,
            "paper_id,author_id\n1,1\n1,2\n2,1\n",
            "author_id,p\n1,0.1\n2,0.2\n",
        )
        inst = load_instance_csv(pairs_path, p_path, b=1)
        assert inst == Instance.from_rows([[1, 2], [1]], p=[0.1, 0.2], b=1)

    def test_import_without_headers(self, tmp_path):
        pairs_path, p_path = self.write(tmp_path, "1,1\n2,1\n", "1,0.4\n")
        inst = load_instance_csv(pairs_path, p_path)
        assert inst.rows == ((1,), (1,))
        assert inst.p == (0.4,)

    def test_duplicate_pairs_are_kept_for_validation(self, tmp_path):
        pairs_path, p_path = self.write(tmp_path, "1,1\n1,1\n", "1,0.4\n")
        inst = load_instance_csv(pairs_path, p_path)
        assert any("duplicate" in v for v in validate(inst))

    def test_gap_in_author_ids_is_rejected(self, tmp_path):
        pairs_path, p_path = self.write(tmp_path, "1,1\n", "1,0.4\n3,0.5\n")
        with pytest.raises(FormatError, match="author ids must cover"):
            load_instance_csv(pairs_path, p_path)

    def test_bad_cell_is_rejected_with_location(self, tmp_path):
        pairs_path, p_path = self.write(tmp_path, "1,one\n", "1,0.4\n")
        with pytest.raises(FormatError, match="expected an integer"):
            load_instance_csv(pairs_path, p_path)

    def test_wrong_column_count_is_rejected(self, tmp_path):
        pairs_path, p_path = self.write(tmp_path, "1,1,9\n", "1,0.4\n")
        with pytest.raises(FormatError, match="expected paper_id,author_id"):
            load_instance_csv(pairs_path, p_path)
