"""Every ``deskrisk solve``/``oracle`` command on the fixtures, against stored output.

The commands and their outputs (exit code, stdout, ``--dump-*`` bytes) are in
``tests/golden/cli_outputs.json``; SHA-256 fingerprints of the conference-size
commands and of the sweep grid's reports are in
``tests/golden/fingerprints.json``.  Both are written by
``tests/make_golden.py``.
"""

import json

from conftest import FIXTURES
from make_golden import (
    FINGERPRINTS,
    GOLDEN,
    conference_fingerprints,
    run,
    sweep_fingerprints,
)

REGENERATE = " If the change is meant, rerun `PYTHONPATH=src python tests/make_golden.py`."


def test_solve_and_oracle_output_is_byte_identical_to_the_golden_file(tmp_path):
    cases = json.loads(GOLDEN.read_text())
    changed = []
    for case in cases:
        got = run(case["argv"], FIXTURES, tmp_path / "dump.json")
        if got != (case["exit"], case["stdout"], case["dump"]):
            changed.append(" ".join(case["argv"]))
    assert not changed, (
        f"{len(changed)} of {len(cases)} commands changed their output, first: {changed[0]}."
        + REGENERATE
    )


def test_conference_outputs_match_their_fingerprints(tmp_path):
    want = json.loads(FINGERPRINTS.read_text())["conference"]
    got = conference_fingerprints(tmp_path)
    assert [case["argv"] for case in got] == [case["argv"] for case in want]
    changed = [" ".join(w["argv"]) for g, w in zip(got, want) if g != w]
    assert not changed, (
        f"{len(changed)} of {len(want)} conference commands changed their output,"
        f" first: {changed[0]}." + REGENERATE
    )


def test_sweep_reports_match_their_fingerprints():
    want = json.loads(FINGERPRINTS.read_text())["sweep"]
    got = sweep_fingerprints()
    assert len(got) == len(want) == 42
    changed = [point for point, expected in zip(got, want) if point != expected]
    assert not changed, f"{len(changed)} sweep reports changed, first: {changed[0]}." + REGENERATE
