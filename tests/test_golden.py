"""Every ``deskrisk solve``/``oracle`` command on the fixtures, against stored output.

The commands and their outputs (exit code, stdout, ``--dump-*`` bytes) are in
``tests/golden/cli_outputs.json``, written by ``tests/make_golden.py``.
"""

import json

from conftest import FIXTURES
from make_golden import GOLDEN, run


def test_solve_and_oracle_output_is_byte_identical_to_the_golden_file(tmp_path):
    cases = json.loads(GOLDEN.read_text())
    changed = []
    for case in cases:
        got = run(case["argv"], FIXTURES, tmp_path / "dump.json")
        if got != (case["exit"], case["stdout"], case["dump"]):
            changed.append(" ".join(case["argv"]))
    assert not changed, (
        f"{len(changed)} of {len(cases)} commands changed their output, first: {changed[0]}."
        " If the change is meant, rerun `PYTHONPATH=src python tests/make_golden.py`."
    )
