"""Mutation checks: each entry breaks the program in one place, and its tests must fail.

Run from anywhere, after the tier-1 tests pass::

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

Each entry is ``(name, file, old, new, selection)``.  For each one the runner
copies the repository, without ``.git``, to a temporary directory, replaces
the exact text ``old`` in ``file`` with ``new`` there, and runs pytest on
``selection`` inside the copy with the copy's ``src`` on ``PYTHONPATH``.  The
tests are copied with ``src/`` because the CLI tests start subprocesses on the
``src/`` beside ``tests/``.

A mutant is killed when its selection fails (pytest exit code 1).  The runner
fails when an entry's ``old`` text does not occur exactly once, so a refactor
has to port an entry rather than drop it, and when a selection passes or does
not run.  It exits 0 only when every mutant is killed.  It uses the standard
library and pytest only; the whole table takes under a minute on a 2-vCPU
machine.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ONE_SEARCH = ["tests/test_oracle.py::TestOneSearch"]

MUTANTS: list[tuple[str, str, str, str, list[str]]] = [
    (
        "oracle-ties-to-the-last-minimum",
        "src/deskrisk/oracle.py",
        "        if total < best_obj:\n",
        "        if total <= best_obj:\n",
        ONE_SEARCH,
    ),
    (
        "oracle-hard-keeps-overloaded-candidates",
        "src/deskrisk/oracle.py",
        "            if over and hard:\n                continue\n",
        "            if hard:\n                over = 0\n",
        ONE_SEARCH,
    ),
    (
        "oracle-soft-drops-the-penalty",
        "src/deskrisk/oracle.py",
        "        if over:\n            total += lam * over\n",
        "",
        ONE_SEARCH,
    ),
    (
        "instance-rounds-float-and-bool-ids",
        "src/deskrisk/instance.py",
        "    if isinstance(value, numbers.Integral) and not isinstance(value, bool):\n",
        "    if isinstance(value, numbers.Real):\n",
        ["tests/test_instance.py", "-k", "non_integer"],
    ),
    (
        "instance-keeps-numpy-counts",
        "src/deskrisk/instance.py",
        '        for name in ("n", "m", "b"):\n',
        "        for name in ():\n",
        ["tests/test_instance.py", "-k", "numpy_integer_counts"],
    ),
    (
        "report-loads-unchecked",
        "src/deskrisk/io.py",
        '    loads = _report_field(obj, "loads", "a list of integers", _is_integer_list)\n',
        '    loads = obj.get("loads")\n',
        ["tests/test_io.py::TestAssignmentAndReportJson", "-k", "malformed_report_field"],
    ),
    (
        "lp-read-pairs-sums-in-reverse",
        "src/deskrisk/lp.py",
        "    return values, float(np.cumsum(form.c[:nnz] * values[:nnz])[-1])\n",
        "    return values, float(np.cumsum((form.c[:nnz] * values[:nnz])[::-1])[-1])\n",
        ["tests/test_golden.py::test_conference_outputs_match_their_fingerprints"],
    ),
    (
        "lp-author-rows-list-their-pairs-in-reverse",
        "src/deskrisk/lp.py",
        "    by_author = np.argsort(author * nnz + np.arange(nnz))\n",
        "    by_author = np.argsort(author * nnz - np.arange(nnz))\n",
        ["tests/test_lp.py::TestAssignmentForm::test_equals_the_row_list_program"],
    ),
    (
        "soft-rounding-ties-to-the-last-maximum",
        "src/deskrisk/lp.py",
        "    pick = np.minimum.reduceat(np.where(x == best, np.arange(len(x)), len(x)), first)\n",
        "    pick = np.maximum.reduceat(np.where(x == best, np.arange(len(x)), -1), first)\n",
        ["tests/test_soft.py::TestRoundSoft"],
    ),
    (
        "lp-start-never-set",
        "src/deskrisk/lp.py",
        "    started = form.basic_cols is not None\n",
        "    started = False\n",
        ["tests/test_lp.py::TestAssignmentVertices::test_conference_lps_certify_without_a_pivot"],
    ),
    (
        "closed-sets-priced-lowest-first",
        "src/deskrisk/flow.py",
        "    seeds.sort(key=itemgetter(0), reverse=True)\n",
        "    seeds.sort(key=itemgetter(0))\n",
        ["tests/test_lp.py::TestWarmStart::test_every_feasible_program_certifies_without_a_pivot"],
    ),
    (
        "slot-greedy-scans-papers-in-reverse",
        "src/deskrisk/flow.py",
        "                    for held in papers_of[author]:\n",
        "                    for held in reversed(papers_of[author]):\n",
        ["tests/test_flow.py::TestSlotGreedyMatchesReference"],
    ),
    (
        "hard-lp-drops-integral",
        "src/deskrisk/lp.py",
        'replace(report_for(instance, assignment, "hard-lp"), integral=True)',
        'report_for(instance, assignment, "hard-lp")',
        ["tests/test_lp.py::TestSolveHardLp::test_agrees_with_the_exact_solver"],
    ),
    (
        "solve-exits-0-on-infeasible",
        "src/deskrisk/cli.py",
        "    return EXIT_INFEASIBLE if report.status is SolveStatus.INFEASIBLE else EXIT_OK\n",
        "    return EXIT_OK\n",
        ["tests/test_cli.py::TestSolveCommand::test_infeasible_instance_exits_2"],
    ),
    (
        "greedy-imports-numpy",
        "src/deskrisk/greedy.py",
        "import random\n",
        "import random\n\nimport numpy  # noqa: F401\n",
        ["tests/test_cli.py::TestImportBoundary"],
    ),
]

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def run_mutant(file: str, old: str, new: str, selection: list[str]) -> str:
    """Apply one mutant to a copy of the repository; "" if its selection fails, else why not."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {file}, not once; port the entry"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    if result.returncode == 1:
        return ""
    if result.returncode == 0:
        return "survived: its selection passed"
    output = result.stdout + result.stderr
    return f"selection did not run (pytest exit {result.returncode}):\n{output}"


def main(names: list[str]) -> int:
    unknown = set(names) - {entry[0] for entry in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failures = 0
    for entry in MUTANTS:
        if names and entry[0] not in names:
            continue
        start = time.perf_counter()
        problem = run_mutant(*entry[1:])
        verdict = "killed" if not problem else f"FAILED: {problem}"
        print(f"{entry[0]:45s} {time.perf_counter() - start:5.1f} s  {verdict}", flush=True)
        failures += bool(problem)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
