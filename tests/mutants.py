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
library and pytest only; the whole table takes about two minutes on a 2-vCPU
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
PRICE_CHECK = "tests/test_lp.py::TestPriceCheck::test_a_broken_certificate_names_its_row"
LAZY = "tests/test_cli.py::TestLazyLoading"
RECORDS = "tests/test_records.py"
FROM_ROWS = "tests/test_instance.py::TestFromRows"

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
        "validate-skips-duplicate-pairs",
        "src/deskrisk/instance.py",
        "            if pair == previous:\n",
        "            if False:\n",
        ["tests/test_instance.py", "-k", "duplicate"],
    ),
    (
        "instance-takes-numpy-bools-as-numbers",
        "src/deskrisk/instance.py",
        "    if isinstance(value, bool) or not isinstance(value, numbers.Number):\n",
        "    if isinstance(value, (bool, str, bytes)):\n",
        ["tests/test_instance.py", "-k", "numpy_boolean"],
    ),
    (
        "instance-lets-a-huge-int-overflow",
        "src/deskrisk/instance.py",
        "    except (TypeError, OverflowError):\n",
        "    except TypeError:\n",
        ["tests/test_instance.py", "tests/test_io.py", "-k", "too_large"],
    ),
    (
        "validate-prints-a-huge-p",
        "src/deskrisk/instance.py",
        '            violations.append(f"p_{j} out of [0,1]: {_shown(pj)}")\n',
        '            violations.append(f"p_{j} out of [0,1]: {pj}")\n',
        ["tests/test_instance.py", "-k", "huge_integers"],
    ),
    (
        "assignment-check-takes-an-integral-float",
        "src/deskrisk/instance.py",
        "    if set(map(type, nominee)) <= {int} and all(map(contains,",
        "    if all(map(contains,",
        ["tests/test_instance.py::TestAuthorLoads::test_non_integer_nominee_rejected[integral-float]"],
    ),
    (
        "from-rows-keeps-rows-with-a-repeated-author",
        "src/deskrisk/instance.py",
        "            if type(j) is not int or not last < j <= m:\n",
        "            if type(j) is not int or not last <= j <= m:\n",
        ["tests/test_instance.py::TestFromRows::test_repeated_author_is_named"],
    ),
    (
        "clean-rows-validation-skips-the-author-bound",
        "src/deskrisk/instance.py",
        "not last < j <= m:",
        "not last < j:",
        ["tests/test_instance.py::TestFromRows::test_clean_rows_name_what_their_pairs_name"],
    ),
    (
        "load-pass-takes-author-zero",
        "src/deskrisk/instance.py",
        "        last = 0  # the first author is at least 1\n",
        "        last = -1  # the first author is at least 1\n",
        [f"{FROM_ROWS}::test_clean_rows_name_what_their_pairs_name[author-zero]"],
    ),
    (
        "load-pass-keeps-unsorted-rows",
        "src/deskrisk/instance.py",
        "not last < j <= m:",
        "not 0 < j <= m:",
        [f"{FROM_ROWS}::test_other_rows_are_grouped[unsorted]"],
    ),
    (
        "stray-pairs-below-the-rows-follow-them",
        "src/deskrisk/instance.py",
        "(tuple(ids[:low]), tuple(ids[high:] + odd))",
        "((), tuple(ids[:low] + ids[high:] + odd))",
        ["tests/test_instance.py::TestValidate::test_stray_pairs_are_named_in_sorted_order"],
    ),
    (
        "report-loads-unchecked",
        "src/deskrisk/io.py",
        '    loads = _report_field(obj, "loads", "a list of integers", _is_integer_list)\n',
        '    loads = obj.get("loads")\n',
        ["tests/test_io.py::TestAssignmentAndReportJson", "-k", "malformed_report_field"],
    ),
    (
        "instance-shape-check-skips-element-types",
        "src/deskrisk/io.py",
        "    if set(map(type, papers)) - {list} or set(map(type, chain.from_iterable(papers))) - {int}:\n",
        "    if set(map(type, papers)) - {list}:\n",
        ["tests/test_io.py::TestInstanceJson::test_first_bad_row_is_named"],
    ),
    (
        "validate-allocates-a-flag-per-paper",
        "src/deskrisk/instance.py",
        "        uncovered.append(range(unseen, n + 1))\n",
        "        uncovered.append(range(unseen, n + 1))\n        [False] * n\n",
        ["tests/test_instance.py", "-k", "huge_paper_count"],
    ),
    (
        "soft-relaxation-sums-in-reverse",
        "src/deskrisk/instance.py",
        "    for j in assignment.nominee:\n        total += instance.p[j - 1]\n",
        "    for j in reversed(assignment.nominee):\n        total += instance.p[j - 1]\n",
        ["tests/test_golden.py"],
    ),
    (
        "lp-author-rows-list-their-pairs-in-reverse",
        "src/deskrisk/program.py",
        "    by_author = np.argsort(author * nnz + np.arange(nnz))\n",
        "    by_author = np.argsort(author * nnz - np.arange(nnz))\n",
        ["tests/test_lp.py::TestAssignmentForm::test_equals_the_row_list_program"],
    ),
    (
        "soft-rounding-ties-to-the-last-maximum",
        "src/deskrisk/program.py",
        "    pick = np.minimum.reduceat(np.where(x == best, np.arange(len(x)), len(x)), first)\n",
        "    pick = np.maximum.reduceat(np.where(x == best, np.arange(len(x)), -1), first)\n",
        ["tests/test_soft.py::TestRoundSoft"],
    ),
    (
        "lp-author-row-duals-flipped",
        "src/deskrisk/lp.py",
        "        if c < p:\n",
        "        if c > p:\n",
        ["tests/test_lp.py::TestAssignmentVertices::test_conference_lps_certify_without_a_pivot"],
    ),
    (
        "lp-route-skips-the-certificate",
        "src/deskrisk/lp.py",
        "    fault = _price_fault(instance, b, lam, holder, price)\n",
        '    fault = ""\n',
        ["tests/test_lp.py::TestSolveHardLp::test_prices_that_fail_the_certificate_raise"],
    ),
    (
        "price-check-drops-the-slackness-test",
        "src/deskrisk/lp.py",
        "        if count < b and c != p:\n",
        "        if False:\n",
        [f"{PRICE_CHECK}[changed-price]"],
    ),
    (
        "price-check-skips-the-holder-test",
        "src/deskrisk/lp.py",
        "        if h + 1 not in row:\n",
        "        if False:\n",
        [f"{PRICE_CHECK}[holder-not-an-author]"],
    ),
    (
        "price-check-skips-the-pair-test",
        "src/deskrisk/lp.py",
        "            if cost[k] < floor:\n",
        "            if False:\n",
        [f"{PRICE_CHECK}[cheaper-co-author]"],
    ),
    (
        "price-check-drops-the-soft-slope-test",
        "src/deskrisk/lp.py",
        "        if extra is not None and count > b and c != p + extra:\n",
        "        if False:\n",
        [f"{PRICE_CHECK}[soft-off-its-slope]"],
    ),
    (
        "hall-check-ignores-one-outside-author",
        "src/deskrisk/lp.py",
        "    if outside:\n",
        "    if len(outside) > 1:\n",
        ["tests/test_lp.py::TestHallSet"],
    ),
    (
        "hall-check-accepts-a-set-that-fits",
        "src/deskrisk/lp.py",
        "    if not len(distinct) > b * len(authors):\n",
        "    if not len(distinct) >= b * len(authors):\n",
        ["tests/test_lp.py::TestHallSet::test_papers_that_exactly_fill_their_authors_prove_nothing"],
    ),
    (
        "closed-sets-priced-lowest-first",
        "src/deskrisk/flow.py",
        "    seeds.sort(key=itemgetter(0), reverse=True)\n",
        "    seeds.sort(key=itemgetter(0))\n",
        ["tests/test_lp.py::TestWarmStart::test_every_feasible_program_certifies_without_a_pivot"],
    ),
    (
        "slot-greedy-takes-slots-by-author",
        "src/deskrisk/instance.py",
        "        slots = sorted((weight, author, False) for author, weight in enumerate(weights))\n",
        "        slots = sorted(((w, a, False) for a, w in enumerate(weights)), key=lambda s: s[1])\n",
        ["tests/test_lp.py::TestWarmStart::test_every_feasible_program_certifies_without_a_pivot"],
    ),
    (
        "slot-greedy-scans-papers-in-reverse",
        "src/deskrisk/flow.py",
        "                for held in papers_of[author]:\n",
        "                for held in reversed(papers_of[author]):\n",
        ["tests/test_flow.py::TestSlotGreedyMatchesReference"],
    ),
    (
        "core-index-shared-by-size",
        "src/deskrisk/instance.py",
        "    @cached_property\n    def _core(self) -> _CoreIndex:\n",
        "    _shared = {}\n\n"
        "    @property\n    def _core(self) -> _CoreIndex:\n"
        "        return Instance._shared.setdefault((self.n, self.m), self._own_core)\n\n"
        "    @cached_property\n    def _own_core(self) -> _CoreIndex:\n",
        ["tests/test_flow.py::TestCoreIndex::test_each_instance_has_its_own"],
    ),
    (
        "core-index-rebuilt-every-solve",
        "src/deskrisk/instance.py",
        "    @cached_property\n    def _core(self) -> _CoreIndex:\n",
        "    @property\n    def _core(self) -> _CoreIndex:\n",
        ["tests/test_flow.py::TestCoreIndex::test_solves_on_one_instance_build_it_once"],
    ),
    (
        "slot-greedy-keeps-cursors-across-solves",
        "src/deskrisk/flow.py",
        "    cursor = [0] * m  #",
        '    cursor = instance.__dict__.setdefault("_cursor", [0] * m)  #',
        ["tests/test_flow.py::TestCoreIndex::test_a_second_sweep_pass_repeats_the_first"],
    ),
    (
        "slot-walk-takes-a-held-paper",
        "src/deskrisk/flow.py",
        "            if holder[own[at]] < 0:\n",
        "            if True:\n",
        ["tests/test_flow.py::TestSlotGreedyMatchesReference"],
    ),
    (
        "hall-set-takes-every-paper-of-an-author",
        "src/deskrisk/flow.py",
        "                papers.extend(i for i in papers_of[j] if holder[i] == j)\n",
        "                papers.extend(papers_of[j])\n",
        ["tests/test_lp.py::TestHallSet"],
    ),
    (
        "closed-sets-pass-prices-through-unheld-papers",
        "src/deskrisk/flow.py",
        "                if holder[paper] != k:\n",
        "                if False:\n",
        ["tests/test_lp.py::TestWarmStart::test_prices_are_the_cheapest_absorbers"],
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
        "greedy-ties-to-the-highest-index",
        "src/deskrisk/greedy.py",
        "    nominee = [min(row, key=cost) for row in instance.rows]\n",
        "    nominee = [min(row[::-1], key=cost) for row in instance.rows]\n",
        ["tests/test_greedy.py::test_tie_breaks_to_smallest_index_without_seed"],
    ),
    (
        "baseline-error-case-draw-reversed",
        "src/deskrisk/baselines.py",
        "            candidates, err = row, True\n",
        "            candidates, err = row[::-1], True\n",
        ["tests/test_golden.py::test_conference_outputs_match_their_fingerprints"],
    ),
    (
        "greedy-imports-numpy",
        "src/deskrisk/greedy.py",
        "import random\n",
        "import random\n\nimport numpy  # noqa: F401\n",
        ["tests/test_cli.py::TestImportBoundary"],
    ),
    (
        "package-imports-the-oracle-eagerly",
        "src/deskrisk/__init__.py",
        "from importlib import import_module\n",
        "from importlib import import_module\n\nfrom . import oracle  # noqa: F401\n",
        [f"{LAZY}::test_import_loads_only_the_solve_path"],
    ),
    (
        "cli-imports-a-route-module-at-the-top",
        "src/deskrisk/cli.py",
        "from .lp import solve_hard_lp, solve_soft\n",
        "from .lp import solve_hard_lp, solve_soft\n"
        "from .baselines import rand_assign_hard  # noqa: F401\n",
        [f"{LAZY}::test_benchmark_routes_load_only_the_solve_path"],
    ),
    (
        "record-eq-ignores-class",
        "src/deskrisk/instance.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, _Record):\n",
        [f"{RECORDS}::test_records_of_different_types_with_equal_fields_differ"],
    ),
    (
        "record-hash-drops-a-field",
        "src/deskrisk/instance.py",
        "        return hash(self._values())\n",
        "        return hash(self._values()[1:])\n",
        [f"{RECORDS}::test_records_of_different_types_with_equal_fields_differ"],
    ),
    (
        "replace-skips-post-init",
        "src/deskrisk/instance.py",
        "    return type(record)(**dict(zip(record.__match_args__, record._values()), **changes))\n",
        "    new = object.__new__(type(record))\n"
        "    new.__dict__.update(dict(zip(record.__match_args__, record._values()), **changes))\n"
        "    return new\n",
        [f"{RECORDS}::test_replace_runs_post_init"],
    ),
    (
        "instance-imports-dataclasses",
        "src/deskrisk/instance.py",
        "from enum import Enum\n",
        "from enum import Enum\n\nimport dataclasses  # noqa: F401\n",
        [LAZY],
    ),
    (
        "dumps-fast-path-takes-bools",
        "src/deskrisk/io.py",
        "set(map(type, value)) <= {int}:",
        "set(map(type, value)) <= {int, bool}:",
        ["tests/test_io.py::TestAssignmentAndReportJson::test_dumps_writes_what_json_writes"],
    ),
    (
        "record-subclass-drops-base-fields",
        "src/deskrisk/instance.py",
        '{**getattr(cls, "_defaults", {}), **dict.fromkeys(own), **given}',
        "{**dict.fromkeys(own), **given}",
        [f"{RECORDS}::test_positional_arguments_fill_the_fields_in_order"],
    ),
    (
        "loader-lets-deep-nesting-through",
        "src/deskrisk/io.py",
        "    except (ValueError, RecursionError) as exc:\n",
        "    except ValueError as exc:\n",
        ["tests/test_io.py::TestLoaderFailures"],
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
