"""Write the golden ``deskrisk solve``/``oracle`` outputs on the fixtures.

Run from the repository root, on a tree whose output is known to be right:

    PYTHONPATH=src python tests/make_golden.py

It runs every command of :func:`commands` in process through ``run_cli`` and
writes ``tests/golden/cli_outputs.json``: per command its argv, exit code,
stdout, and the bytes of the ``--dump-*`` file when it asks for one.
``test_golden.py`` replays the commands and compares bytes, so regenerate
the file only for an output change that is meant.

In the stored argv, ``{fixtures}`` stands for the fixtures directory and
``{dump}`` for the dump file's path.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_outputs.json"
FIXTURE_NAMES = ("frac_2x2", "infeasible_5x1", "prop35_skew_2x2", "prop35_tie_2x2")
ALGORITHMS = {
    "basic": ("greedy", "oracle"),
    "hard": ("flow", "lp", "oracle", "baseline-rand", "baseline-greedy"),
    "soft": ("lp-round", "exact-flow", "oracle", "baseline-rand", "baseline-greedy"),
}
SEEDED = {"greedy", "baseline-rand", "baseline-greedy"}
DUMPS = {"flow": "--dump-network", "exact-flow": "--dump-network", "lp": "--dump-lp",
         "lp-round": "--dump-lp"}
LIMITS = {
    "basic": [[]],
    "hard": [["--b", "1"], ["--b", "2"]],
    "soft": [["--b", b, "--lambda", lam] for b in ("1", "2") for lam in ("0.3", "1.0")],
}


def commands() -> list[list[str]]:
    """Every command of the golden file, fixtures and dump paths as placeholders."""
    out = []
    for name in FIXTURE_NAMES:
        fixture = f"{{fixtures}}/{name}.json"
        for variant, algorithms in ALGORITHMS.items():
            for limits in LIMITS[variant]:
                out.append(["oracle", fixture, "--variant", variant, *limits])
                for algorithm in algorithms:
                    base = ["solve", fixture, "--variant", variant, *limits,
                            "--algorithm", algorithm]
                    out.append(base)
                    if algorithm in SEEDED:
                        out.append([*base, "--seed", "1"])
                    if algorithm in DUMPS:
                        out.append([*base, DUMPS[algorithm], "{dump}"])
        # Input errors: no limit, a wrong route, a dump the route has not got.
        out.append(["solve", fixture, "--variant", "hard", "--algorithm", "lp"])
        out.append(["solve", fixture, "--variant", "basic", "--algorithm", "flow"])
        out.append(["solve", fixture, "--variant", "hard", "--b", "1", "--algorithm", "lp",
                    "--dump-network", "{dump}"])
    return out


def run(argv: list[str], fixtures: Path, dump: Path) -> tuple[int, str, str | None]:
    """``(exit code, stdout, dump text or None)`` of one in-process command."""
    from deskrisk.cli import run_cli

    dump.unlink(missing_ok=True)
    argv = [arg.replace("{fixtures}", str(fixtures)).replace("{dump}", str(dump)) for arg in argv]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, stdout.getvalue(), dump.read_text() if dump.exists() else None


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.json"
        for argv in commands():
            code, stdout, dumped = run(argv, ROOT / "fixtures", dump)
            cases.append({"argv": argv, "exit": code, "stdout": stdout, "dump": dumped})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} commands to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
