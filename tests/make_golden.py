"""Write the golden ``deskrisk solve``/``oracle`` outputs and fingerprints.

Run from the repository root, on a tree whose output is known to be right:

    PYTHONPATH=src python tests/make_golden.py

It writes two files, which ``test_golden.py`` replays:

* ``tests/golden/cli_outputs.json``: every command of :func:`commands` on
  the fixtures, run in process through ``run_cli``, with its argv, exit
  code, stdout, and the bytes of the ``--dump-*`` file when it asks for one;
* ``tests/golden/fingerprints.json``: SHA-256 fingerprints of the same
  outputs for every non-oracle route on conference-size instances
  (:func:`conference_commands`), and of ``report_to_dict`` at every point of
  the sweep grid (:func:`sweep_grid`).  These are large enough that a change
  in summation order moves some bits.

The LP routes' bytes depend on the HiGHS that scipy ships (scipy 1.17.1 when
these were written).  Regenerate the files only for an output change that is
meant, and name it in CHANGES.md.

In the stored argv, ``{fixtures}`` stands for the directory of the input
files and ``{dump}`` for the dump file's path.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_outputs.json"
FINGERPRINTS = ROOT / "tests" / "golden" / "fingerprints.json"
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
# Conference size: 2000 papers, 500 authors, 3-7 authors a paper; seed 42
# gives 10,053 incidences.
CONFERENCE_SEEDS = (42, 7)
CONFERENCE_LIMITS = {
    "basic": [],
    "hard": ["--b", "5"],
    "soft": ["--b", "5", "--lambda", "0.3"],
}
# The sweep: one 400 x 100 instance, solve_hard at every b and solve_soft and
# solve_soft_exact at every (b, lambda), 6 + 2 * 18 = 42 solves.
SWEEP_B = (2, 3, 4, 5, 6, 8)
SWEEP_LAMBDA = (0.05, 0.2, 0.8)


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


def conference_commands() -> list[list[str]]:
    """Every non-oracle ``solve`` route on each conference instance.

    A route that takes ``--seed`` also runs with ``--seed 1``, and one that
    dumps its model also runs with its dump.
    """
    out = []
    for seed in CONFERENCE_SEEDS:
        instance = f"{{fixtures}}/conference_{seed}.json"
        for variant, algorithms in ALGORITHMS.items():
            for algorithm in algorithms:
                if algorithm == "oracle":
                    continue
                base = ["solve", instance, "--variant", variant, *CONFERENCE_LIMITS[variant],
                        "--algorithm", algorithm]
                out.append(base)
                if algorithm in SEEDED:
                    out.append([*base, "--seed", "1"])
                if algorithm in DUMPS:
                    out.append([*base, DUMPS[algorithm], "{dump}"])
    return out


def sweep_grid() -> list[tuple[str, int, float | None]]:
    """The sweep's solves in order, as (solver name, b, lambda)."""
    grid: list[tuple[str, int, float | None]] = []
    for b in SWEEP_B:
        grid.append(("solve_hard", b, None))
        for lam in SWEEP_LAMBDA:
            grid.append(("solve_soft", b, lam))
            grid.append(("solve_soft_exact", b, lam))
    return grid


def sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def conference_fingerprints(directory: Path) -> list[dict]:
    """Per conference command its argv, exit code and stdout and dump fingerprints.

    The instances are generated into ``directory``, which also takes the dump.
    """
    from deskrisk import GeneratorSpec, generate, save_instance

    for seed in CONFERENCE_SEEDS:
        instance = generate(GeneratorSpec(2000, 500, 3, 7, seed=seed))
        save_instance(instance, directory / f"conference_{seed}.json")
    cases = []
    for argv in conference_commands():
        code, stdout, dumped = run(argv, directory, directory / "dump.json")
        fingerprints = {"stdout": sha256(stdout), "dump": sha256(dumped)}
        cases.append({"argv": argv, "exit": code, **fingerprints})
    return cases


def sweep_fingerprints() -> list[dict]:
    """Per sweep point its solver, limits and the fingerprint of its report."""
    import deskrisk
    from deskrisk.io import dumps, report_to_dict

    instance = deskrisk.generate(deskrisk.GeneratorSpec(400, 100, 3, 7, seed=42))
    points = []
    for name, b, lam in sweep_grid():
        args = (instance, b) if lam is None else (instance, b, lam)
        solution, report = getattr(deskrisk, name)(*args)
        text = dumps(report_to_dict(report, solution))
        points.append({"solver": name, "b": b, "lambda": lam, "report": sha256(text)})
    return points


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
        conference = conference_fingerprints(Path(tmp))
    sweep = sweep_fingerprints()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} commands to {GOLDEN.relative_to(ROOT)}")
    FINGERPRINTS.write_text(
        json.dumps({"conference": conference, "sweep": sweep}, indent=1) + "\n"
    )
    print(
        f"wrote {len(conference)} commands and {len(sweep)} sweep points"
        f" to {FINGERPRINTS.relative_to(ROOT)}"
    )


if __name__ == "__main__":
    main()
