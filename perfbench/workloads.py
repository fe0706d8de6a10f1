"""Workloads of the deskrisk benchmark and the inputs they are made from.

Every input comes from the workload's sizes and the seed alone.  The
benchmark carries its own copy of the instance generator (the same draws,
in the same order, as ``deskrisk.generate``), so a change to the library
cannot change what the benchmark feeds it.  At seed 42 the conference
instance has nnz 10,053, the numbers the ROADMAP baseline table uses.

The program only ever sees the instance file (CLI workloads) or the
``Instance`` loaded from it (the in-process sweep).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

B = 5
LAM = 0.3
AUTHORS_MIN, AUTHORS_MAX = 3, 7

# Route name -> (variant, algorithm) of one ``deskrisk solve`` command.
ROUTES = {
    "basic": ("basic", "greedy"),
    "hard": ("hard", "flow"),
    "hard_lp": ("hard", "lp"),
    "soft": ("soft", "lp-round"),
    "soft_exact": ("soft", "exact-flow"),
}

# The sweep grid: every b gets solve_hard, every (b, lam) gets solve_soft and
# solve_soft_exact, 6 + 2 * 18 = 42 solves.  With m = 100 and n = 400,
# b = 2 and 3 give b*m < n, so the Infeasible path runs; b = 4 gives
# b*m = n exactly, a tight cap with long augmenting paths.
SWEEP_B = (2, 3, 4, 5, 6, 8)
SWEEP_LAMBDA = (0.05, 0.2, 0.8)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    routes: tuple[str, ...]  # CLI routes; empty for the in-process sweep
    why: str
    stresses: str
    bypasses: str
    instances: int = 1  # instances per run; every route runs on each


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="conference",
            n=2000,
            m=500,
            routes=("basic", "hard_lp", "soft", "hard", "soft_exact"),
            why="the paper's target size, one deskrisk solve process per exact route",
            stresses=(
                "flow: min_cost_circulation is ~90% of the hard and soft_exact commands; "
                "cli: interpreter start and import are ~85% of the basic command"
            ),
            bypasses="lp: HiGHS is a minority (0.3-0.4 s) of the hard_lp and soft commands",
        ),
        Workload(
            name="scale",
            n=6000,
            m=1500,
            routes=("basic", "hard_lp", "soft"),
            why="three instances 3x the conference size per run, LP routes only",
            stresses=(
                "lp: solve_lp (HiGHS plus certification) is ~70% of the hard_lp and ~85% of "
                "the soft command; io, instance and greedy are ~15% of the basic command"
            ),
            bypasses="flow: no flow route runs, so a flow change should move nothing here",
            # HiGHS time varies by instance far more than the flow does: one
            # 10000 x 2500 instance took 10 s on one seed and 23 s on another.
            # Three smaller instances per run, each route's median taken
            # across them, keep one hard instance from setting the run.
            instances=3,
        ),
        Workload(
            name="sweep",
            n=400,
            m=100,
            routes=(),
            why="42 in-process solves on one shared instance over a (b, lambda) grid",
            stresses=(
                "per-call fixed costs (repeated validation, network and LP rebuilds), "
                "the Infeasible answer path at b = 2 and 3, a tight cap at b = 4"
            ),
            bypasses="cli: no process start or import; io: one load, no reports written",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    rows: list[list[int]]  # rows[i - 1] lists paper i's authors, ascending
    p: list[float]

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self.rows)


def instance_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of a run's instances: the run's seed itself, or seed*10 + k for several."""
    if workload.instances == 1:
        return [seed]
    return [seed * 10 + k for k in range(workload.instances)]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Draw the workload's instance; the same seed always gives the same instance."""
    rng = random.Random(seed)
    rows = []
    for _ in range(workload.n):
        size = rng.randint(AUTHORS_MIN, AUTHORS_MAX)
        rows.append(sorted(rng.sample(range(1, workload.m + 1), size)))
    p = [rng.uniform(0.0, 1.0) for _ in range(workload.m)]
    return Inputs(rows=rows, p=p)


def write_instance(inputs: Inputs, path: Path) -> None:
    """Write instance JSON as ``deskrisk gen`` does; b and lambda come from flags."""
    obj = {
        "format": 1,
        "n": len(inputs.rows),
        "m": len(inputs.p),
        "papers": inputs.rows,
        "p": inputs.p,
        "b": None,
        "lambda": None,
    }
    path.write_text(json.dumps(obj, indent=2) + "\n")


def limits(route: str) -> tuple[int | None, float | None]:
    """(b, lambda) of a CLI route: basic takes neither, hard only b."""
    variant = ROUTES[route][0]
    return (None if variant == "basic" else B), (LAM if variant == "soft" else None)


def cli_args(route: str, path: Path) -> list[str]:
    """Arguments of the ``deskrisk solve`` command for one route."""
    variant, algorithm = ROUTES[route]
    b, lam = limits(route)
    args = ["solve", str(path), "--variant", variant, "--algorithm", algorithm]
    if b is not None:
        args += ["--b", str(b)]
    if lam is not None:
        args += ["--lambda", str(lam)]
    return args


def sweep_grid() -> list[tuple[str, int, float | None]]:
    """The sweep's solves in order, as (route, b, lambda)."""
    grid: list[tuple[str, int, float | None]] = []
    for b in SWEEP_B:
        grid.append(("hard", b, None))
        for lam in SWEEP_LAMBDA:
            grid.append(("soft", b, lam))
            grid.append(("soft_exact", b, lam))
    return grid
