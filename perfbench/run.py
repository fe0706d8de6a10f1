"""deskrisk benchmark: CLI route wall times, an in-process sweep, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload conference --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # conference, scale and sweep in turn

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` replays it in-process with spans around each layer
and reports the per-layer metrics (see tracing.py).  Either way every report
goes through the correctness gate (check.py) outside the timed regions, a
human-readable summary is printed, the full record (environment, noise
probes, samples, failures, spans) is written to ``perfbench/out/``, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation passed the gate.

Children run one at a time, with no other work in flight: the host this was
tuned on has 2 cores, and CPU time tracked wall time for every route, so the
spread between runs is host contention, not the program.  HiGHS stays at its
defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

from check import PINNED, Gate, check_pass
from workloads import (
    SWEEP_B,
    WORKLOADS,
    Inputs,
    Workload,
    cli_args,
    instance_seeds,
    limits,
    make_inputs,
    sweep_grid,
    write_instance,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUPS = 3  # set-ups before the first round; one more follows every round
PROBE_LOOP = 2_000_000  # iterations of the fixed pure-Python noise probe
CLI_PROBES = 3  # spawns per cli.* probe in the traced run
RUN_LIMIT_S = 170.0  # children still running this long after start are killed

# No console script is installed in a source checkout, and
# ``python -m deskrisk.cli`` exits 0 without doing anything because the module
# has no ``__main__`` guard.  So each command is ``python -c`` calling
# ``run_cli`` with ``PYTHONPATH=src``, which keeps working once the guard exists.
CLI_CALL = "import sys; from deskrisk.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"
IMPORT_CALL = "from time import perf_counter as now; t = now(); import deskrisk; print(now() - t)"


class Run:
    """Outcome of one workload run: operations, failures, metrics and the record."""

    def __init__(self, workload: Workload, seed: int, trace: int) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed: set[int] = set()  # ids of failed operations
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}  # printed and recorded, not gated
        self.record: dict = {"probe_s": [], "loadavg": [os.getloadavg()]}
        self._start = perf_counter()

    def operation(self) -> int:
        self.attempted += 1
        return self.attempted - 1

    def fail(self, op: int, problem: str) -> None:
        self.failed.add(op)
        self.problems.append(problem)

    def probe(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        self.record["probe_s"].append(perf_counter() - start)

    def time_left(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self._start)


def environment() -> dict:
    def package(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": package("numpy"),
        "scipy": package("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def spawn(argv: list[str], time_limit: float) -> tuple[float, int, float]:
    """Run ``python <argv>`` to completion; returns (wall s, exit code, peak RSS MB).

    ``os.wait4`` blocks until the child exits, so the end time is exact and
    the child's own peak RSS comes back with it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(max(time_limit, 1.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def warm_up(run: Run) -> None:
    """Import the program once, untimed, so bytecode and page caches are warm."""
    _, code, _ = spawn(["-c", "import deskrisk.cli"], run.time_left())
    if code != 0:
        raise SystemExit(f"error: importing deskrisk from {SRC} failed (exit {code})")


def import_s(run: Run) -> float:
    """Seconds ``import deskrisk`` takes in a fresh interpreter, timed inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CALL],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=max(run.time_left(), 1.0),
        check=True,
    )
    return float(done.stdout)


class SetUp:
    """The workload's set-up: generate and write each instance; the sweep also imports and loads.

    A run calls it ``SETUPS`` times before its first round and once after
    every round, so the median spans the run as the other metrics do.  The
    sweep's import is timed in a fresh interpreter each time, because a
    process imports only once.
    """

    def __init__(self, run: Run, load=None) -> None:
        self.run = run
        self.seeds = instance_seeds(run.workload, run.seed)
        self.paths = [OUT / f"{run.workload.name}-{seed}.json" for seed in self.seeds]
        self.load = load
        self.times: list[float] = []
        self.imports: list[float] = []
        self.inputs: list[Inputs] = []
        self.loaded: list = []

    def __call__(self) -> None:
        if self.load:
            self.imports.append(import_s(self.run))
        start = perf_counter()
        inputs = [make_inputs(self.run.workload, seed) for seed in self.seeds]
        for one, path in zip(inputs, self.paths):
            write_instance(one, path)
        loaded = [self.load(path) for path in self.paths] if self.load else []
        self.times.append(perf_counter() - start)
        if not self.inputs:
            self.inputs, self.loaded = inputs, loaded

    def median_s(self) -> float:
        return statistics.median(self.times) + (statistics.median(self.imports) if self.imports else 0.0)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def timed_cli(run: Run, seconds: float) -> None:
    """Spawn one ``deskrisk solve`` per route and instance, in rounds, until ``seconds`` run out.

    The first round runs every route.  Later rounds repeat a route only when
    its last time still fits before the deadline, so short routes get
    several samples and each route reports its median.
    """
    workload = run.workload
    set_up = SetUp(run)
    for _ in range(SETUPS):
        set_up()
    gates = [Gate(inputs) for inputs in set_up.inputs]
    warm_up(run)
    report_path = OUT / f"{workload.name}-report.json"
    walls: dict[str, list[float]] = {route: [] for route in workload.routes}
    digests: dict[tuple[int, str], bytes] = {}
    rounds: list[dict] = []
    peak_rss = 0.0
    deadline = perf_counter() + seconds
    while True:
        run.probe()
        timed: dict[str, float] = {}
        for seed, path, gate in zip(set_up.seeds, set_up.paths, gates):
            entries, ops = [], []
            for route in workload.routes:
                if walls[route] and perf_counter() + walls[route][-1] > deadline:
                    continue
                op = run.operation()
                report_path.unlink(missing_ok=True)
                argv = ["-c", CLI_CALL, *cli_args(route, path), "-o", str(report_path)]
                wall, code, rss = spawn(argv, run.time_left())
                walls[route].append(wall)
                timed[f"{seed} {route}"] = wall
                peak_rss = max(peak_rss, rss)
                if code != 0:
                    run.fail(op, f"seed {seed} {route}: exit code {code}, expected 0")
                    continue
                data = report_path.read_bytes()
                digest = hashlib.sha256(data).digest()
                if digests.setdefault((seed, route), digest) != digest:
                    run.fail(op, f"seed {seed} {route}: report differs from the first round's")
                entries.append((route, *limits(route), json.loads(data)))
                ops.append(op)
            for index, problem in check_pass(gate, entries, PINNED.get((workload.name, seed))):
                run.fail(ops[index], f"seed {seed} {problem}")
        run.probe()
        if not timed:
            break
        rounds.append(timed)
        set_up()
    medians = {route: statistics.median(walls[route]) for route in workload.routes}
    run.metrics["setup_s"] = (set_up.median_s(), "s")
    run.metrics["solves_per_s"] = (len(medians) / sum(medians.values()), "1/s")
    run.metrics["solve_geomean_s"] = (geomean(list(medians.values())), "s")
    run.metrics["peak_rss_mb"] = (peak_rss, "MB")
    for route, value in medians.items():
        run.extra[f"{route}_s"] = (value, "s")
        run.extra[f"{route}_samples"] = (len(walls[route]), "count")
    run.record.update(instance_seeds=set_up.seeds, setup_s=set_up.times, rounds=rounds)


def timed_sweep(run: Run, seconds: float) -> None:
    """Solve the sweep grid in-process, pass after pass, until ``seconds`` run out."""
    warm_up(run)
    deskrisk = importlib.import_module("deskrisk")
    set_up = SetUp(run, load=deskrisk.load_instance)
    for _ in range(SETUPS):
        set_up()
    gate = Gate(set_up.inputs[0])
    instance = set_up.loaded[0]
    solvers = {"hard": deskrisk.solve_hard, "soft": deskrisk.solve_soft, "soft_exact": deskrisk.solve_soft_exact}
    grid = sweep_grid()
    first: list[tuple] = []
    point_times: list[list[float]] = [[] for _ in grid]
    passes: list[float] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() + passes[-1] <= deadline:
        run.probe()
        outcomes = []
        pass_start = perf_counter()
        for index, (route, b, lam) in enumerate(grid):
            args = (instance, b) if lam is None else (instance, b, lam)
            start = perf_counter()
            try:
                outcome = solvers[route](*args)
            except Exception as exc:  # a failed solve counts against failed_frac
                outcome = exc
            point_times[index].append(perf_counter() - start)
            outcomes.append(outcome)
        passes.append(perf_counter() - pass_start)
        run.probe()
        check_sweep_pass(run, gate, grid, outcomes, first, deskrisk.io.report_to_dict)
        set_up()
    # Per-solve medians, so a burst of host contention in one pass moves only
    # the solves it hit.
    medians = [statistics.median(times) for times in point_times]
    run.metrics["setup_s"] = (set_up.median_s(), "s")
    run.metrics["solves_per_s"] = (len(grid) / sum(medians), "1/s")
    run.metrics["solve_geomean_s"] = (geomean(medians), "s")
    run.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    run.extra["sweep_solves_per_s"] = run.metrics["solves_per_s"]
    run.extra["import_s"] = (statistics.median(set_up.imports), "s")
    run.extra["passes"] = (len(passes), "count")
    infeasible = [b for b in SWEEP_B if not gate.hard_feasible(b)]
    run.record.update(
        setup_import_s=set_up.imports,
        setup_load_s=set_up.times,
        passes_s=passes,
        infeasible_b=infeasible,
    )


def check_sweep_pass(run, gate, grid, outcomes, first, report_to_dict) -> None:
    """Gate one pass of the sweep; ``first`` holds the first pass's reports."""
    entries, ops = [], []
    for (route, b, lam), outcome in zip(grid, outcomes):
        op = run.operation()
        if isinstance(outcome, Exception):
            run.fail(op, f"{route} b={b} lam={lam}: {type(outcome).__name__}: {outcome}")
            continue
        assignment, report = outcome
        entries.append((route, b, lam, report_to_dict(report, assignment)))
        ops.append(op)
    for index, problem in check_pass(gate, entries):
        run.fail(ops[index], problem)
    if not first:
        first.extend(entries)
    elif entries != first:
        for op, entry, earlier in zip(ops, entries, first):
            if entry != earlier:
                run.fail(op, f"{entry[0]} b={entry[1]} lam={entry[2]}: result differs from the first pass's")


def traced(run: Run) -> None:
    """Replay the workload in-process with spans; report the per-layer metrics.

    A workload of several instances is traced on its first one.
    """
    import tracing

    workload = run.workload
    set_up = SetUp(run)
    set_up()
    seed, path, inputs = set_up.seeds[0], set_up.paths[0], set_up.inputs[0]
    gate = Gate(inputs)
    warm_up(run)
    probes = {}
    for name, code in (("interp", "pass"), ("import", "import deskrisk"), ("import_scipy", "import scipy.optimize")):
        walls = []
        for _ in range(CLI_PROBES):
            op = run.operation()
            wall, exit_code, _ = spawn(["-c", code], run.time_left())
            if exit_code != 0:
                run.fail(op, f"cli probe {code!r}: exit code {exit_code}")
            walls.append(wall)
        probes[name] = statistics.median(walls)
    run.metrics["cli.interp_s"] = (probes["interp"], "s")
    run.metrics["cli.import_s"] = (probes["import"] - probes["interp"], "s")
    run.metrics["cli.import_scipy_s"] = (probes["import_scipy"] - probes["interp"], "s")

    run.probe()
    if workload.routes:
        points = [(route, *limits(route)) for route in workload.routes]
    else:
        points = sweep_grid()
    result = tracing.trace_workload(points, path, OUT, cli=bool(workload.routes))
    run.probe()
    traced_s, untraced_s, counts = result.traced_s, result.untraced_s, result.counts

    for kind in tracing.KINDS:
        mine = [replay for replay in result.replays if replay.kind == kind]
        ops = [run.operation() for _ in mine]
        entries = [(replay.route, replay.b, replay.lam, replay.report) for replay in mine]
        for index, problem in check_pass(gate, entries, PINNED.get((workload.name, seed))):
            run.fail(ops[index], f"{kind}: {problem}")
    op = run.operation()
    if counts != result.untraced_counts:
        run.fail(op, f"counts drift between traced and untraced replays: {dict(counts)} != {dict(result.untraced_counts)}")
    if counts["instance.nnz"] != inputs.nnz:
        run.fail(op, f"instance.nnz {counts['instance.nnz']} does not match the generated {inputs.nnz}")

    for name, value in tracing.layer_metrics(result.tracer.spans).items():
        run.metrics[name] = (value, "s")
    run.metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name in tracing.COUNTS:
        run.metrics[name] = (counts[name], "count")
    run.extra["trace.traced_s"] = (traced_s, "s")
    run.extra["trace.untraced_s"] = (untraced_s, "s")
    run.extra["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    # The totals above differ by solver noise as much as by tracing; this is
    # the tracer's own cost, spans times the measured cost of an empty span.
    spans = result.tracer.spans
    run.extra["trace.spans"] = (len(spans), "count")
    run.extra["trace.span_cost_s"] = (len(spans) * tracing.span_cost(), "s")
    run.record.update(instance_seed=seed, cli_probes_s=probes, spans=tracing.span_records(spans))


def run_workload(workload: Workload, seed: int, seconds: float, trace: int) -> Run:
    run = Run(workload, seed, trace)
    OUT.mkdir(exist_ok=True)
    if trace:
        traced(run)
    elif workload.routes:
        timed_cli(run, seconds)
    else:
        timed_sweep(run, seconds)
    run.record["loadavg"].append(os.getloadavg())
    return run


def summarize(run: Run, seconds: float) -> dict:
    failed = len(run.failed)
    summary = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }
    workload = run.workload
    record = {
        "workload": workload.name,
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "seed": run.seed,
        "seconds": seconds,
        "trace": run.trace,
        "environment": environment(),
        "summary": summary,
        "extra": {name: {"value": value, "unit": unit} for name, (value, unit) in run.extra.items()},
        "failed_frac": failed / run.attempted,
        "problems": run.problems,
        **run.record,
    }
    (OUT / f"BENCH_{workload.name}_seed{run.seed}_trace{run.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(f"# {workload.name} seed={run.seed} trace={run.trace}: {workload.why}")
    for name, (value, unit) in {**run.metrics, **run.extra}.items():
        print(f"{workload.name:<10} {name:<32} {value:>14.6g} {unit}")
    print(f"{workload.name:<10} {'failed_frac':<32} {failed / run.attempted:>14.6g} ratio")
    for problem in run.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "deskrisk" / "__init__.py").is_file():
        print(f"error: no deskrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        summary = summarize(run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace), args.seconds)
        correct = correct and summary["correct"]
        print(json.dumps(summary), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
