"""The traced run: each workload's routes replayed in-process, layer by layer.

Spans are recorded here, in the benchmark, around calls into the public
functions of each deskrisk module; the program itself is not instrumented.
A span is (name, start, end, parent, run), kept in memory and written out
when the run ends.  A layer's self time is its span's duration minus the
durations of its child spans.

Each route is run three ways:

* the decomposed replay, traced: for example hard = ``load_instance`` ->
  ``validate`` -> ``build_hard_network`` -> ``min_cost_circulation`` ->
  evaluators -> ``report_to_dict``/``dumps``;
* the route's own top-level call, in one span ``route.<r>.call``: ``run_cli``
  for a CLI workload, the ``solve_*`` function for the sweep.  The call minus
  the layer spans of the decomposed replay is the route's glue, the work it
  does beyond its named layers;
* the decomposed replay again, untraced.  The traced total against this one
  is the tracing overhead, and its counts must equal the traced replay's.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from deskrisk import (
    Assignment,
    FractionalSolution,
    LpStatus,
    SolveReport,
    SolveStatus,
    author_loads,
    basic_objective,
    build_hard_lp,
    build_hard_network,
    build_soft_lp,
    build_soft_network,
    greedy_assign_basic,
    load_instance,
    min_cost_circulation,
    round_soft,
    soft_objective,
    solve_hard,
    solve_lp,
    solve_soft,
    solve_soft_exact,
    validate,
)
from deskrisk.cli import run_cli
from deskrisk.io import dumps, report_to_dict

from workloads import ROUTES, cli_args, limits

INTEGRALITY_TOL = 1e-9

# Per-layer span names; each gives the metric "<name>_s", its total self time.
# A layer that a workload never calls reads 0: that workload bypasses it.
LAYERS = (
    "io.load",
    "io.report",
    "instance.validate",
    "instance.evaluate",
    "greedy.solve",
    "flow.build_hard",
    "flow.circulation_hard",
    "flow.circulation_soft",
    "flow.circulation_infeasible",
    "lp.build_hard",
    "lp.solve_hard",
    "lp.solve_soft",
    "soft.build_lp",
    "soft.build_network",
    "soft.round",
)

COUNTS = (
    "instance.nnz",
    "flow.hard_edges",
    "flow.soft_edges",
    "lp.hard_rows",
    "lp.hard_nonzeros",
    "lp.soft_rows",
    "lp.soft_nonzeros",
    "lp.fractional_entries",
    "flow.infeasible_answers",
)


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    run: str = ""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, parent=self._open[-1] if self._open else None, run=self.run)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()


def span_cost(spans: int = 100_000) -> float:
    """Seconds the tracer adds per span, measured on empty spans."""
    tracer = Tracer()
    start = perf_counter()
    for _ in range(spans):
        with tracer.span("empty"):
            pass
    return (perf_counter() - start) / spans


class _NoSpan:
    def __enter__(self) -> Span:
        return Span("")

    def __exit__(self, *exc) -> bool:
        return False


class Untraced:
    """Stands in for a Tracer and records nothing."""

    def span(self, name: str) -> _NoSpan:
        return _NoSpan()


def _count_lp(counts: Counter, kind: str, lp) -> None:
    rows = [row for row, _ in lp.eq_rows] + [row for row, _, _ in lp.ineq_rows]
    counts[f"lp.{kind}_rows"] += len(rows)
    counts[f"lp.{kind}_nonzeros"] += sum(len(row) for row in rows)


def _fractional(values) -> int:
    return sum(1 for v in values if min(abs(v), abs(v - 1.0)) > INTEGRALITY_TOL)


def _decode(instance, pair_edges, flow) -> Assignment:
    nominee = [0] * instance.n
    for (i, j), edge in pair_edges.items():
        if flow[edge] == 1:
            nominee[i - 1] = j
    return Assignment(nominee=tuple(nominee))


def _hard_report(t, instance, assignment, solver: str, **extra) -> SolveReport:
    with t.span("instance.evaluate"):
        objective = basic_objective(instance, assignment)
        loads = author_loads(instance, assignment)
    return SolveReport(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        expected_rejections=objective,
        penalty=0.0,
        loads=tuple(loads),
        solver=solver,
        **extra,
    )


def _soft_report(t, instance, assignment, b, lam, solver: str, **extra) -> SolveReport:
    with t.span("instance.evaluate"):
        objective, expected, penalty = soft_objective(instance, assignment, b=b, lam=lam)
        loads = author_loads(instance, assignment)
    return SolveReport(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        expected_rejections=expected,
        penalty=penalty,
        loads=tuple(loads),
        solver=solver,
        **extra,
    )


def replay_basic(t, instance, b, lam, counts):
    with t.span("greedy.solve"):
        return greedy_assign_basic(instance)


def replay_hard(t, instance, b, lam, counts):
    with t.span("flow.build_hard"):
        network, pair_edges = build_hard_network(instance, b)
    counts["flow.hard_edges"] += len(network.edges)
    with t.span("flow.circulation_hard") as span:
        circulation = min_cost_circulation(network)
    if circulation is None:
        span.name = "flow.circulation_infeasible"
        counts["flow.infeasible_answers"] += 1
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-flow")
    assignment = _decode(instance, pair_edges, circulation.flow)
    return assignment, _hard_report(t, instance, assignment, "hard-flow")


def replay_hard_lp(t, instance, b, lam, counts):
    with t.span("lp.build_hard"):
        lp, pair_vars = build_hard_lp(instance, b)
    _count_lp(counts, "hard", lp)
    with t.span("lp.solve_hard"):
        solution = solve_lp(lp)
    if solution.status is LpStatus.INFEASIBLE:
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-lp")
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"hard LP: {solution.status.value} {solution.message}")
    values = solution.values
    fractional = _fractional(values[k] for k in pair_vars.values())
    counts["lp.fractional_entries"] += fractional
    if fractional:
        objective = sum(instance.p[j - 1] * values[k] for (_, j), k in pair_vars.items())
        report = SolveReport(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            expected_rejections=objective,
            penalty=0.0,
            solver="hard-lp",
            integral=False,
        )
        return None, report
    nominee = [0] * instance.n
    for (i, j), k in pair_vars.items():
        if values[k] > 0.5:
            nominee[i - 1] = j
    assignment = Assignment(nominee=tuple(nominee))
    return assignment, _hard_report(t, instance, assignment, "hard-lp", integral=True)


def replay_soft(t, instance, b, lam, counts):
    with t.span("soft.build_lp"):
        lp, pair_vars, _ = build_soft_lp(instance, b, lam)
    _count_lp(counts, "soft", lp)
    with t.span("lp.solve_soft"):
        solution = solve_lp(lp)
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"soft LP: {solution.status.value} {solution.message}")
    x = {pair: solution.values[k] for pair, k in pair_vars.items()}
    counts["lp.fractional_entries"] += _fractional(x.values())
    with t.span("soft.round"):
        assignment = round_soft(instance, FractionalSolution(x=x))
    bound = solution.objective
    report = _soft_report(t, instance, assignment, b, lam, "soft-lp-round", lp_bound=bound)
    return assignment, report


def replay_soft_exact(t, instance, b, lam, counts):
    with t.span("soft.build_network"):
        network, pair_edges = build_soft_network(instance, b, lam)
    counts["flow.soft_edges"] += len(network.edges)
    with t.span("flow.circulation_soft"):
        circulation = min_cost_circulation(network)
    if circulation is None:
        raise RuntimeError("the soft network is always feasible")
    assignment = _decode(instance, pair_edges, circulation.flow)
    return assignment, _soft_report(t, instance, assignment, b, lam, "soft-exact-flow")


REPLAYS = {
    "basic": replay_basic,
    "hard": replay_hard,
    "hard_lp": replay_hard_lp,
    "soft": replay_soft,
    "soft_exact": replay_soft_exact,
}

SOLVERS = {"hard": solve_hard, "soft": solve_soft, "soft_exact": solve_soft_exact}


# How a route was run: decomposed and traced, as its own top-level call, or
# decomposed without spans.
KINDS = ("replay", "call", "untraced")


@dataclass
class Replay:
    """One replayed operation and its report, for the gate."""

    kind: str
    route: str
    b: int | None
    lam: float | None
    report: dict


def _load(t, path: Path):
    with t.span("io.load"):
        instance = load_instance(path)
    with t.span("instance.validate"):
        violations = validate(instance)
    if violations:
        raise ValueError(f"generated instance is invalid: {violations[0]}")
    return instance


def _cli_route(t, route: str, path: Path, counts: Counter) -> dict:
    b, lam = limits(route)
    with t.span(f"route.{route}"):
        instance = _load(t, path)
        counts["instance.nnz"] = instance.nnz
        assignment, report = REPLAYS[route](t, instance, b, lam, counts)
        with t.span("io.report"):
            text = dumps(report_to_dict(report, assignment))
    return json.loads(text)


def _sweep_point(t, instance, route: str, b: int, lam: float | None, counts: Counter) -> dict:
    with t.span(f"route.{route}"):
        assignment, report = REPLAYS[route](t, instance, b, lam, counts)
    return report_to_dict(report, assignment)


@dataclass
class Trace:
    tracer: Tracer
    replays: list[Replay]
    traced_s: float  # decomposed replays with spans
    untraced_s: float  # the same replays without
    counts: Counter
    untraced_counts: Counter


def trace_workload(points: list[tuple[str, int | None, float | None]], path: Path, out_dir: Path, cli: bool) -> Trace:
    """Run each (route, b, lam) point the three ways listed in the module docstring.

    A CLI workload loads the instance file in every route, as each command
    does; the sweep loads it once and shares the ``Instance``.
    """
    result = Trace(Tracer(), [], 0.0, 0.0, Counter(), Counter())
    tracer, off = result.tracer, Untraced()
    if not cli:
        tracer.run = "load"
        instance = _load(tracer, path)
        result.counts["instance.nnz"] = result.untraced_counts["instance.nnz"] = instance.nnz
    for route, b, lam in points:
        label = f"{route} b={b} lam={lam}"

        def replay(t, counts):
            if cli:
                return _cli_route(t, route, path, counts)
            return _sweep_point(t, instance, route, b, lam, counts)

        tracer.run = f"{label} replay"
        start = perf_counter()
        report = replay(tracer, result.counts)
        result.traced_s += perf_counter() - start
        result.replays.append(Replay("replay", route, b, lam, report))

        tracer.run = f"{label} call"
        if cli:
            out = out_dir / f"trace-{route}.json"
            with tracer.span(f"route.{route}.call"):
                code = run_cli(cli_args(route, path) + ["-o", str(out)])
            if code != 0:
                raise RuntimeError(f"run_cli exited {code} on route {route}")
            report = json.loads(out.read_text())
        else:
            args = (instance, b) if lam is None else (instance, b, lam)
            with tracer.span(f"route.{route}.call"):
                assignment, solved = SOLVERS[route](*args)
            report = report_to_dict(solved, assignment)
        result.replays.append(Replay("call", route, b, lam, report))

        start = perf_counter()
        report = replay(off, result.untraced_counts)
        result.untraced_s += perf_counter() - start
        result.replays.append(Replay("untraced", route, b, lam, report))
    return result


def _child_time(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return child_time


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Self time per layer and each route's call and glue time, in seconds."""
    child_time = _child_time(spans)
    metrics = {f"{name}_s": 0.0 for name in LAYERS}
    for route in ROUTES:
        metrics[f"route.{route}.call_s"] = 0.0
        metrics[f"route.{route}.glue_s"] = 0.0
    for index, span in enumerate(spans):
        duration = span.end - span.start
        if span.name in LAYERS:
            metrics[f"{span.name}_s"] += duration - child_time[index]
            parent = span.parent
            if parent is not None and spans[parent].name.startswith("route."):
                metrics[f"{spans[parent].name}.glue_s"] -= duration
        elif span.name.endswith(".call"):
            metrics[f"{span.name}_s"] += duration
            metrics[f"{span.name[: -len('.call')]}.glue_s"] += duration
    return metrics


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as written to the result file, times relative to the first span."""
    origin = spans[0].start if spans else 0.0
    child_time = _child_time(spans)
    return [
        {
            "name": span.name,
            "start": span.start - origin,
            "end": span.end - origin,
            "self": span.end - span.start - child_time[index],
            "parent": span.parent,
            "run": span.run,
        }
        for index, span in enumerate(spans)
    ]
