"""Correctness gate: every report is re-checked by the benchmark's own code.

Nothing here calls the library.  Each check is O(nnz) over the generated
rows and probabilities, and runs outside every timed region.  Objectives
are compared with a relative tolerance, because the flow and LP routes
agree only to the last bits (797.42470351455538 against ...545).
"""

from __future__ import annotations

from collections import deque

from workloads import ROUTES, Inputs

REL_TOL = 1e-9

# Optimal objectives at conference size, seed 42, b = 5, lambda = 0.3, as
# recorded in the ROADMAP baseline table; keyed by (workload, seed).
PINNED = {
    ("conference", 42): {"hard": 797.4247035, "hard_lp": 797.4247035, "soft_exact": 607.3657239},
}

# (lhs, rhs, relation) over the objectives of one (b, lambda) group; checked
# when both sides ran.  "lp_bound" is the soft LP bound of the lp-round route.
RELATIONS = (
    ("hard", "hard_lp", "=="),
    ("basic", "lp_bound", "<="),
    ("lp_bound", "soft_exact", "<="),
    ("lp_bound", "soft", "<="),
    ("lp_bound", "hard", "<="),
    ("lp_bound", "hard_lp", "<="),
    ("basic", "soft_exact", "<="),
    ("soft_exact", "soft", "<="),
    ("soft_exact", "hard", "<="),
)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def at_most(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(abs(a), abs(b))


class Gate:
    def __init__(self, inputs: Inputs) -> None:
        self.rows = inputs.rows
        self.p = inputs.p
        self.authors = [frozenset(row) for row in inputs.rows]
        # The basic optimum: each paper's least risky author, summed in paper order.
        self.basic_optimum = 0.0
        for row in inputs.rows:
            self.basic_optimum += min(self.p[j - 1] for j in row)
        self._feasible: dict[int, bool] = {}

    def check(self, report: dict, variant: str, b: int | None, lam: float | None) -> list[str]:
        """Problems with one Optimal report of ``variant`` (empty = correct)."""
        if report.get("status") != "Optimal":
            return [f"status {report.get('status')!r}, expected Optimal"]
        nominee = report.get("nominee")
        if nominee is None:
            # A fractional hard LP optimum carries no nominee; its objective
            # is compared with the flow route's by the cross checks.
            return [] if report.get("integral") is False else ["report has no nominee"]
        if len(nominee) != len(self.rows):
            return [f"{len(nominee)} nominees for {len(self.rows)} papers"]
        loads = [0] * len(self.p)
        expected = 0.0
        for i, j in enumerate(nominee):
            if j not in self.authors[i]:
                return [f"paper {i + 1} nominates {j}, who is not one of its authors"]
            loads[j - 1] += 1
            expected += self.p[j - 1]
        problems = []
        penalty = 0.0
        if variant == "hard" and max(loads) > b:
            problems.append(f"hard load {max(loads)} exceeds b = {b}")
        if variant == "soft":
            penalty = lam * sum(load - b for load in loads if load > b)
        if not close(report["objective"], expected + penalty):
            problems.append(f"objective {report['objective']!r} != {expected + penalty!r}")
        if not close(report["expected_rejections"], expected):
            problems.append(f"expected_rejections {report['expected_rejections']!r} != {expected!r}")
        if abs(report["penalty"] - penalty) > REL_TOL * (expected + penalty):
            problems.append(f"penalty {report['penalty']!r} != {penalty!r}")
        if report.get("loads") is not None and list(report["loads"]) != loads:
            problems.append("reported loads differ from the nominee counts")
        if variant == "basic" and not close(expected, self.basic_optimum):
            problems.append(f"basic objective {expected!r} is not the optimum {self.basic_optimum!r}")
        if "lp_bound" in report and not at_most(report["lp_bound"], report["objective"]):
            problems.append(f"lp_bound {report['lp_bound']!r} exceeds the objective")
        return problems

    def hard_feasible(self, b: int) -> bool:
        """Whether every paper can nominate an author with each author at most b times."""
        if b not in self._feasible:
            self._feasible[b] = self._b_matching(b)
        return self._feasible[b]

    def _b_matching(self, b: int) -> bool:
        # Augmenting paths over author slots.
        if b * len(self.p) < len(self.rows):
            return False
        holder: list[list[int]] = [[] for _ in self.p]  # papers assigned to each author
        for start in range(len(self.rows)):
            parent = {start: None}  # paper -> (previous paper, author it was moved to)
            queue = deque([start])
            found = None
            while queue and found is None:
                i = queue.popleft()
                for j in self.rows[i]:
                    if len(holder[j - 1]) < b:
                        found = (i, j)
                        break
                    for k in holder[j - 1]:
                        if k not in parent:
                            parent[k] = (i, j)
                            queue.append(k)
            if found is None:
                return False
            i, j = found
            while True:  # move each paper on the path to the author it reached
                holder[j - 1].append(i)
                if parent[i] is None:
                    break
                prev, via = parent[i]
                holder[via - 1].remove(i)
                i, j = prev, via
        return True


def check_pass(gate: Gate, entries: list, pinned: dict | None = None) -> list[tuple[int, str]]:
    """Check one pass of reports; returns (entry index, problem) pairs.

    ``entries`` holds (route, b, lam, report) tuples.  Each report is checked
    on its own, then the routes are checked against each other within every
    (b, lam) group: hard flow = hard LP, lp_bound <= soft exact <= soft
    lp-round, basic <= soft exact <= hard.  A route run without lambda joins
    every group of its b, and the basic route joins every group.
    """
    problems = []
    for index, (route, b, lam, report) in enumerate(entries):
        variant = ROUTES[route][0]
        if variant == "hard" and not gate.hard_feasible(b):
            if report.get("status") != "Infeasible":
                problems.append((index, f"{route} b={b}: status {report.get('status')!r}, but no assignment fits b"))
            continue
        problems += [(index, f"{route} b={b} lam={lam}: {p}") for p in gate.check(report, variant, b, lam)]

    groups = {(b, lam) for _, b, lam, _ in entries if lam is not None}
    groups = groups or {(b, None) for _, b, _, _ in entries} or {(None, None)}
    for group_b, group_lam in sorted(groups, key=repr):
        values = {"basic": gate.basic_optimum}
        owner = {}
        for index, (route, b, lam, report) in enumerate(entries):
            if b not in (group_b, None) or lam not in (group_lam, None):
                continue
            if report.get("status") != "Optimal":
                continue
            values[route] = report["objective"]
            owner[route] = index
            if "lp_bound" in report:
                values["lp_bound"] = report["lp_bound"]
                owner["lp_bound"] = index
        failures = [(f"{lhs} {relation} {rhs}", (lhs, rhs)) for lhs, rhs, relation in RELATIONS
                    if lhs in values and rhs in values
                    and not (close if relation == "==" else at_most)(values[lhs], values[rhs])]
        failures += [(f"{route} == recorded {value}", (route,)) for route, value in (pinned or {}).items()
                     if route in values and not close(values[route], value)]
        for relation, sides in failures:
            shown = ", ".join(f"{side} = {values[side]!r}" for side in sides if side in values)
            for side in sides:
                if side in owner:
                    problems.append((owner[side], f"b={group_b} lam={group_lam}: {relation} fails ({shown})"))
    return problems
