"""Bounded-variable linear programs shared by the relaxation solvers.

The solve itself is delegated to HiGHS through :func:`scipy.optimize.linprog`;
what this module owns is the sparse problem description, the translation to
solver form, and an independent certification pass: every reported optimum is
re-checked for primal feasibility (1e-9) and for a duality gap under 1e-7
computed from the returned marginals.  A point that fails certification comes
back with an Error status rather than being trusted; so does one whose
residual or gap is NaN.

numpy and scipy are imported inside :func:`solve_lp` and its helpers, not at
module level.  Building a :class:`LinearProgram` needs only the standard
library, and importing scipy costs most of a second, so the greedy, flow,
oracle and validate paths (and ``import deskrisk``) never pay for it; the LP
routes pay once, at their first solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Literal

from .instance import Instance, require_valid, resolve_limits

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-7

Sense = Literal["<=", ">="]
SparseRow = list[tuple[int, float]]


class LpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ERROR = "Error"


@dataclass
class LinearProgram:
    """Minimization problem over box-bounded variables with sparse rows.

    ``upper[k] is None`` means variable ``k`` is unbounded above.  Rows hold
    ``(variable, coefficient)`` pairs; senses are ``"<="`` or ``">="``.
    """

    num_vars: int
    objective: list[float]
    lower: list[float]
    upper: list[float | None]
    eq_rows: list[tuple[SparseRow, float]] = field(default_factory=list)
    ineq_rows: list[tuple[SparseRow, float, Sense]] = field(default_factory=list)

    @classmethod
    def minimize(cls, objective: list[float]) -> "LinearProgram":
        """Fresh program with the default box ``[0, unbounded)`` per variable."""
        k = len(objective)
        return cls(
            num_vars=k,
            objective=list(objective),
            lower=[0.0] * k,
            upper=[None] * k,
        )

    def add_eq(self, row: SparseRow, rhs: float) -> None:
        self.eq_rows.append((row, rhs))

    def add_ineq(self, row: SparseRow, rhs: float, sense: Sense = "<=") -> None:
        self.ineq_rows.append((row, rhs, sense))

    def check(self) -> None:
        if self.num_vars < 1:
            raise ValueError("program needs at least one variable")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        if len(self.lower) != self.num_vars or len(self.upper) != self.num_vars:
            raise ValueError("bound vectors do not match num_vars")
        for k, (c, lo, up) in enumerate(zip(self.objective, self.lower, self.upper)):
            if not math.isfinite(c):
                raise ValueError(f"objective coefficient of variable {k} must be finite, got {c}")
            if not math.isfinite(lo):
                raise ValueError(f"lower bound of variable {k} must be finite, got {lo}")
            # Written so that a NaN upper bound fails the test too.
            if up is not None and not lo <= up:
                raise ValueError(
                    f"bounds of variable {k} require lower <= upper, got [{lo}, {up}]"
                )
        for row, _ in self.eq_rows:
            self._check_row(row)
        for row, _, sense in self.ineq_rows:
            self._check_row(row)
            if sense not in ("<=", ">="):
                raise ValueError(f"unknown sense {sense!r}")

    def _check_row(self, row: SparseRow) -> None:
        for k, _ in row:
            if not 0 <= k < self.num_vars:
                raise ValueError(f"row references variable {k}, have {self.num_vars}")


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    values: tuple[float, ...] | None = None
    objective: float | None = None
    duality_gap: float | None = None
    message: str = ""


def _to_csr(rows: list[SparseRow], num_vars: int) -> csr_matrix:
    from scipy.sparse import csr_matrix

    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for row in rows:
        for k, coeff in row:
            indices.append(k)
            data.append(coeff)
        indptr.append(len(data))
    return csr_matrix((data, indices, indptr), shape=(len(rows), num_vars))


def solve_lp(
    lp: LinearProgram,
    feasibility_tol: float = FEASIBILITY_TOL,
    optimality_tol: float = OPTIMALITY_TOL,
) -> LpSolution:
    """Solve and certify a linear program.

    Statuses: Optimal (certified), Infeasible, Unbounded, or Error when the
    backend fails numerically or the certification check rejects its answer.
    """
    lp.check()
    import numpy as np
    from scipy.optimize import linprog

    c = np.asarray(lp.objective, dtype=float)
    bounds = list(zip(lp.lower, lp.upper))

    a_eq = b_eq = None
    if lp.eq_rows:
        a_eq = _to_csr([row for row, _ in lp.eq_rows], lp.num_vars)
        b_eq = np.asarray([rhs for _, rhs in lp.eq_rows], dtype=float)
    a_ub = b_ub = None
    if lp.ineq_rows:
        signed = [
            (row if sense == "<=" else [(k, -coeff) for k, coeff in row])
            for row, _, sense in lp.ineq_rows
        ]
        a_ub = _to_csr(signed, lp.num_vars)
        b_ub = np.asarray(
            [rhs if sense == "<=" else -rhs for _, rhs, sense in lp.ineq_rows], dtype=float
        )

    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options={
            "primal_feasibility_tolerance": min(feasibility_tol, 1e-9),
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    if result.status == 2:
        return LpSolution(status=LpStatus.INFEASIBLE, message=result.message)
    if result.status == 3:
        return LpSolution(status=LpStatus.UNBOUNDED, message=result.message)
    if result.status != 0:
        return LpSolution(status=LpStatus.ERROR, message=result.message)

    x = np.asarray(result.x, dtype=float)
    lower = np.asarray(lp.lower, dtype=float)
    upper = np.array([math.inf if up is None else up for up in lp.upper], dtype=float)
    problem = _residuals(x, lower, upper, a_eq, b_eq, a_ub, b_ub, feasibility_tol)
    if problem:
        return LpSolution(status=LpStatus.ERROR, message=problem)
    gap = _duality_gap(result, lower, upper, b_eq, b_ub)
    # Every certificate test is "passes only if <= tol", so a NaN fails it.
    if not gap <= optimality_tol:
        return LpSolution(
            status=LpStatus.ERROR,
            message=f"duality gap {gap:.3e} exceeds {optimality_tol:.1e}",
        )
    return LpSolution(
        status=LpStatus.OPTIMAL,
        values=tuple(x.tolist()),
        objective=float(result.fun),
        duality_gap=gap,
    )


def _residuals(x, lower, upper, a_eq, b_eq, a_ub, b_ub, tol) -> str:
    import numpy as np

    if a_eq is not None:
        worst = float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0))
        if not worst <= tol:
            return f"equality residual {worst:.3e} exceeds {tol:.1e}"
    if a_ub is not None:
        worst = float(np.max(a_ub @ x - b_ub, initial=0.0))
        if not worst <= tol:
            return f"inequality violation {worst:.3e} exceeds {tol:.1e}"
    # An unbounded-above variable has upper = inf, which every finite x meets.
    outside = ~((x >= lower - tol) & (x <= upper + tol))
    if outside.any():
        k = int(np.flatnonzero(outside)[0])
        return f"variable {k} value {float(x[k])!r} violates bounds [{lower[k]}, {upper[k]}]"
    return ""


def _duality_gap(result, lower, upper, b_eq, b_ub) -> float:
    import numpy as np

    # A variable without an upper bound (None, stored as inf) adds no term.
    bounded = np.isfinite(upper)
    terms = [
        (result.eqlin.marginals, b_eq),
        (result.ineqlin.marginals, b_ub),
        (result.lower.marginals, lower),
        (np.asarray(result.upper.marginals)[bounded], upper[bounded]),
    ]
    # Multiply-and-sum rather than ``@``: a threaded BLAS dot over ~30k
    # entries took 8 ms against 0.04 ms on a 2-vCPU machine.
    dual = sum(float(np.sum(np.asarray(y) * rhs)) for y, rhs in terms if rhs is not None)
    return abs(float(result.fun) - dual)


def _assignment_lp(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> tuple[LinearProgram, dict[tuple[int, int], int], dict[int, int]]:
    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=soft)
    pair_vars = {pair: k for k, pair in enumerate(instance.authorship)}
    y_vars = {} if lam is None else {j: instance.nnz + j - 1 for j in range(1, instance.m + 1)}
    lp = LinearProgram.minimize(
        [instance.p[j - 1] for _, j in instance.authorship] + [lam] * len(y_vars)
    )
    lp.upper[: instance.nnz] = [1.0] * instance.nnz
    by_author: list[SparseRow] = [[] for _ in range(instance.m)]
    for i, row in enumerate(instance.rows, start=1):
        lp.add_eq([(pair_vars[(i, j)], 1.0) for j in row], 1.0)
        for j in row:
            by_author[j - 1].append((pair_vars[(i, j)], 1.0))
    for j, entries in enumerate(by_author, start=1):
        if y_vars:
            # y_j >= load_j - b, stated as load_j - y_j <= b.
            entries.append((y_vars[j], -1.0))
        lp.add_ineq(entries, float(b), "<=")
    return lp, pair_vars, y_vars


def build_hard_lp(
    instance: Instance, b: int | None = None
) -> tuple[LinearProgram, dict[tuple[int, int], int]]:
    """Relax the load-capped problem over incident pairs only.

    One variable per authorship pair (pairs absent from the incidence are
    fixed at zero and never materialized), one equality row per paper, one
    ``<=`` row per author.  Returns the program and the pair-to-variable map.
    """
    lp, pair_vars, _ = _assignment_lp(instance, b, None, soft=False)
    return lp, pair_vars


def build_soft_lp(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[LinearProgram, dict[tuple[int, int], int], dict[int, int]]:
    """Epigraph program: the hard relaxation plus an overload variable per author.

    Returns the program, the pair-to-variable map, and the author-to-overload
    variable map.
    """
    return _assignment_lp(instance, b, lam, soft=True)
