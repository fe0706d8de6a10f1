"""Bounded-variable linear programs shared by the relaxation solvers.

The solve itself is delegated to HiGHS through :func:`scipy.optimize.linprog`;
what this module owns is the sparse problem description, the translation to
solver form, and an independent certification pass: every reported optimum is
re-checked for primal feasibility (1e-9) and for a duality gap under 1e-7
computed from the returned marginals.  A point that fails certification comes
back with an Error status rather than being trusted; so does one whose
residual or gap is NaN.

The backend is HiGHS's dual simplex with devex pricing (Harris 1973; Huangfu
& Hall 2018), a fixed setting like the tolerances.  The assignment programs
built here are degenerate transportation LPs, and on them HiGHS's default
dual steepest-edge pricing takes 2-8x more iterations: 11,422 against 6,043
for the hard program and 11,909 against 3,679 for the soft one on a
2000 x 500 instance, 41,031 against 17,783 and 104,138 against 12,310 on a
6000 x 1500 one.  There devex also beat the interior-point method and
Dantzig pricing.  A simplex answer is a vertex, and both programs are
totally unimodular, so it is integral.

numpy and scipy are imported inside :func:`solve_lp` and its helpers
(:meth:`LinearProgram.check` included), not at module level.  Building a
:class:`LinearProgram` needs only the standard library, and importing scipy
costs most of a second, so the greedy, flow, oracle and validate paths (and
``import deskrisk``) never pay for it; the LP routes pay once, at their first
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
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
        """Raise ``ValueError`` naming the first malformed variable or row."""
        _solver_form(self)


@dataclass(frozen=True)
class LpSolution:
    """Outcome of :func:`solve_lp`.

    ``iterations`` is the backend's simplex iteration count, or ``None`` when
    the backend does not report one.
    """

    status: LpStatus
    values: tuple[float, ...] | None = None
    objective: float | None = None
    duality_gap: float | None = None
    message: str = ""
    iterations: int | None = None


def _solver_form(lp: LinearProgram) -> tuple:
    """Check ``lp`` and convert it to ``linprog``'s arrays.

    Returns ``(c, lower, upper, a_eq, b_eq, a_ub, b_ub)``: an upper bound of
    ``None`` becomes ``inf``, each ``>=`` row is negated into
    ``a_ub @ x <= b_ub``, and a matrix and its right-hand side are ``None``
    when the program has no rows of that kind.  Raises ``ValueError`` naming
    the first fault: variables are checked before rows, and each row's
    variables before its sense, in the order the program stores them.
    """
    import numpy as np

    if lp.num_vars < 1:
        raise ValueError("program needs at least one variable")
    if len(lp.objective) != lp.num_vars:
        raise ValueError("objective length does not match num_vars")
    if len(lp.lower) != lp.num_vars or len(lp.upper) != lp.num_vars:
        raise ValueError("bound vectors do not match num_vars")
    c = np.asarray(lp.objective, dtype=float)
    lower = np.asarray(lp.lower, dtype=float)
    upper = np.array([math.inf if up is None else up for up in lp.upper], dtype=float)
    # Written so that a NaN upper bound fails the test too.
    bad = np.flatnonzero(~(np.isfinite(c) & np.isfinite(lower) & (lower <= upper)))
    if bad.size:
        k = int(bad[0])
        coeff, lo, up = lp.objective[k], lp.lower[k], lp.upper[k]
        if not math.isfinite(coeff):
            raise ValueError(f"objective coefficient of variable {k} must be finite, got {coeff}")
        if not math.isfinite(lo):
            raise ValueError(f"lower bound of variable {k} must be finite, got {lo}")
        raise ValueError(f"bounds of variable {k} require lower <= upper, got [{lo}, {up}]")

    a_eq = b_eq = None
    if lp.eq_rows:
        a_eq = _to_csr([row for row, _ in lp.eq_rows], lp.num_vars)
        b_eq = np.asarray([rhs for _, rhs in lp.eq_rows], dtype=float)
    a_ub = b_ub = None
    if lp.ineq_rows:
        rows = [row for row, _, _ in lp.ineq_rows]
        senses = [sense for _, _, sense in lp.ineq_rows]
        unknown = next((r for r, sense in enumerate(senses) if sense not in ("<=", ">=")), None)
        if unknown is not None:
            # A bad variable in this row or an earlier one is reported first.
            _to_csr(rows[: unknown + 1], lp.num_vars)
            raise ValueError(f"unknown sense {senses[unknown]!r}")
        sign = np.where(np.asarray(senses) == ">=", -1.0, 1.0)
        a_ub = _to_csr(rows, lp.num_vars)
        a_ub.data *= np.repeat(sign, np.diff(a_ub.indptr))
        b_ub = np.asarray([rhs for _, rhs, _ in lp.ineq_rows], dtype=float) * sign
    return c, lower, upper, a_eq, b_eq, a_ub, b_ub


def _to_csr(rows: list[SparseRow], num_vars: int) -> csr_matrix:
    """Stack sparse rows into a CSR matrix, rejecting an out-of-range variable."""
    import numpy as np
    from scipy.sparse import csr_matrix

    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)), out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.fromiter(map(itemgetter(0), chain.from_iterable(rows)), dtype=np.intp, count=nnz)
    outside = np.flatnonzero((indices < 0) | (indices >= num_vars))
    if outside.size:
        raise ValueError(f"row references variable {indices[outside[0]]}, have {num_vars}")
    data = np.fromiter(map(itemgetter(1), chain.from_iterable(rows)), dtype=float, count=nnz)
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
    import numpy as np
    from scipy.optimize import linprog

    c, lower, upper, a_eq, b_eq, a_ub, b_ub = _solver_form(lp)
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack((lower, upper)),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": min(feasibility_tol, 1e-9),
            "dual_feasibility_tolerance": 1e-9,
            # Far fewer iterations than the default pricing here; see the module docstring.
            "simplex_dual_edge_weight_strategy": "devex",
        },
    )
    iterations = result.get("nit")
    if result.status != 0:
        status = {2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}.get(result.status, LpStatus.ERROR)
        return LpSolution(status=status, message=result.message, iterations=iterations)

    x = np.asarray(result.x, dtype=float)
    problem = _residuals(x, lower, upper, a_eq, b_eq, a_ub, b_ub, feasibility_tol)
    if problem:
        return LpSolution(status=LpStatus.ERROR, message=problem, iterations=iterations)
    gap = _duality_gap(result, lower, upper, b_eq, b_ub)
    # Every certificate test is "passes only if <= tol", so a NaN fails it.
    if not gap <= optimality_tol:
        return LpSolution(
            status=LpStatus.ERROR,
            message=f"duality gap {gap:.3e} exceeds {optimality_tol:.1e}",
            iterations=iterations,
        )
    return LpSolution(
        status=LpStatus.OPTIMAL,
        values=tuple(x.tolist()),
        objective=float(result.fun),
        duality_gap=gap,
        iterations=iterations,
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
    nnz = instance.nnz
    # Variable k is the k-th pair of the sorted authorship, so each paper's
    # variables are consecutive and no row needs a pair lookup.
    pair_vars = dict(zip(instance.authorship, range(nnz)))
    y_vars = {} if lam is None else {j: nnz + j - 1 for j in range(1, instance.m + 1)}
    lp = LinearProgram.minimize(
        [instance.p[j - 1] for _, j in instance.authorship] + [lam] * len(y_vars)
    )
    lp.upper[:nnz] = [1.0] * nnz
    ones = list(zip(range(nnz), repeat(1.0)))
    start = 0
    for row in instance.rows:
        lp.add_eq(ones[start : start + len(row)], 1.0)
        start += len(row)
    by_author: list[SparseRow] = [[] for _ in range(instance.m)]
    for entry, (_, j) in zip(ones, instance.authorship):
        by_author[j - 1].append(entry)
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
