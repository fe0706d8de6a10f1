"""The LP relaxations of the hard and soft variants, and the solver behind them.

:func:`build_hard_lp` relaxes the hard cap: a weight in ``[0, 1]`` per
incident pair, an equality row per paper and a ``<=`` row per author.
:func:`build_soft_lp` linearizes the soft penalty through an epigraph: per
author an overload variable ``y_j >= load_j - b``, ``y_j >= 0``, charged
``lam``, which any optimum pins to ``max(0, load_j - b)``
(:func:`solve_soft_relaxed` checks this).  Both programs are totally
unimodular: the paper and author rows form a bipartite incidence matrix, and
each ``y_j`` adds a unit column.  So every vertex is integral, and
:func:`round_soft`'s per-paper argmax loses nothing on one; a ``gap > 0``
in :func:`solve_soft`'s report can only come from an answer that is not a
vertex, which the exact solvers of :mod:`.flow` would show.

The solve itself is delegated to HiGHS (Huangfu & Hall 2018) through the
binding that scipy ships in ``scipy/optimize/_highspy``; what this module owns
is the sparse problem description, the translation to solver form, and an
independent certification pass, :func:`_certify`.  It re-checks every
reported optimum in ``O(nnz)`` with numpy alone: primal feasibility within
1e-9, and dual feasibility and the duality gap within 1e-7.  A point that
fails any check, or whose residual or gap is NaN, comes back with an Error
status rather than being trusted.

The backend is HiGHS's dual simplex with devex pricing (Harris 1973; Huangfu
& Hall 2018), a fixed setting like the tolerances.  The assignment programs
built here are degenerate transportation LPs, and on them HiGHS's default
dual steepest-edge pricing takes 2-8x more iterations; devex also beats the
interior-point method and Dantzig pricing.  A simplex answer is a vertex.

The builders start HiGHS at the optimal basis that :func:`.flow._slot_basis`
builds around the exact core's answer (Bixby 1992 on initial bases; see
there why it is a nonsingular, primal and dual feasible basis).  So HiGHS
only confirms it, in 0 iterations on every feasible program, and the LP
routes report the core's vertex.  A core answer that was not optimal would
give a basis that is not dual feasible, and HiGHS would leave it, by pivots
or by moving a pair to its upper bound (which counts as no iteration); the
certificate trusts nothing from the start.  When no assignment meets the
hard cap, the start is the optimal basis of the uncapped program (``b =
n``): the cap is only a right-hand side, on which a basis's reduced costs
do not depend, so dual simplex works from it to a proof of infeasibility.
With a basis set, HiGHS skips presolve.  A :class:`LinearProgram` without a
start solves from the slack basis.

HiGHS gets the program as arrays, in one call to the binding's array
``passModel``: rowwise, the ``<=`` rows first (a ``>=`` row negated), then
the equality rows, in the program's order (scipy's own; the row order
steers the pivots), and an integrality array of zeros (an empty one is
refused).  :func:`_assignment_form` builds both relaxations so, from the
instance; a :class:`LinearProgram` is built only for ``--dump-lp``,
:func:`solve_lp` callers and ``perfbench/tracing.py``.  Importing
``scipy.optimize`` takes most of a second, so the binding is loaded on its
own, once per process, and reused if ``scipy.optimize`` already loaded it.
numpy is imported inside the functions that use it, so ``import deskrisk``
and the greedy, flow, oracle and validate paths load neither numpy nor the
binding; a pure-Python form and certificate were 30-50% slower.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Literal, NamedTuple

from .flow import _slot_basis
from .instance import (
    Assignment,
    FractionalSolution,
    Instance,
    SolveReport,
    SolveStatus,
    report_for,
    require_valid,
    resolve_limits,
)

if TYPE_CHECKING:
    import numpy as np

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-7
# A pair weight this close to 0 or 1 counts as integral.
INTEGRALITY_TOL = 1e-9
EQUIVALENCE_TOL = 1e-7

Sense = Literal["<=", ">="]
SparseRow = list[tuple[int, float]]

_BINDING = "scipy.optimize._highspy._core"
_BINDING_LOCK = threading.Lock()
# Dual simplex (strategy 1) with devex pricing (edge weights 1); see above.
_HIGHS_OPTIONS = {
    "solver": "simplex",
    "simplex_strategy": 1,
    "simplex_dual_edge_weight_strategy": 1,
    "dual_feasibility_tolerance": 1e-9,
    "presolve": "on",
    "output_flag": False,
    "log_to_console": False,
    "primal_feasibility_tolerance": FEASIBILITY_TOL,
}


class LpStatus(str, Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ERROR = "Error"


# HiGHS model statuses by name; every other status is an Error.
_STATUSES = {
    "kOptimal": LpStatus.OPTIMAL,
    "kInfeasible": LpStatus.INFEASIBLE,
    "kUnbounded": LpStatus.UNBOUNDED,
}


class LpStart(NamedTuple):
    """A starting basis for the simplex method.

    ``basic`` lists the basic variables and ``tight`` the ``"<="`` rows, by
    index into :attr:`LinearProgram.ineq_rows`, held at their right-hand side.
    Every other inequality row keeps its slack basic, every equality row is
    held at its right-hand side, and every nonbasic variable sits at its lower
    bound.  A basis has one basic entry per row, so ``basic`` holds one
    variable per equality row and per tight row.
    """

    basic: tuple[int, ...]
    tight: tuple[int, ...] = ()


@dataclass
class LinearProgram:
    """Minimization problem over box-bounded variables with sparse rows.

    ``upper[k] is None`` means variable ``k`` is unbounded above.  Rows hold
    ``(variable, coefficient)`` pairs; senses are ``"<="`` or ``">="``.
    ``start`` is an optional basis to start the solver from; it changes how
    the optimum is reached, not which program is solved.
    """

    num_vars: int
    objective: list[float]
    lower: list[float]
    upper: list[float | None]
    eq_rows: list[tuple[SparseRow, float]] = field(default_factory=list)
    ineq_rows: list[tuple[SparseRow, float, Sense]] = field(default_factory=list)
    start: LpStart | None = None

    @classmethod
    def minimize(cls, objective: list[float]) -> "LinearProgram":
        """Fresh program with the default box ``[0, unbounded)`` per variable."""
        k = len(objective)
        return cls(num_vars=k, objective=list(objective), lower=[0.0] * k, upper=[None] * k)

    def add_eq(self, row: SparseRow, rhs: float) -> None:
        self.eq_rows.append((row, rhs))

    def add_ineq(self, row: SparseRow, rhs: float, sense: Sense = "<=") -> None:
        self.ineq_rows.append((row, rhs, sense))

    def check(self) -> None:
        """Raise ``ValueError`` naming the first malformed variable, row or start entry."""
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


class _SolverForm(NamedTuple):
    """A checked program as arrays, rows in HiGHS's order.

    The first ``num_ineq`` rows are the inequality rows, each ``>=`` row
    negated so that every one reads ``a @ x <= row_upper`` with
    ``row_lower = -inf``; the equality rows follow with
    ``row_lower == row_upper``.  ``row``, ``col`` and ``value`` hold the
    nonzeros row by row.  ``basic_cols`` and ``basic_rows`` mark the basis
    that ``start`` states, and all three are ``None`` without a start.
    """

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    num_ineq: int
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray
    basic_cols: np.ndarray | None = None
    basic_rows: np.ndarray | None = None
    start: LpStart | None = None


@dataclass
class _HighsAnswer:
    """What HiGHS returned, before any check.

    ``status`` is HiGHS's own verdict: Optimal means claimed, not certified.
    The vectors are present only with that verdict: ``x`` is the column
    values, ``row_dual`` the row duals and ``col_dual`` the reduced costs.
    """

    status: LpStatus
    message: str
    iterations: int | None
    objective: float | None = None
    x: np.ndarray | None = None
    row_dual: np.ndarray | None = None
    col_dual: np.ndarray | None = None


def _solver_form(lp: LinearProgram) -> _SolverForm:
    """Check ``lp`` and convert it to arrays for HiGHS and the certificate.

    Raises ``ValueError`` naming the first fault: variables are checked before
    rows, equality rows before inequality rows, and each inequality row's
    variables before its sense, in the order the program stores them.  Row
    coefficients and right-hand sides must be finite.  The start, checked
    last, must name distinct variables and distinct ``"<="`` rows, and one
    basic variable per equality and tight row.
    """
    import numpy as np

    n = lp.num_vars
    if n < 1:
        raise ValueError("program needs at least one variable")
    if len(lp.objective) != n:
        raise ValueError("objective length does not match num_vars")
    if len(lp.lower) != n or len(lp.upper) != n:
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

    rows = [row for row, _, _ in lp.ineq_rows] + [row for row, _ in lp.eq_rows]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    nnz = int(lengths.sum())
    col = np.fromiter(map(itemgetter(0), chain.from_iterable(rows)), dtype=np.intp, count=nnz)
    value = np.fromiter(map(itemgetter(1), chain.from_iterable(rows)), dtype=float, count=nnz)
    row = np.repeat(np.arange(len(rows)), lengths)
    num_ineq = len(lp.ineq_rows)
    outside = np.flatnonzero((col < 0) | (col >= n))
    senses = [sense for _, _, sense in lp.ineq_rows]
    unknown = next((r for r, sense in enumerate(senses) if sense not in ("<=", ">=")), None)
    # Equality rows first, then each inequality row's variables before its sense.
    in_eq = outside[row[outside] >= num_ineq]
    if in_eq.size or (outside.size and (unknown is None or row[outside[0]] <= unknown)):
        k = in_eq[0] if in_eq.size else outside[0]
        raise ValueError(f"row references variable {col[k]}, have {n}")
    if unknown is not None:
        raise ValueError(f"unknown sense {senses[unknown]!r}")
    rhs = np.asarray([b for _, b, _ in lp.ineq_rows] + [b for _, b in lp.eq_rows], dtype=float)
    for name, values in (("coefficient", value), ("right-hand side", rhs)):
        infinite = np.flatnonzero(~np.isfinite(values))
        if infinite.size:
            raise ValueError(f"row {name} must be finite, got {values[infinite[0]]}")

    sign = np.ones(len(rows))
    sign[:num_ineq][np.asarray(senses) == ">="] = -1.0
    value *= sign[row]
    row_upper = rhs * sign
    row_lower = row_upper.copy()
    row_lower[:num_ineq] = -math.inf
    form = _SolverForm(c, lower, upper, row_lower, row_upper, num_ineq, row, col, value)
    if lp.start is None:
        return form
    basic, tight = lp.start
    want = len(lp.eq_rows) + len(tight)
    if len(basic) != want:
        raise ValueError(f"start has {len(basic)} basic variables, expected {want}")
    basic_cols = np.zeros(n, dtype=bool)
    for k in basic:
        if not (isinstance(k, int) and 0 <= k < n):
            raise ValueError(f"start names variable {k!r}, have {n}")
        if basic_cols[k]:
            raise ValueError(f"start names variable {k} twice")
        basic_cols[k] = True
    basic_rows = np.zeros(len(rows), dtype=bool)
    basic_rows[:num_ineq] = True
    for r in tight:
        if not (isinstance(r, int) and 0 <= r < num_ineq and senses[r] == "<="):
            raise ValueError(f"start holds row {r!r} tight, which is not a '<=' row")
        if not basic_rows[r]:
            raise ValueError(f"start holds row {r} tight twice")
        basic_rows[r] = False
    return form._replace(basic_cols=basic_cols, basic_rows=basic_rows, start=lp.start)


def _binding_path() -> str:
    """Where scipy keeps its compiled HiGHS binding; the file may be missing."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import find_spec

    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise RuntimeError("the LP routes need scipy's HiGHS binding, and scipy is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy", "_core")
    paths = [stem + suffix for suffix in EXTENSION_SUFFIXES]
    return next((path for path in paths if os.path.isfile(path)), paths[0])


def _binding() -> Any:
    """scipy's HiGHS binding, loaded once and without ``scipy.optimize``'s ``__init__``.

    The module is registered under its own name, so a later
    ``import scipy.optimize`` adopts it; one that ``scipy.optimize`` already
    loaded is reused.  The lock keeps two threads from loading it twice.
    """
    with _BINDING_LOCK:
        core = sys.modules.get(_BINDING)
        if core is None:
            from importlib.machinery import ExtensionFileLoader
            from importlib.util import module_from_spec, spec_from_loader

            path = _binding_path()
            if not os.path.isfile(path):
                import scipy

                raise RuntimeError(f"scipy {scipy.__version__} has no HiGHS binding at {path}")
            loader = ExtensionFileLoader(_BINDING, path)
            core = module_from_spec(spec_from_loader(_BINDING, loader))
            loader.exec_module(core)
            sys.modules[_BINDING] = core
    return core


def _run_highs(form: _SolverForm) -> _HighsAnswer:
    """Run HiGHS on ``form`` and return its raw answer."""
    import numpy as np

    core = _binding()
    num_rows, num_cols = len(form.row_upper), len(form.c)
    row_start = np.zeros(num_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(form.row, minlength=num_rows), out=row_start[1:])
    highs = core._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS {highs.version()} rejects option {name}={value!r}")
    passed = highs.passModel(
        num_cols, num_rows, len(form.col), int(core.MatrixFormat.kRowwise),
        int(core.ObjSense.kMinimize), 0.0, form.c, form.lower, form.upper, form.row_lower,
        form.row_upper, row_start, form.col.astype(np.int32), form.value,
        np.zeros(num_cols, dtype=np.int32),
    )
    if passed == core.HighsStatus.kError:
        return _HighsAnswer(LpStatus.ERROR, "HiGHS rejected the model", None)
    started = form.basic_cols is not None
    if started and highs.setBasis(_basis(core, form)) == core.HighsStatus.kError:
        return _HighsAnswer(LpStatus.ERROR, "HiGHS rejected the starting basis", None)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    answer = _HighsAnswer(
        _STATUSES.get(status.name, LpStatus.ERROR),
        f"HiGHS model status: {highs.modelStatusToString(status)}",
        info.simplex_iteration_count,
    )
    if answer.status is LpStatus.OPTIMAL:
        solution = highs.getSolution()
        answer.objective = info.objective_function_value
        answer.x = np.array(solution.col_value)
        answer.row_dual = np.array(solution.row_dual)
        answer.col_dual = np.array(solution.col_dual)
    return answer


def _basis(core: Any, form: _SolverForm) -> Any:
    """The start of ``form`` as a HiGHS basis.

    Nonbasic variables sit at their lower bound and nonbasic rows at their
    upper bound, the right-hand side of an equality or ``<=`` row.  ``alien``
    off makes HiGHS take the basis as given rather than repair it.
    """
    status = core.HighsBasisStatus
    basis = core.HighsBasis()
    basis.col_status = form.basic_cols.choose([status.kLower, status.kBasic]).tolist()
    basis.row_status = form.basic_rows.choose([status.kUpper, status.kBasic]).tolist()
    basis.alien = False
    return basis


def solve_lp(lp: LinearProgram | _SolverForm) -> LpSolution:
    """Solve and certify a linear program, or one already in solver form.

    Statuses: Optimal (certified), Infeasible, Unbounded, or Error when the
    backend fails numerically or the certification check rejects its answer.
    """
    form = lp if isinstance(lp, _SolverForm) else _solver_form(lp)
    answer = _run_highs(form)
    if answer.status is not LpStatus.OPTIMAL:
        return LpSolution(status=answer.status, message=answer.message, iterations=answer.iterations)
    problem, gap = _certify(form, answer)
    if problem:
        return LpSolution(status=LpStatus.ERROR, message=problem, iterations=answer.iterations)
    values, objective = tuple(answer.x.tolist()), float(answer.objective)
    return LpSolution(LpStatus.OPTIMAL, values, objective, gap, iterations=answer.iterations)


def _certify(form: _SolverForm, answer: _HighsAnswer) -> tuple[str, float]:
    """Check a claimed optimum without trusting the solver: ``(fault or "", gap)``.

    ``x`` must meet every row and bound within ``FEASIBILITY_TOL``.  Each row
    dual and reduced cost then prices the bound on the side its sign selects
    (the lower side when positive), so none beyond ``OPTIMALITY_TOL`` may sit
    on an infinite side; the objective must be within ``OPTIMALITY_TOL`` of
    the dual objective, and ``c - A'y - z`` within it of zero.  Every test is
    "passes only if <= tol", so a NaN fails it.
    """
    import numpy as np

    tol = FEASIBILITY_TOL
    x, y, z = answer.x, answer.row_dual, answer.col_dual
    activity = np.bincount(form.row, form.value * x[form.col], minlength=len(form.row_upper))
    excess = activity - form.row_upper
    worst = float(np.max(np.abs(excess[form.num_ineq :]), initial=0.0))
    if not worst <= tol:
        return f"equality residual {worst:.3e} exceeds {tol:.1e}", math.nan
    worst = float(np.max(excess[: form.num_ineq], initial=0.0))
    if not worst <= tol:
        return f"inequality violation {worst:.3e} exceeds {tol:.1e}", math.nan
    # An unbounded-above variable has upper = inf, which every finite x meets.
    outside = np.flatnonzero(~((x >= form.lower - tol) & (x <= form.upper + tol)))
    if outside.size:
        k = int(outside[0])
        bounds = f"[{form.lower[k]}, {form.upper[k]}]"
        return f"variable {k} value {float(x[k])!r} violates bounds {bounds}", math.nan

    tol = OPTIMALITY_TOL
    dual = 0.0
    for kind, duals, lower, upper in (
        ("inequality row", y, form.row_lower, form.row_upper),
        ("variable", z, form.lower, form.upper),
    ):
        side = np.where(duals > 0, lower, upper)
        infinite = np.isinf(side)
        stray = np.flatnonzero(infinite & (np.abs(duals) > tol))
        if stray.size:
            k = int(stray[0])
            return f"{kind} {k} has dual {float(duals[k]):.3e} on an infinite bound", math.nan
        # Multiply-and-sum rather than ``@``: a threaded BLAS dot over ~30k
        # entries took 8 ms against 0.04 ms on a 2-vCPU machine.  A zero
        # factor, not a dropped term, keeps a NaN dual a NaN.
        dual += float(np.sum(duals * np.where(infinite, 0.0, side)))
    gap = abs(float(answer.objective) - dual)
    if not gap <= tol:
        return f"duality gap {gap:.3e} exceeds {tol:.1e}", gap
    reduced = form.c - np.bincount(form.col, form.value * y[form.row], minlength=len(form.c))
    worst = float(np.max(np.abs(reduced - z), initial=0.0))
    if not worst <= tol:
        return f"reduced-cost residual {worst:.3e} exceeds {tol:.1e}", gap
    return "", gap


def _pairs(instance: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's author, 0-based and in pair order, and each paper's number of pairs."""
    import numpy as np

    rows = instance.rows
    author = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=instance.nnz) - 1
    return author, np.fromiter(map(len, rows), dtype=np.intp, count=instance.n)


def _assignment_form(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> _SolverForm:
    """The hard or (``soft``) soft relaxation in solver form, started at :func:`.flow._slot_basis`.

    Variable ``k`` is the ``k``-th sorted pair, at its author's ``p``; the
    soft program's ``nnz + j`` is ``y_j`` (0-based).  Author rows come
    first, with their pairs in pair order and, if soft, ``-y_j`` last
    (``load_j - y_j <= b``); each paper's row is a run of consecutive pairs.
    """
    import numpy as np

    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=soft)
    n, m, nnz = instance.n, instance.m, instance.nnz
    author, lengths = _pairs(instance)
    counts = np.bincount(author, minlength=m)
    # Unique keys sort in pair order within each author, faster than a stable sort.
    by_author = np.argsort(author * nnz + np.arange(nnz))
    coeffs, c, upper = np.ones(nnz), np.asarray(instance.p)[author], np.ones(nnz)
    if soft:
        ends = np.cumsum(counts)
        by_author = np.insert(by_author, ends, nnz + np.arange(m))
        coeffs = np.insert(coeffs, ends, -1.0)
        counts += 1
        c = np.concatenate((c, np.full(m, lam)))
        upper = np.concatenate((upper, np.full(m, math.inf)))
    col = np.concatenate((by_author, np.arange(nnz)))
    value = np.concatenate((coeffs, np.ones(nnz)))
    row = np.repeat(np.arange(m + n), np.concatenate((counts, lengths)))
    row_upper = np.concatenate((np.full(m, float(b)), np.ones(n)))
    row_lower = np.concatenate((np.full(m, -math.inf), np.ones(n)))

    holder, tight = _slot_basis(instance, b, lam) or _slot_basis(instance, n, None)
    basic = np.flatnonzero(author == np.repeat(holder, lengths)).tolist()
    first, rows = (np.cumsum(lengths) - lengths).tolist(), instance.rows
    for j, pair in tight.items():
        basic.append(nnz + j if pair is None else first[pair[0]] + rows[pair[0]].index(pair[1] + 1))
    basic_cols = np.zeros(len(c), dtype=bool)
    basic_cols[basic] = True
    basic_rows = np.arange(m + n) < m
    basic_rows[list(tight)] = False
    form = (c, np.zeros(len(c)), upper, row_lower, row_upper, m, row, col, value)
    return _SolverForm(*form, basic_cols, basic_rows, LpStart(tuple(basic), tuple(tight)))


def _assignment_lp(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> tuple[LinearProgram, dict[tuple[int, int], int], dict[int, int]]:
    """:func:`_assignment_form` as a :class:`LinearProgram`, with its variable maps."""
    import numpy as np

    form = _assignment_form(instance, b, lam, soft)
    nnz, m = instance.nnz, instance.m
    upper = [None if up == math.inf else up for up in form.upper.tolist()]
    lp = LinearProgram(len(form.c), form.c.tolist(), form.lower.tolist(), upper, start=form.start)
    entries = list(zip(form.col.tolist(), form.value.tolist()))
    ends = np.cumsum(np.bincount(form.row, minlength=len(form.row_upper))).tolist()
    rows = [entries[start:end] for start, end in zip([0, *ends], ends)]
    lp.ineq_rows = [(row, rhs, "<=") for row, rhs in zip(rows[:m], form.row_upper.tolist())]
    lp.eq_rows = [(row, 1.0) for row in rows[m:]]
    pair_vars = dict(zip(instance.authorship, range(nnz)))
    return lp, pair_vars, {j: nnz + j - 1 for j in range(1, m + 1)} if soft else {}


def build_hard_lp(
    instance: Instance, b: int | None = None
) -> tuple[LinearProgram, dict[tuple[int, int], int]]:
    """Relax the load-capped problem over incident pairs only.

    One variable per authorship pair (pairs absent from the incidence are
    fixed at zero and never materialized), one equality row per paper, one
    ``<=`` row per author.  Returns the program and the pair-to-variable map.
    The program starts at the optimal basis around the exact core's answer,
    or around the uncapped answer when no assignment meets the cap (see the
    module docstring); a caller that adds an equality row must reset
    ``start``.
    """
    return _assignment_lp(instance, b, None, soft=False)[:2]


def build_soft_lp(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[LinearProgram, dict[tuple[int, int], int], dict[int, int]]:
    """Epigraph program: the hard relaxation plus an overload variable per author.

    Returns the program, the pair-to-variable map, and the author-to-overload
    variable map.  As in :func:`build_hard_lp`, the program carries a start.
    """
    return _assignment_lp(instance, b, lam, soft=True)


def solve_hard_lp(
    instance: Instance, b: int | None = None
) -> tuple[Assignment | FractionalSolution | None, SolveReport]:
    """Certified optimum of :func:`build_hard_lp`'s relaxation.

    Returns the assignment when every pair weight is within
    ``INTEGRALITY_TOL`` of 0 or 1, with a :func:`.instance.report_for` report
    marked ``integral``; ``(None, report)`` with an Infeasible status when no
    fractional assignment meets the cap; otherwise the fractional solution,
    with its expected rejections as the objective, no loads, and
    ``integral=False``.  A backend failure raises ``RuntimeError``.
    """
    import numpy as np

    form = _assignment_form(instance, b, None, soft=False)
    solution = solve_lp(form)
    if solution.status is LpStatus.INFEASIBLE:
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-lp")
    x, expected = _read_pairs(form, instance.nnz, solution, "hard relaxation")
    if np.all(np.minimum(x, np.abs(x - 1.0)) <= INTEGRALITY_TOL):
        # Each paper's row sums to 1, so one pair per paper is above 1/2.
        assignment = Assignment(nominee=tuple((_pairs(instance)[0][x > 0.5] + 1).tolist()))
        return assignment, replace(report_for(instance, assignment, "hard-lp"), integral=True)
    report = SolveReport(
        status=SolveStatus.OPTIMAL, objective=expected, expected_rejections=expected,
        penalty=0.0, loads=None, solver="hard-lp", integral=False,
    )
    return FractionalSolution(x=dict(zip(instance.authorship, x.tolist()))), report


def _relax_soft(
    instance: Instance, b: int | None, lam: float | None
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], SolveReport]:
    """:func:`solve_soft_relaxed` as arrays: ``x``, ``y``, :func:`_pairs` and the report."""
    import numpy as np

    b, lam = resolve_limits(instance, b, lam, soft=True)
    form = _assignment_form(instance, b, lam, soft=True)
    values, expected_rejections = _read_pairs(form, instance.nnz, solve_lp(form), "soft relaxation")
    x, y = np.split(values, [instance.nnz])
    author, lengths = _pairs(instance)
    over = np.maximum(0.0, np.bincount(author, weights=x, minlength=instance.m) - b)
    wrong = np.flatnonzero(np.abs(y - over) > EQUIVALENCE_TOL)
    if wrong.size:
        j = int(wrong[0])
        raise RuntimeError(
            f"overload variable y_{j + 1}={float(y[j])!r} differs from"
            f" max(0, load-b)={float(over[j])!r}"
        )
    penalty = lam * sum(y.tolist())
    report = SolveReport(
        status=SolveStatus.OPTIMAL, objective=expected_rejections + penalty,
        expected_rejections=expected_rejections, penalty=penalty, loads=None, solver="soft-lp",
    )
    return x, y, (author, lengths), report


def solve_soft_relaxed(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[FractionalSolution, SolveReport]:
    """Certified optimum of :func:`build_soft_lp`'s epigraph relaxation.

    The returned overload values are checked against ``max(0, load_j - b)``
    recomputed from the fractional loads; disagreement beyond
    ``EQUIVALENCE_TOL`` means the backend returned a non-optimal point and
    raises instead of propagating a wrong bound.
    """
    x, y, _, report = _relax_soft(instance, b, lam)
    return FractionalSolution(dict(zip(instance.authorship, x.tolist())), tuple(y.tolist())), report


def round_soft(instance: Instance, fractional: FractionalSolution) -> Assignment:
    """Per paper, nominate the author with the largest fractional weight.

    Ties go to the smallest author index; a NaN weight counts as ``-inf``.
    The per-paper nomination rule is the only constraint of the soft
    problem, so the result is always a valid assignment; runs in time linear
    in the number of incidences.
    """
    import numpy as np

    weights = map(fractional.x.get, instance.authorship, repeat(0.0))
    x = np.fromiter(weights, dtype=float, count=instance.nnz)
    x[np.isnan(x)] = -math.inf
    return _round(x, *_pairs(instance))


def _round(x: np.ndarray, author: np.ndarray, lengths: np.ndarray) -> Assignment:
    """Per paper the author of its first pair with the largest weight in ``x``."""
    import numpy as np

    first = np.cumsum(lengths) - lengths
    best = np.repeat(np.maximum.reduceat(x, first), lengths)
    pick = np.minimum.reduceat(np.where(x == best, np.arange(len(x)), len(x)), first)
    return Assignment(nominee=tuple((author[pick] + 1).tolist()))


def solve_soft(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[Assignment, SolveReport]:
    """Relax, round, and report both the integral objective and the LP bound."""
    x, _, pairs, relaxed_report = _relax_soft(instance, b, lam)
    assignment = _round(x, *pairs)
    report = report_for(instance, assignment, "soft-lp-round", soft=(b, lam))
    assert report.objective is not None and relaxed_report.objective is not None
    bound, objective = relaxed_report.objective, report.objective
    report = replace(report, lp_bound=bound, rounded_objective=objective, gap=objective - bound)
    return assignment, report


def _read_pairs(
    form: _SolverForm, nnz: int, solution: LpSolution, name: str
) -> tuple[np.ndarray, float]:
    """A certified answer's values and its ``nnz`` pairs' expected rejections.

    ``np.cumsum`` adds in pair order, one term at a time (``np.sum`` does
    not), so equal answers give bit-identical totals.  Raises
    ``RuntimeError`` naming the program ``name`` unless ``solution`` is a
    certified optimum.
    """
    import numpy as np

    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"{name} failed: {solution.status.value} {solution.message}")
    values = np.array(solution.values)
    return values, float(np.cumsum(form.c[:nnz] * values[:nnz])[-1])
