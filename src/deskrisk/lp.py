"""The LP relaxations of the hard and soft variants, their routes, and a solver for them.

:func:`build_hard_lp` relaxes the hard cap: a weight in ``[0, 1]`` per
incident pair, an equality row per paper and a ``<=`` row per author.
:func:`build_soft_lp` linearizes the soft penalty through an epigraph: per
author an overload variable ``y_j >= load_j - b``, ``y_j >= 0``, charged
``lam``, which any optimum pins to ``max(0, load_j - b)``.  Both programs
are totally unimodular: the paper and author rows form a bipartite
incidence matrix, and each ``y_j`` adds a unit column.  So every vertex is
integral, and :func:`round_soft`'s per-paper argmax loses nothing on one.

The routes (:func:`solve_hard_lp`, :func:`solve_soft_relaxed`,
:func:`solve_soft`) call no LP solver and build no program.  The optimal
vertex is the exact core's answer: ``x`` is 1 on each paper's holder and
``y_j = max(0, load_j - b)``; the core's prices ``c_j``
(:func:`.flow._slot_prices`) give its duals (author row ``p_j - c_j``, paper
row ``c_holder(i)``).  A route answers only if :func:`_price_fault`, which
trusts no solver, accepts them in exact dyadic integers in ``O(nnz + m)``,
or, for an Infeasible answer, if a Hall set (Hall 1935), the LP's Farkas
proof (Ahuja, Magnanti & Orlin 1993, ch. 11), passes :func:`_hall_fault`.
Either check failing raises ``RuntimeError``.

:func:`solve_lp` solves any :class:`LinearProgram`, or a program already in
solver form, with HiGHS (Huangfu & Hall 2018) through the binding that
scipy ships in ``scipy/optimize/_highspy``, from the slack basis, and
checks HiGHS's answer in floats with :func:`_certify`.  The backend is dual
simplex with devex pricing (Harris 1973), a fixed setting like the
tolerances: on these degenerate transportation LPs HiGHS's default dual
steepest-edge pricing takes 2-8x more iterations.  HiGHS gets the program
as arrays, in one call to the binding's array ``passModel``: rowwise, the
``<=`` rows first (a ``>=`` row negated), then the equality rows, in the
program's order (scipy's own; the row order steers the pivots), and an
integrality array of zeros (an empty one is refused).  Importing
``scipy.optimize`` takes most of a second, so the binding is loaded on its
own, once per process, and reused if ``scipy.optimize`` already loaded it.
numpy is imported inside the functions that use it (the program builders,
so ``--dump-lp``, :func:`solve_lp` and :func:`round_soft`): ``import
deskrisk`` and every route, the LP routes included, load neither numpy nor
the binding.
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

from .flow import _exact, _hall_set, _slot_prices
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
_PRICE_SCALE = 1 << 1074  # instance._exact's scale

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
        return cls(num_vars=k, objective=list(objective), lower=[0.0] * k, upper=[None] * k)

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


class _SolverForm(NamedTuple):
    """A checked program as arrays, rows in HiGHS's order.

    The first ``num_ineq`` rows are the inequality rows, each ``>=`` row
    negated so that every one reads ``a @ x <= row_upper`` with
    ``row_lower = -inf``; the equality rows follow with
    ``row_lower == row_upper``.  ``row``, ``col`` and ``value`` hold the
    nonzeros row by row.
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


@dataclass
class _Answer:
    """HiGHS's claimed answer, before any check.

    ``status`` is the claim: Optimal means claimed, not certified.  The
    vectors are present only with that claim: ``x`` is the column values,
    ``row_dual`` the row duals and ``col_dual`` the reduced costs.
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
    coefficients and right-hand sides must be finite.
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
    return _SolverForm(c, lower, upper, row_lower, row_upper, num_ineq, row, col, value)


def _binding_path() -> str:
    """Where scipy keeps its compiled HiGHS binding; the file may be missing."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import find_spec

    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise RuntimeError("solve_lp needs scipy's HiGHS binding, and scipy is not installed")
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


def _run_highs(form: _SolverForm) -> _Answer:
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
        return _Answer(LpStatus.ERROR, "HiGHS rejected the model", None)
    highs.run()
    status = highs.getModelStatus()
    info = highs.getInfo()
    answer = _Answer(
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


def _certify(form: _SolverForm, answer: _Answer) -> tuple[str, float]:
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
    """The hard or (``soft``) soft relaxation in solver form, built from the instance.

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
    return _SolverForm(c, np.zeros(len(c)), upper, row_lower, row_upper, m, row, col, value)


def _certified_assignment(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> Assignment | None:
    """The core's answer, once its prices certify it as the relaxation's optimal vertex.

    ``None`` for a hard program whose Hall set passed its check.  Raises
    ``RuntimeError`` when a check fails (see the module docstring).
    """
    require_valid(instance)
    b, lam = resolve_limits(instance, b, lam, soft=soft)
    holder, price = _slot_prices(instance, b, lam)
    if price is None:
        fault = _hall_fault(instance, b, *_hall_set(instance, holder))
        if fault:
            raise RuntimeError(f"hard relaxation Hall set failed its check: {fault}")
        return None
    fault = _price_fault(instance, b, lam, holder, price)
    if fault:
        raise RuntimeError(f"{'soft' if soft else 'hard'} relaxation failed its certificate: {fault}")
    return Assignment(nominee=tuple(h + 1 for h in holder))


def _price_fault(
    instance: Instance, b: int, lam: float | None, holder: list[int], price: list[int]
) -> str:
    """Why exact prices ``c`` (see :func:`._exact`) do not certify ``holder``; "" if they do.

    Each paper's holder is one of its authors and no co-author costs less
    (pair reduced costs ``c_k - c_holder(i) >= 0``); every author has ``c_j
    >= p_j`` (row dual sign), ``c_j == p_j`` below ``b`` (slackness) and,
    hard, a load of at most ``b``; soft, ``c_j <= p_j + lam`` (``y_j``'s
    reduced cost), with equality above ``b``.  Then the duality gap ``sum_j
    (load_j - b)(p_j - c_j) + lam * max(0, load_j - b)`` is exactly 0
    (Ahuja, Magnanti & Orlin 1993, ch. 9).  Names the first failing paper, then author.
    """
    load = [0] * instance.m
    for i, (row, h) in enumerate(zip(instance.rows, holder), start=1):
        if h + 1 not in row:
            return f"paper {i}: holder {h + 1} is not one of its authors"
        floor = price[h]
        for k in row:
            if price[k - 1] < floor:
                return f"paper {i}: co-author {k} is priced below its holder {h + 1}"
        load[h] += 1
    extra = None if lam is None else _exact(lam)
    for j, (c, p, count) in enumerate(zip(price, instance._core.weights, load), start=1):
        if c < p:
            return f"author {j}: price {c / _PRICE_SCALE!r} is below p_{j} = {p / _PRICE_SCALE!r}"
        if extra is None and count > b:
            return f"author {j}: load {count} exceeds b = {b}"
        if count < b and c != p:
            return f"author {j}: load {count} is below b = {b}, but its price is not p_{j}"
        if extra is not None and c > p + extra:
            return f"author {j}: price {c / _PRICE_SCALE!r} is above p_{j} + lambda"
        if extra is not None and count > b and c != p + extra:
            return f"author {j}: load {count} is above b = {b}, but its price is not p_{j} + lambda"
    return ""


def _hall_fault(instance: Instance, b: int, papers: list[int], authors: set[int]) -> str:
    """Why papers ``S`` and authors ``A`` (0-based) do not prove that nothing fits; "" if they do.

    Every author of a paper in ``S`` must be in ``A``, and ``|S| > b * |A|``:
    then ``S`` needs more nominations than ``A`` may take, even fractionally.
    """
    rows = instance.rows
    distinct = set(papers)
    outside = {j - 1 for i in distinct for j in rows[i]} - authors
    if outside:
        return f"author {min(outside) + 1} is on a paper of the set but not in it"
    if not len(distinct) > b * len(authors):
        return f"{len(distinct)} papers fit {len(authors)} authors at b = {b}"
    return ""


def _assignment_lp(
    instance: Instance, b: int | None, lam: float | None, soft: bool
) -> tuple[LinearProgram, dict[tuple[int, int], int], dict[int, int]]:
    """:func:`_assignment_form` as a :class:`LinearProgram`, with its variable maps."""
    import numpy as np

    form = _assignment_form(instance, b, lam, soft)
    nnz, m = instance.nnz, instance.m
    upper = [None if up == math.inf else up for up in form.upper.tolist()]
    lp = LinearProgram(len(form.c), form.c.tolist(), form.lower.tolist(), upper)
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
    """
    return _assignment_lp(instance, b, None, soft=False)[:2]


def build_soft_lp(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[LinearProgram, dict[tuple[int, int], int], dict[int, int]]:
    """Epigraph program: the hard relaxation plus an overload variable per author.

    Returns the program, the pair-to-variable map, and the author-to-overload
    variable map.
    """
    return _assignment_lp(instance, b, lam, soft=True)


def solve_hard_lp(
    instance: Instance, b: int | None = None
) -> tuple[Assignment | None, SolveReport]:
    """The assignment at the certified optimal vertex of :func:`build_hard_lp`'s relaxation.

    Its report is :func:`.instance.report_for`'s, marked ``integral``.
    Returns ``(None, report)`` with an Infeasible status when a checked Hall
    set shows that no fractional assignment meets the cap.  Raises
    ``RuntimeError`` when the certificate or the Hall set fails its check.
    """
    assignment = _certified_assignment(instance, b, None, soft=False)
    if assignment is None:
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-lp")
    return assignment, replace(report_for(instance, assignment, "hard-lp"), integral=True)


def solve_soft_relaxed(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[FractionalSolution, SolveReport]:
    """Certified optimum of :func:`build_soft_lp`'s epigraph relaxation: the core's vertex.

    Its objective is :func:`solve_soft_exact`'s, bit for bit: the same sums in the same order.
    """
    b, lam = resolve_limits(instance, b, lam, soft=True)
    assignment = _certified_assignment(instance, b, lam, soft=True)
    nominee = assignment.nominee
    x = {(i, j): float(nominee[i - 1] == j) for i, j in instance.authorship}
    report = report_for(instance, assignment, "soft-lp", soft=(b, lam))
    y = tuple(float(max(0, load - b)) for load in report.loads)
    return FractionalSolution(x, y), replace(report, loads=None)


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
    author, lengths = _pairs(instance)
    first = np.cumsum(lengths) - lengths
    best = np.repeat(np.maximum.reduceat(x, first), lengths)
    pick = np.minimum.reduceat(np.where(x == best, np.arange(len(x)), len(x)), first)
    return Assignment(nominee=tuple((author[pick] + 1).tolist()))


def solve_soft(
    instance: Instance, b: int | None = None, lam: float | None = None
) -> tuple[Assignment, SolveReport]:
    """Relax, round, and report both the integral objective and the LP bound.

    The certified vertex is integral, so it rounds to itself and the gap is 0.
    """
    assignment = _certified_assignment(instance, b, lam, soft=True)
    report = report_for(instance, assignment, "soft-lp-round", soft=(b, lam))
    objective = report.objective
    return assignment, replace(report, lp_bound=objective, rounded_objective=objective, gap=0.0)
