"""The LP routes: the certified optimal vertex of the hard and soft relaxations.

The relaxations are :mod:`.program`'s: a weight in ``[0, 1]`` per incident
pair, an equality row per paper and a ``<=`` row per author, and in the
soft variant an overload variable ``y_j >= load_j - b`` per author, charged
``lam``.  Both are totally unimodular, so every vertex is integral.

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

:mod:`.program` builds the programs (``--dump-lp``) and solves them with
HiGHS; no route imports it, so no route loads numpy or scipy.
"""

from __future__ import annotations

from dataclasses import replace

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

_PRICE_SCALE = 1 << 1074  # instance._exact's scale


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
    return Assignment(nominee=tuple([h + 1 for h in holder]))


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
    cost = [0, *price]  # cost[k] is author k's price, 1-based as the rows are
    for i, (row, h) in enumerate(zip(instance.rows, holder), start=1):
        if h + 1 not in row:
            return f"paper {i}: holder {h + 1} is not one of its authors"
        floor = price[h]
        for k in row:
            if cost[k] < floor:
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


def solve_hard_lp(
    instance: Instance, b: int | None = None
) -> tuple[Assignment | None, SolveReport]:
    """The assignment at the certified optimal vertex of :func:`.program.build_hard_lp`'s relaxation.

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
    """Certified optimum of :func:`.program.build_soft_lp`'s epigraph relaxation: the core's vertex.

    Its objective is :func:`solve_soft_exact`'s, bit for bit: the same sums in the same order.
    """
    b, lam = resolve_limits(instance, b, lam, soft=True)
    assignment = _certified_assignment(instance, b, lam, soft=True)
    nominee = assignment.nominee
    x = {(i, j): float(nominee[i - 1] == j) for i, j in instance.authorship}
    report = report_for(instance, assignment, "soft-lp", soft=(b, lam))
    y = tuple(float(max(0, load - b)) for load in report.loads)
    return FractionalSolution(x, y), replace(report, loads=None)


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
