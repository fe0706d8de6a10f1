"""Randomized invariants checked against the brute-force oracles."""

import argparse
import copy
import pickle
from itertools import chain, islice

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from deskrisk import (
    Instance,
    author_loads,
    greedy_assign_basic,
    oracle_basic,
    oracle_hard,
    oracle_soft,
    solve_hard,
    solve_soft,
    solve_soft_exact,
    validate,
)
from deskrisk.cli import ROUTES
from deskrisk.instance import (
    _NAMED_PAPERS,
    _count_problem,
    _integer,
    _lambda_problem,
    _limit_problem,
    _number,
    _shown,
    replace,
)
from deskrisk.io import dumps, report_to_dict


def instances():
    def build(m):
        row = st.lists(
            st.integers(min_value=1, max_value=m), min_size=1, max_size=m, unique=True
        ).map(sorted)
        rows = st.lists(row, min_size=1, max_size=5)
        p = st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
        return st.builds(lambda r, pr: Instance.from_rows(r, pr), rows, p)

    return st.integers(min_value=1, max_value=5).flatmap(build)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_greedy_is_always_optimal(inst):
    _, report = greedy_assign_basic(inst)
    _, best = oracle_basic(inst)
    assert report.objective == best


@given(instances(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_flow_solver_agrees_with_oracle(inst, b):
    expected = oracle_hard(inst, b)
    assignment, report = solve_hard(inst, b)
    if expected is None:
        assert assignment is None
    else:
        assert assignment is not None
        assert abs(report.objective - expected[1]) <= 1e-9
        assert max(author_loads(inst, assignment)) <= b


@given(
    instances(),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.1, 1.0, 10.0]),
)
@settings(max_examples=40, deadline=None)
def test_soft_chain_holds(inst, b, lam):
    _, oracle_objective = oracle_soft(inst, b, lam)
    _, report = solve_soft(inst, b, lam)
    _, exact = solve_soft_exact(inst, b, lam)
    assert report.lp_bound <= oracle_objective + 1e-7
    assert oracle_objective <= report.rounded_objective + 1e-7
    assert abs(exact.objective - oracle_objective) <= 1e-9


# How a drawn row list is spoiled, if at all; "clean" rows pass the load pass as given.
ROW_FAULTS = (
    "clean", "clean", "clean", "duplicate", "unsorted", "empty-row", "author-zero",
    "author-past-m", "bool", "numpy-int", "no-rows", "m-below-p", "m-above-p",
)


@st.composite
def row_inputs(draw):
    """``(rows, p, m, b, lam)`` for :meth:`Instance.from_rows`, clean or spoiled one way."""
    m = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True).map(sorted)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    p = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    fault, at = draw(st.sampled_from(ROW_FAULTS)), draw(st.integers(0, len(rows) - 1))
    m_given = None
    if fault == "duplicate":
        rows[at] = rows[at] + rows[at][-1:]
    elif fault == "unsorted":
        first, *rest = rows[at]
        rows[at] = [*rest, first] if rest else [first + 1, first]
    elif fault == "empty-row":
        rows[at] = []
    elif fault == "author-zero":
        rows[at] = [0, *rows[at]]
    elif fault == "author-past-m":
        rows[at] = [*rows[at], m + 1]
    elif fault == "bool":
        rows[at] = [True, *(j for j in rows[at] if j != 1)]  # author 1 as a bool
    elif fault == "numpy-int":
        rows[at] = [np.int64(j) for j in rows[at]]
    elif fault == "no-rows":
        rows = []
    elif fault.startswith("m-"):
        m_given = m - 1 if fault == "m-below-p" else m + 1
    b = draw(st.integers(1, 3))
    lam = draw(st.sampled_from([0.1, 1.0]))
    return rows, p, m_given, b, lam


def outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return "returns", call()
    except Exception as exc:
        return "raises", type(exc), str(exc)


def route_bytes(instance):
    """Each CLI solve route's report text on ``instance``, or what it raises."""
    args = argparse.Namespace(b=None, lam=None, seed=3, cap=None)
    return {
        route: outcome(lambda: dumps(report_to_dict(*reversed(solve(instance, args)))))
        for route, solve in ROUTES.items()
    }


def _reference_sorted_pairs(authorship):
    """The pairs of integer ids, sorted, then every other pair as given.

    The instance kept its pairs in this form before it kept rows.
    """
    ids, odd = [], []
    for i, j in authorship:
        if type(i) is not int:
            i = _integer(i)
        if type(j) is not int:
            j = _integer(j)
        (ids if type(i) is int is type(j) else odd).append((i, j))
    return tuple(sorted(ids)) + tuple(odd)


def _reference_violations(n, m, authorship, p, b=None, lam=None):
    """What ``validate`` names, found pair by pair, as it was before instances kept rows."""
    n, m, b = _integer(n), _integer(m), _integer(b)
    p, lam = tuple(v if type(v) is float else _number(v) for v in p), _number(lam)
    n_problem, m_problem = _count_problem("n", n), _count_problem("m", m)
    violations = [problem for problem in (n_problem, m_problem) if problem]
    top_n = 0 if n_problem else n
    top_m = 0 if m_problem else m
    previous = None
    uncovered = []
    unseen = 1
    for pair in _reference_sorted_pairs(authorship):
        i, j = pair
        if not type(i) is int is type(j):
            violations.append(f"authorship pair ({_shown(i)}, {_shown(j)}) must hold integers")
            continue
        if not (1 <= i <= top_n) or not (1 <= j <= top_m):
            violations.append(f"authorship pair ({_shown(i)}, {_shown(j)}) out of range")
            continue
        if pair == previous:
            violations.append(f"duplicate authorship pair ({i}, {j})")
        previous = pair
        if i > unseen:
            uncovered.append(range(unseen, i))
        unseen = i + 1
    uncovered.append(range(unseen, top_n + 1))
    named = list(islice(chain.from_iterable(uncovered), _NAMED_PAPERS))
    violations.extend(f"paper {i} has no authors" for i in named)
    more = sum(run.stop - run.start for run in uncovered) - len(named)
    if more:
        violations.append(f"… and {more} more papers have no authors")
    if len(p) != m:
        violations.append(f"p has length {len(p)}, expected m={_shown(m)}")
    for j, pj in enumerate(p, start=1):
        if isinstance(pj, bool) or not isinstance(pj, (float, int)):
            violations.append(f"p_{j} must be a number, got {pj!r}")
        elif not (0.0 <= pj <= 1.0):
            violations.append(f"p_{j} out of [0,1]: {_shown(pj)}")
    limit_problem = "" if b is None else _limit_problem(b)
    if limit_problem:
        violations.append(limit_problem)
    lambda_problem = "" if lam is None else _lambda_problem(lam)
    if lambda_problem:
        violations.append(lambda_problem)
    return violations


# Pairs that fit no row of the drawn rows, or one more pair for paper n, by the n they are for.
STRAYS = {
    "paper-0": lambda n: (0, 1),
    "paper-past-n": lambda n: (n + 1, 1),
    "paper-n": lambda n: (n, 1),
    "float-paper": lambda n: (1.5, 1),
    "str-author": lambda n: (1, "x"),
}


@given(
    row_inputs(),
    st.lists(st.sampled_from(sorted(STRAYS)), max_size=3),
    st.sampled_from([None, 150, 10**20]),
)
@settings(max_examples=150, deadline=None)
def test_rows_match_the_pair_path(drawn, strays, wide):
    rows, p, m, b, lam = drawn
    by_rows = Instance.from_rows(rows, p, b=b, lam=lam, m=m)
    pairs = tuple((i, j) for i, row in enumerate(rows, start=1) for j in row)
    m = len(p) if m is None else m
    by_pairs = Instance(len(rows), m, pairs, p, b, lam)
    # Everything a solve reads first, while neither instance holds its pairs yet.
    copies = pickle.loads(pickle.dumps(by_rows)), copy.copy(by_rows)
    assert by_rows.nnz == by_pairs.nnz
    assert by_rows.rows == by_pairs.rows
    assert validate(by_rows) == validate(by_pairs) == _reference_violations(
        len(rows), m, pairs, p, b, lam
    )
    assert outcome(lambda: by_rows._core) == outcome(lambda: by_pairs._core)
    assert route_bytes(by_rows) == route_bytes(by_pairs)
    assert by_rows.authorship == by_pairs.authorship
    assert by_rows == by_pairs and hash(by_rows) == hash(by_pairs)
    assert repr(by_rows) == repr(by_pairs) and replace(by_rows) == by_pairs
    assert all(copied == by_pairs for copied in copies)
    # Stray pairs, and a paper count a little or far past the pairs (none per paper).
    n = len(rows) if wide is None else wide
    more = pairs + tuple(STRAYS[kind](n) for kind in strays)
    stray = Instance(n, m, more, p, b, lam)
    assert validate(stray) == _reference_violations(n, m, more, p, b, lam)
    assert stray.authorship == _reference_sorted_pairs(more) and stray.nnz == len(more)
