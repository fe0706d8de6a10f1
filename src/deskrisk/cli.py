"""Command-line interface.

Subcommands: ``validate``, ``gen``, ``solve``, ``oracle``, ``import-csv``.
Exit codes are a stable contract: 0 solved/valid, 2 infeasible, 1 input
or solver error (bad file, bad flags, invalid instance, failed backend).
Reports are SolveReport JSON, written to stdout or to ``-o``, and always
carry the nominee vector when a solution exists so objectives can be
re-derived from the instance alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Any

from .baselines import greedy_assign_hard, greedy_assign_soft, rand_assign_hard, rand_assign_soft
from .flow import FlowNetwork, build_hard_network, build_soft_network, solve_hard
from .generate import GeneratorSpec, generate
from .greedy import greedy_assign_basic
from .instance import (
    Assignment,
    Instance,
    SolveReport,
    SolveStatus,
    assignment_from_pairs,
    report_for,
    require_valid,
    validate,
)
from .io import (
    dumps,
    instance_to_dict,
    load_instance,
    load_instance_csv,
    report_to_dict,
    save_instance,
)
from .lp import LinearProgram, LpStatus, build_hard_lp, build_soft_lp, solve_lp
from .oracle import DEFAULT_ENUMERATION_CAP, oracle_basic, oracle_hard, oracle_soft
from .soft import solve_soft, solve_soft_exact

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2

INTEGRALITY_TOL = 1e-9

ALGORITHMS = {
    "basic": ("greedy", "oracle"),
    "hard": ("flow", "lp", "oracle", "baseline-rand", "baseline-greedy"),
    "soft": ("lp-round", "exact-flow", "oracle", "baseline-rand", "baseline-greedy"),
}


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv: list[str]) -> int:
    # numpy loads later, on the LP routes only.  HiGHS never calls BLAS and
    # the certificate avoids it, so OpenBLAS's thread pool would only add to
    # numpy's import (0.15 s against 0.09 s on a 2-vCPU machine).  A value
    # the caller set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # Input errors are ValueErrors; the oracle's enumeration cap and a
        # backend answer the soft solvers refuse to trust are RuntimeErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskrisk",
        description="Reciprocal-reviewer nomination solvers minimizing expected desk rejections.",
    )
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p_validate = sub.add_parser("validate", help="check an instance file against all invariants")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--n", type=int, required=True, help="number of papers")
    p_gen.add_argument("--m", type=int, required=True, help="number of authors")
    p_gen.add_argument("--amin", type=int, required=True, help="min authors per paper")
    p_gen.add_argument("--amax", type=int, required=True, help="max authors per paper")
    p_gen.add_argument("--plo", type=float, default=0.0, help="lower end of the p range")
    p_gen.add_argument("--phi", type=float, default=1.0, help="upper end of the p range")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="write instance JSON here instead of stdout")
    p_gen.set_defaults(handler=_cmd_gen)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    _add_solve_args(p_solve)
    p_solve.add_argument(
        "--algorithm",
        required=True,
        choices=sorted({name for names in ALGORITHMS.values() for name in names}),
    )
    p_solve.add_argument("--seed", type=int, help="seed for randomized tie-breaking")
    p_solve.add_argument("--dump-network", metavar="PATH", help="dump the flow network as JSON")
    p_solve.add_argument("--dump-lp", metavar="PATH", help="dump the linear program as JSON")
    p_solve.set_defaults(handler=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force the exact optimum (small instances)")
    _add_solve_args(p_oracle)
    p_oracle.set_defaults(
        handler=_cmd_solve, algorithm="oracle", seed=None, dump_network=None, dump_lp=None
    )

    p_csv = sub.add_parser("import-csv", help="convert paper_id,author_id + p CSVs to JSON")
    p_csv.add_argument("pairs", help="CSV of paper_id,author_id rows")
    p_csv.add_argument("probabilities", help="CSV of author_id,p rows")
    p_csv.add_argument("--b", type=int)
    p_csv.add_argument("--lambda", dest="lam", type=float)
    p_csv.add_argument("-o", "--output", required=True)
    p_csv.set_defaults(handler=_cmd_import_csv)

    return parser


def _add_solve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file")
    parser.add_argument("--variant", required=True, choices=("basic", "hard", "soft"))
    parser.add_argument("--b", type=int, help="nomination limit (overrides the instance file)")
    parser.add_argument(
        "--lambda", dest="lam", type=float, help="penalty weight (overrides the instance file)"
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_ENUMERATION_CAP,
        help="enumeration cap for the oracle",
    )
    parser.add_argument("-o", "--output", help="write report JSON here instead of stdout")


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.file)
    violations = validate(instance)
    if violations:
        for violation in violations:
            print(violation)
        return EXIT_INPUT_ERROR
    print("ok")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        n=args.n,
        m=args.m,
        authors_min=args.amin,
        authors_max=args.amax,
        p_low=args.plo,
        p_high=args.phi,
        seed=args.seed,
    )
    instance = generate(spec)
    if args.output:
        save_instance(instance, args.output)
    else:
        sys.stdout.write(dumps(instance_to_dict(instance)))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.algorithm not in ALGORITHMS[args.variant]:
        valid = ", ".join(ALGORITHMS[args.variant])
        raise ValueError(
            f"algorithm {args.algorithm!r} does not apply to the {args.variant} variant"
            f" (choose from: {valid})"
        )
    instance = load_instance(args.file)
    require_valid(instance)
    # Limits go to the solvers as given; an unset one means the instance's own.
    if args.dump_network:
        _dump_network(args, instance)
    if args.dump_lp:
        _dump_lp(args, instance)

    if args.variant == "basic":
        report_obj = _solve_basic(args, instance)
    elif args.variant == "hard":
        report_obj = _solve_hard(args, instance)
    else:
        report_obj = _solve_soft(args, instance)
    return _emit(args, report_obj)


def _cmd_import_csv(args: argparse.Namespace) -> int:
    instance = load_instance_csv(args.pairs, args.probabilities, b=args.b, lam=args.lam)
    require_valid(instance)
    save_instance(instance, args.output)
    return EXIT_OK


def _report(
    instance: Instance,
    assignment: Assignment,
    solver: str,
    seed: int | None = None,
    soft: tuple[int | None, float | None] | None = None,
) -> dict[str, Any]:
    return report_to_dict(report_for(instance, assignment, solver, seed, soft), assignment)


def _solve_basic(args: argparse.Namespace, instance: Instance) -> dict[str, Any]:
    if args.algorithm == "greedy":
        assignment, report = greedy_assign_basic(instance, seed=args.seed)
        return report_to_dict(report, assignment)
    assignment, _ = oracle_basic(instance, cap=args.cap)
    return _report(instance, assignment, "oracle-basic")


def _solve_hard(args: argparse.Namespace, instance: Instance) -> dict[str, Any]:
    if args.algorithm == "flow":
        assignment, report = solve_hard(instance, args.b)
        return report_to_dict(report, assignment)
    if args.algorithm == "lp":
        return _solve_hard_lp(instance, args.b)
    if args.algorithm == "oracle":
        best = oracle_hard(instance, args.b, cap=args.cap)
        if best is None:
            return report_to_dict(SolveReport(status=SolveStatus.INFEASIBLE, solver="oracle-hard"))
        return _report(instance, best[0], "oracle-hard")
    if args.algorithm == "baseline-rand":
        result = rand_assign_hard(instance, args.b, seed=args.seed)
        solver = "baseline-rand-hard"
    else:
        result = greedy_assign_hard(instance, args.b, seed=args.seed)
        solver = "baseline-greedy-hard"
    if result.err:
        return report_to_dict(
            SolveReport(status=SolveStatus.INFEASIBLE, solver=solver, seed=args.seed)
        )
    return _report(instance, result.assignment, solver, args.seed)


def _solve_hard_lp(instance: Instance, b: int | None) -> dict[str, Any]:
    lp, pair_vars = build_hard_lp(instance, b)
    solution = solve_lp(lp)
    if solution.status is LpStatus.INFEASIBLE:
        return report_to_dict(SolveReport(status=SolveStatus.INFEASIBLE, solver="hard-lp"))
    if solution.status is not LpStatus.OPTIMAL:
        return report_to_dict(
            SolveReport(status=SolveStatus.ERROR, solver="hard-lp"),
            extra={"message": solution.message},
        )
    assert solution.values is not None
    integral = all(
        min(value, abs(value - 1.0)) <= INTEGRALITY_TOL for value in solution.values
    )
    if integral:
        assignment = assignment_from_pairs(instance, pair_vars, solution.values)
        report = replace(report_for(instance, assignment, "hard-lp"), integral=True)
        return report_to_dict(report, assignment)
    expected = 0.0
    for (_, j), k in pair_vars.items():
        expected += instance.p[j - 1] * solution.values[k]
    report = SolveReport(
        status=SolveStatus.OPTIMAL,
        objective=expected,
        expected_rejections=expected,
        penalty=0.0,
        loads=None,
        solver="hard-lp",
        integral=False,
    )
    fractional = [
        [i, j, solution.values[k]]
        for (i, j), k in sorted(pair_vars.items())
        if solution.values[k] > INTEGRALITY_TOL
    ]
    return report_to_dict(report, extra={"x": fractional})


def _solve_soft(args: argparse.Namespace, instance: Instance) -> dict[str, Any]:
    if args.algorithm == "lp-round":
        assignment, report = solve_soft(instance, args.b, args.lam)
        return report_to_dict(report, assignment)
    if args.algorithm == "exact-flow":
        assignment, report = solve_soft_exact(instance, args.b, args.lam)
        return report_to_dict(report, assignment)
    if args.algorithm == "oracle":
        assignment, _ = oracle_soft(instance, args.b, args.lam, cap=args.cap)
        return _report(instance, assignment, "oracle-soft", soft=(args.b, args.lam))
    if args.algorithm == "baseline-rand":
        assignment = rand_assign_soft(instance, args.b, seed=args.seed)
        return _report(instance, assignment, "baseline-rand-soft", args.seed, (args.b, args.lam))
    assignment = greedy_assign_soft(instance, args.b, args.lam, seed=args.seed)
    return _report(instance, assignment, "baseline-greedy-soft", args.seed, (args.b, args.lam))


def _emit(args: argparse.Namespace, report_obj: dict[str, Any]) -> int:
    text = dumps(report_obj)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if report_obj["status"] == SolveStatus.INFEASIBLE.value:
        return EXIT_INFEASIBLE
    if report_obj["status"] == SolveStatus.ERROR.value:
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _network_to_dict(network: FlowNetwork) -> dict[str, Any]:
    return {
        "format": 1,
        "num_vertices": network.num_vertices,
        "supply": list(network.supply),
        "edges": [[e.tail, e.head, e.lower, e.capacity, e.cost] for e in network.edges],
    }


def _lp_to_dict(lp: LinearProgram) -> dict[str, Any]:
    return {
        "format": 1,
        "num_vars": lp.num_vars,
        "objective": list(lp.objective),
        "lower": list(lp.lower),
        "upper": list(lp.upper),
        "eq": [{"coeffs": [[k, c] for k, c in row], "rhs": rhs} for row, rhs in lp.eq_rows],
        "ineq": [
            {"coeffs": [[k, c] for k, c in row], "rhs": rhs, "sense": sense}
            for row, rhs, sense in lp.ineq_rows
        ],
    }


def _dump_network(args: argparse.Namespace, instance: Instance) -> None:
    if args.variant == "hard" and args.algorithm == "flow":
        network, _ = build_hard_network(instance, args.b)
    elif args.variant == "soft" and args.algorithm == "exact-flow":
        network, _ = build_soft_network(instance, args.b, args.lam)
    else:
        raise ValueError("--dump-network applies to the flow and exact-flow algorithms")
    with open(args.dump_network, "w") as handle:
        handle.write(dumps(_network_to_dict(network)))


def _dump_lp(args: argparse.Namespace, instance: Instance) -> None:
    if args.variant == "hard" and args.algorithm == "lp":
        lp, _ = build_hard_lp(instance, args.b)
    elif args.variant == "soft" and args.algorithm == "lp-round":
        lp, _, _ = build_soft_lp(instance, args.b, args.lam)
    else:
        raise ValueError("--dump-lp applies to the lp and lp-round algorithms")
    with open(args.dump_lp, "w") as handle:
        handle.write(dumps(_lp_to_dict(lp)))


if __name__ == "__main__":
    main()
