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
from pathlib import Path
from typing import Any, Callable

from .baselines import (
    BaselineResult,
    greedy_assign_hard,
    greedy_assign_soft,
    rand_assign_hard,
    rand_assign_soft,
)
from .flow import FlowNetwork, build_hard_network, build_soft_network, solve_hard, solve_soft_exact
from .generate import GeneratorSpec, generate
from .greedy import greedy_assign_basic
from .instance import (
    Assignment,
    Instance,
    SolveReport,
    SolveStatus,
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
from .lp import LinearProgram, build_hard_lp, build_soft_lp, solve_hard_lp, solve_soft
from .oracle import DEFAULT_ENUMERATION_CAP, oracle_basic, oracle_hard, oracle_soft

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


def _reported(
    instance: Instance, solver: str, found: Any, seed: int | None = None, soft: tuple | None = None
) -> tuple[Assignment | None, SolveReport]:
    """Report an oracle's or a baseline's answer; Infeasible when it has none.

    ``found`` is an assignment, an ``(assignment, objective)`` pair, a
    :class:`BaselineResult` (``err`` means none), or ``None``.  ``soft`` is
    ``(b, lam)`` for the soft objective.
    """
    if isinstance(found, tuple):
        found = found[0]
    elif isinstance(found, BaselineResult):
        found = None if found.err else found.assignment
    if found is None:
        return None, SolveReport(status=SolveStatus.INFEASIBLE, solver=solver, seed=seed)
    return found, report_for(instance, found, solver, seed, soft)


# (variant, algorithm) -> the library call that answers it.  Limits go to the
# solvers as given; an unset one means the instance's own.
ROUTES: dict[tuple[str, str], Callable[..., tuple[Assignment | None, SolveReport]]] = {
    ("basic", "greedy"): lambda inst, a: greedy_assign_basic(inst, seed=a.seed),
    ("basic", "oracle"): lambda inst, a: _reported(
        inst, "oracle-basic", oracle_basic(inst, cap=a.cap)
    ),
    ("hard", "flow"): lambda inst, a: solve_hard(inst, a.b),
    ("hard", "lp"): lambda inst, a: solve_hard_lp(inst, a.b),
    ("hard", "oracle"): lambda inst, a: _reported(
        inst, "oracle-hard", oracle_hard(inst, a.b, cap=a.cap)
    ),
    ("hard", "baseline-rand"): lambda inst, a: _reported(
        inst, "baseline-rand-hard", rand_assign_hard(inst, a.b, seed=a.seed), a.seed
    ),
    ("hard", "baseline-greedy"): lambda inst, a: _reported(
        inst, "baseline-greedy-hard", greedy_assign_hard(inst, a.b, seed=a.seed), a.seed
    ),
    ("soft", "lp-round"): lambda inst, a: solve_soft(inst, a.b, a.lam),
    ("soft", "exact-flow"): lambda inst, a: solve_soft_exact(inst, a.b, a.lam),
    ("soft", "oracle"): lambda inst, a: _reported(
        inst, "oracle-soft", oracle_soft(inst, a.b, a.lam, cap=a.cap), soft=(a.b, a.lam)
    ),
    ("soft", "baseline-rand"): lambda inst, a: _reported(
        inst, "baseline-rand-soft", rand_assign_soft(inst, a.b, seed=a.seed), a.seed, (a.b, a.lam)
    ),
    ("soft", "baseline-greedy"): lambda inst, a: _reported(
        inst,
        "baseline-greedy-soft",
        greedy_assign_soft(inst, a.b, a.lam, seed=a.seed),
        a.seed,
        (a.b, a.lam),
    ),
}

# The model a route exports: the paper's flow network on the flow routes
# (--dump-network), the linear program on the LP routes (--dump-lp).
EXPORTS: dict[str, dict[tuple[str, str], Callable[..., FlowNetwork | LinearProgram]]] = {
    "network": {
        ("hard", "flow"): lambda inst, a: build_hard_network(inst, a.b)[0],
        ("soft", "exact-flow"): lambda inst, a: build_soft_network(inst, a.b, a.lam)[0],
    },
    "lp": {
        ("hard", "lp"): lambda inst, a: build_hard_lp(inst, a.b)[0],
        ("soft", "lp-round"): lambda inst, a: build_soft_lp(inst, a.b, a.lam)[0],
    },
}


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


def run_cli(argv: list[str]) -> int:
    # numpy loads later, only for --dump-lp: no route loads it.  Nothing here
    # calls BLAS, so OpenBLAS's thread pool would only add to numpy's import
    # (0.15 s against 0.09 s on a 2-vCPU machine).  A value the caller set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_INPUT_ERROR
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError) as exc:
        # Input errors are ValueErrors; the oracle's enumeration cap and an
        # LP route answer that fails its check are RuntimeErrors.
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
        choices=sorted({algorithm for _, algorithm in ROUTES}),
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
    route = (args.variant, args.algorithm)
    if route not in ROUTES:
        valid = ", ".join(algorithm for variant, algorithm in ROUTES if variant == args.variant)
        raise ValueError(
            f"algorithm {args.algorithm!r} does not apply to the {args.variant} variant"
            f" (choose from: {valid})"
        )
    instance = load_instance(args.file)
    require_valid(instance)
    for kind, builders in EXPORTS.items():
        path = getattr(args, f"dump_{kind}")
        if path:
            if route not in builders:
                names = " and ".join(algorithm for _, algorithm in builders)
                raise ValueError(f"--dump-{kind} applies to the {names} algorithms")
            Path(path).write_text(dumps(_model_to_dict(builders[route](instance, args))))
    solution, report = ROUTES[route](instance, args)
    text = dumps(report_to_dict(report, solution))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_INFEASIBLE if report.status is SolveStatus.INFEASIBLE else EXIT_OK


def _cmd_import_csv(args: argparse.Namespace) -> int:
    instance = load_instance_csv(args.pairs, args.probabilities, b=args.b, lam=args.lam)
    require_valid(instance)
    save_instance(instance, args.output)
    return EXIT_OK


def _model_to_dict(model: FlowNetwork | LinearProgram) -> dict[str, Any]:
    if isinstance(model, FlowNetwork):
        return {
            "format": 1,
            "num_vertices": model.num_vertices,
            "supply": list(model.supply),
            "edges": [[e.tail, e.head, e.lower, e.capacity, e.cost] for e in model.edges],
        }
    return {
        "format": 1,
        "num_vars": model.num_vars,
        "objective": list(model.objective),
        "lower": list(model.lower),
        "upper": list(model.upper),
        "eq": [{"coeffs": [[k, c] for k, c in row], "rhs": rhs} for row, rhs in model.eq_rows],
        "ineq": [
            {"coeffs": [[k, c] for k, c in row], "rhs": rhs, "sense": sense}
            for row, rhs, sense in model.ineq_rows
        ],
    }


if __name__ == "__main__":
    main()
