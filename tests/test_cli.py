import json
import os
import random
import re
import subprocess
import sys

import pytest
from conftest import FIXTURES

import deskrisk
from deskrisk import (
    Assignment,
    basic_objective,
    load_instance,
    soft_objective,
)
from deskrisk.cli import run_cli

SRC = FIXTURES.parent / "src"

# Imports a module, optionally runs the CLI, then prints the exit code, every
# numpy/scipy top-level package and every deskrisk module left in sys.modules
# to stderr, as JSON.
IMPORT_PROBE = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
code = 0
if sys.argv[2:]:
    from deskrisk.cli import run_cli
    code = run_cli(sys.argv[2:])
heavy = sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy"})
own = sorted(name for name in sys.modules if name.split(".")[0] == "deskrisk")
print(json.dumps([code, heavy, own]), file=sys.stderr)
"""

# Reads the package's public names in the order given on the command line,
# then prints each name whose object is not its defining module's own.
NAMES_PROBE = """
import importlib, sys
import deskrisk
got = {name: getattr(deskrisk, name) for name in sys.argv[1:]}
wrong = []
for name, value in got.items():
    # Only the oracle's enumeration cap, an int, has no __module__.
    home = importlib.import_module(getattr(value, "__module__", "deskrisk.oracle"))
    if getattr(home, name, None) is not value or getattr(deskrisk, name) is not value:
        wrong.append(name)
print(*wrong)
"""

HIGHS_BINDING = "scipy.optimize._highspy._core"

# Runs the CLI, then prints the exit code, whether numpy loaded, and the
# OpenBLAS thread setting the process ended with, to stderr.
BLAS_PROBE = """
import os, sys
from deskrisk.cli import run_cli
code = run_cli(sys.argv[1:])
print(code, "numpy" in sys.modules, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""

# Solves with solve_lp before or after importing scipy.optimize, then solves
# with both, and prints whether both use one binding module.
ORDER_PROBE = """
import sys
from deskrisk import LinearProgram, solve_lp
from deskrisk.program import _binding

def status():
    lp = LinearProgram.minimize([1.0, 2.0])
    lp.upper = [1.0, 1.0]
    lp.add_eq([(0, 1.0), (1, 1.0)], 1.0)
    return solve_lp(lp).status.value

first = status() if sys.argv[1] == "solve_lp-first" else None
from scipy.optimize import linprog
import scipy.optimize._highspy._core as core
first = first or status()
result = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], bounds=[(0, 1), (0, 1)])
print(first, status(), result.status, result.fun, core is _binding())
"""

# Four threads make their first solve_lp call at once, with a tiny switch
# interval, then print their statuses and how many threads are still alive.
THREADS_PROBE = """
import sys, threading
from deskrisk import LinearProgram, solve_lp

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4)
statuses = []

def work():
    lp = LinearProgram.minimize([1.0])
    lp.upper = [1.0]
    barrier.wait()
    statuses.append(solve_lp(lp).status.value)

threads = [threading.Thread(target=work) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(*statuses, sum(thread.is_alive() for thread in threads))
"""


def src_env():
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


def run_probe(module, argv=()):
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, module, *argv],
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    code, heavy, own = json.loads(result.stderr.splitlines()[-1])
    return code, heavy, own


def read_report(path):
    return json.loads(path.read_text())


class TestValidateCommand:
    def test_valid_fixture(self, capsys):
        assert run_cli(["validate", str(FIXTURES / "frac_2x2.json")]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_invalid_instance_lists_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "papers": [[]], "p": [2.0]}))
        assert run_cli(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "paper 1 has no authors" in out
        assert "p_1 out of [0,1]" in out

    def test_missing_file(self, capsys):
        assert run_cli(["validate", "no-such-file.json"]) == 1

    def test_lambda_too_large_for_a_float_is_named(self, tmp_path, capsys):
        obj = json.loads((FIXTURES / "frac_2x2.json").read_text())
        obj["lambda"] = 10**400  # json writes the 401 digits
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        assert run_cli(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"lambda must be > 0 and finite, got {10**400}\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name, code, out", [("frac_2x2.json", 0, "ok\n"), ("no-such-file.json", 1, "")]
    )
    def test_module_entry_point(self, name, code, out):
        result = subprocess.run(
            [sys.executable, "-m", "deskrisk.cli", "validate", str(FIXTURES / name)],
            env=src_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == code
        assert result.stdout == out
        assert "Traceback" not in result.stderr


class TestImportBoundary:
    """Only ``--dump-lp`` and ``solve_lp`` may load numpy and scipy; no route may."""

    FRAC = str(FIXTURES / "frac_2x2.json")

    @pytest.mark.parametrize("module", ["deskrisk", "deskrisk.cli"])
    def test_import_loads_no_numpy_or_scipy(self, module):
        assert run_probe(module)[:2] == (0, [])

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["solve", "--variant", "basic", "--algorithm", "greedy"],
            ["solve", "--variant", "hard", "--b", "1", "--algorithm", "flow"],
            ["solve", "--variant", "soft", "--b", "1", "--lambda", "0.5",
             "--algorithm", "exact-flow"],
            ["oracle", "--variant", "hard", "--b", "1"],
            ["solve", "--variant", "hard", "--b", "1", "--algorithm", "lp"],
            ["solve", "--variant", "soft", "--b", "1", "--lambda", "0.5",
             "--algorithm", "lp-round"],
        ],
        ids=["validate", "greedy", "flow", "exact-flow", "oracle", "lp", "lp-round"],
    )
    def test_non_lp_routes_load_no_numpy_or_scipy(self, argv, tmp_path):
        argv = [argv[0], self.FRAC, *argv[1:]]
        if argv[0] != "validate":
            argv += ["-o", str(tmp_path / "report.json")]
        assert run_probe("deskrisk.cli", argv)[:2] == (0, [])

    @pytest.mark.parametrize(("given", "seen"), [(None, "1"), ("2", "2")])
    def test_lp_command_loads_numpy_with_one_blas_thread_unless_told(self, given, seen, tmp_path):
        # --dump-lp builds the program as numpy arrays: the one CLI path that loads numpy.
        env = src_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        argv = ["solve", self.FRAC, "--variant", "hard", "--b", "1", "--algorithm", "lp",
                "--dump-lp", str(tmp_path / "lp.json"), "-o", str(tmp_path / "report.json")]
        result = subprocess.run(
            [sys.executable, "-c", BLAS_PROBE, *argv], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.split() == ["0", "True", seen]

    def test_threads_share_one_binding_load(self):
        result = subprocess.run(
            [sys.executable, "-c", THREADS_PROBE],
            env=src_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["Optimal"] * 4 + ["0"]

    @pytest.mark.parametrize("order", ["solve_lp-first", "scipy.optimize-first"])
    def test_binding_is_shared_with_scipy_optimize_in_either_order(self, order):
        result = subprocess.run(
            [sys.executable, "-c", ORDER_PROBE, order],
            env=src_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["Optimal", "Optimal", "0", "1.0", "True"]


SOLVE_PATH = ["deskrisk", "deskrisk.flow", "deskrisk.greedy", "deskrisk.instance", "deskrisk.io",
              "deskrisk.lp"]


def public_name_orders():
    """Orders in which to read ``__all__``: the generator's two names both ways, and shuffles."""
    rest = [name for name in deskrisk.__all__ if name not in ("GeneratorSpec", "generate")]
    orders = [["GeneratorSpec", "generate", *rest], ["generate", "GeneratorSpec", *rest]]
    for seed in (1, 2):
        orders.append(random.Random(seed).sample(deskrisk.__all__, len(deskrisk.__all__)))
    return orders


class TestLazyLoading:
    """``import deskrisk`` and every benchmark route load only the solve path.

    Every other module loads with the first use of one of its names.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["--variant", "basic", "--algorithm", "greedy"],
            ["--variant", "hard", "--b", "1", "--algorithm", "flow"],
            ["--variant", "hard", "--b", "1", "--algorithm", "lp"],
            ["--variant", "soft", "--b", "1", "--lambda", "0.5", "--algorithm", "lp-round"],
            ["--variant", "soft", "--b", "1", "--lambda", "0.5", "--algorithm", "exact-flow"],
        ],
        ids=["basic", "hard", "hard_lp", "soft", "soft_exact"],
    )
    def test_benchmark_routes_load_only_the_solve_path(self, argv, tmp_path):
        argv = ["solve", str(FIXTURES / "frac_2x2.json"), *argv, "-o", str(tmp_path / "out.json")]
        assert run_probe("deskrisk.cli", argv) == (0, [], sorted([*SOLVE_PATH, "deskrisk.cli"]))

    def test_import_loads_only_the_solve_path(self):
        assert run_probe("deskrisk") == (0, [], SOLVE_PATH)

    @pytest.mark.parametrize(
        ("argv", "module"),
        [
            (["oracle", "{frac}", "--variant", "hard", "--b", "1"], "oracle"),
            (["solve", "{frac}", "--variant", "hard", "--b", "1", "--algorithm", "baseline-rand",
              "--seed", "3"], "baselines"),
            (["solve", "{frac}", "--variant", "hard", "--b", "1", "--algorithm", "flow",
              "--dump-network", "{dump}"], "network"),
            (["solve", "{frac}", "--variant", "hard", "--b", "1", "--algorithm", "lp",
              "--dump-lp", "{dump}"], "program"),
            (["gen", "--n", "3", "--m", "2", "--amin", "1", "--amax", "2"], "generator"),
        ],
        ids=["oracle", "baseline", "dump-network", "dump-lp", "gen"],
    )
    def test_other_commands_load_their_own_module(self, argv, module, tmp_path):
        names = {"frac": FIXTURES / "frac_2x2.json", "dump": tmp_path / "dump.json"}
        argv = [arg.format(**names) for arg in argv] + ["-o", str(tmp_path / "out.json")]
        own = run_probe("deskrisk.cli", argv)[2]
        assert own == sorted([*SOLVE_PATH, "deskrisk.cli", f"deskrisk.{module}"])

    @pytest.mark.parametrize(
        "order",
        public_name_orders(),
        ids=["GeneratorSpec-first", "generate-first", "shuffled-1", "shuffled-2"],
    )
    def test_every_public_name_is_its_modules_own_in_any_order(self, order):
        result = subprocess.run(
            [sys.executable, "-c", NAMES_PROBE, *order],
            env=src_env(),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    def test_dir_lists_every_public_name_before_any_loads(self):
        code = "import deskrisk; print(*sorted(set(deskrisk.__all__) - set(dir(deskrisk))))"
        result = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    @pytest.mark.parametrize(
        "first", ["import deskrisk.generator", "from deskrisk.generator import GeneratorSpec"]
    )
    def test_importing_the_generator_module_leaves_generate_a_function(self, first):
        code = (
            f"{first}\nimport deskrisk\n"
            "print(type(deskrisk.generate).__name__, type(deskrisk.generator).__name__)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["function", "module"]

    def test_no_lazy_module_shares_a_public_name(self):
        assert not set(deskrisk._LAZY) & set(deskrisk.__all__)


class TestGenCommand:
    def test_generates_a_valid_instance_file(self, tmp_path):
        out = tmp_path / "gen.json"
        code = run_cli(
            ["gen", "--n", "99", "--m", "20", "--amin", "3", "--amax", "8",
             "--seed", "7", "-o", str(out)]
        )
        assert code == 0
        inst = load_instance(out)
        assert inst.n == 99
        assert run_cli(["validate", str(out)]) == 0

    def test_impossible_spec_is_an_input_error(self, tmp_path, capsys):
        code = run_cli(
            ["gen", "--n", "5", "--m", "2", "--amin", "3", "--amax", "3",
             "-o", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSolveCommand:
    def test_infeasible_instance_exits_2(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(FIXTURES / "infeasible_5x1.json"), "--variant", "hard",
             "--b", "2", "--algorithm", "flow", "-o", str(out)]
        )
        assert code == 2
        report = read_report(out)
        assert report["status"] == "Infeasible"
        assert report["objective"] is None

    @pytest.mark.parametrize("algorithm", ["lp", "oracle"])
    def test_other_hard_algorithms_agree_on_infeasibility(self, algorithm, capsys):
        code = run_cli(
            ["solve", str(FIXTURES / "infeasible_5x1.json"), "--variant", "hard",
             "--b", "2", "--algorithm", algorithm]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "variant",
        [["hard", "--algorithm", "lp"], ["soft", "--lambda", "0.5", "--algorithm", "lp-round"]],
        ids=["lp", "lp-round"],
    )
    def test_missing_highs_binding_leaves_the_lp_routes_working(
        self, variant, monkeypatch, tmp_path, capsys
    ):
        import deskrisk.program

        missing = str(tmp_path / "_core.so")
        monkeypatch.delitem(sys.modules, HIGHS_BINDING, raising=False)
        monkeypatch.setattr(deskrisk.program, "_binding_path", lambda: missing)
        out = tmp_path / "report.json"
        argv = ["solve", str(FIXTURES / "frac_2x2.json"), "--b", "1", "--variant", *variant]
        assert run_cli(argv + ["-o", str(out)]) == 0
        assert read_report(out)["status"] == "Optimal"
        assert capsys.readouterr().err == ""
        lp = deskrisk.program.build_hard_lp(load_instance(FIXTURES / "frac_2x2.json"), 1)[0]
        with pytest.raises(RuntimeError, match=f"has no HiGHS binding at {re.escape(missing)}$"):
            deskrisk.program.solve_lp(lp)

    def test_hard_lp_reports_one_third_and_integrality_flag(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "hard",
             "--b", "1", "--algorithm", "lp", "-o", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["objective"] == pytest.approx(1 / 3, abs=1e-7)
        assert report["integral"] is True

    def test_greedy_objective_reevaluates_from_the_report(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        run_cli(["gen", "--n", "99", "--m", "20", "--amin", "3", "--amax", "8",
                 "--seed", "7", "-o", str(inst_path)])
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(inst_path), "--variant", "basic", "--algorithm", "greedy",
             "-o", str(out)]
        )
        assert code == 0
        report = read_report(out)
        inst = load_instance(inst_path)
        assignment = Assignment(nominee=tuple(report["nominee"]))
        assert basic_objective(inst, assignment) == report["objective"]
        assert report["objective"] == sum(min(inst.p[j - 1] for j in row) for row in inst.rows)

    def test_soft_report_carries_bound_and_gap(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(FIXTURES / "infeasible_5x1.json"), "--variant", "soft",
             "--b", "2", "--lambda", "0.4", "--algorithm", "lp-round", "-o", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["lp_bound"] == pytest.approx(1.7, abs=1e-7)
        assert report["gap"] == pytest.approx(0.0, abs=1e-7)
        assert report["objective"] == pytest.approx(
            report["expected_rejections"] + report["penalty"], abs=1e-9
        )
        inst = load_instance(FIXTURES / "infeasible_5x1.json")
        assignment = Assignment(nominee=tuple(report["nominee"]))
        objective, _, _ = soft_objective(inst, assignment, b=2, lam=0.4)
        assert objective == report["objective"]

    def test_exact_flow_agrees_with_lp_round_here(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["solve", str(FIXTURES / "infeasible_5x1.json"), "--variant", "soft",
             "--b", "2", "--lambda", "0.4", "--algorithm", "exact-flow", "-o", str(out)]
        )
        assert code == 0
        assert read_report(out)["objective"] == pytest.approx(1.7, abs=1e-9)

    def test_seeded_baseline_reports_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            code = run_cli(
                ["solve", str(FIXTURES / "prop35_tie_2x2.json"), "--variant", "hard",
                 "--b", "1", "--algorithm", "baseline-rand", "--seed", "0",
                 "-o", str(out)]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_baseline_err_maps_to_infeasible_exit(self, tmp_path):
        code = run_cli(
            ["solve", str(FIXTURES / "prop35_tie_2x2.json"), "--variant", "hard",
             "--b", "1", "--algorithm", "baseline-rand", "--seed", "1",
             "-o", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_missing_limit_is_an_input_error(self, capsys):
        code = run_cli(
            ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "hard",
             "--algorithm", "flow"]
        )
        assert code == 1

    @pytest.mark.parametrize("algorithm", ["exact-flow", "lp-round"])
    def test_infinite_lambda_is_an_input_error(self, algorithm, capsys):
        code = run_cli(
            ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "soft", "--b", "1",
             "--lambda", "inf", "--algorithm", algorithm]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lambda" in err

    @pytest.mark.parametrize(
        "field, value", [("lambda", float("inf")), ("p", [float("nan"), 0.5])]
    )
    def test_non_finite_json_token_is_an_input_error(self, tmp_path, capsys, field, value):
        obj = json.loads((FIXTURES / "frac_2x2.json").read_text())
        obj[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(obj))  # writes the Infinity / NaN tokens
        code = run_cli(["solve", str(path), "--variant", "soft", "--b", "1",
                        "--algorithm", "exact-flow"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite number" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("p", [10**400, 0.5], f"p_1 out of [0,1]: {10**400}"),
            ("lambda", 10**400, f"lambda must be > 0 and finite, got {10**400}"),
        ],
        ids=["p", "lambda"],
    )
    def test_number_too_large_for_a_float_is_an_input_error(
        self, tmp_path, capsys, field, value, message
    ):
        obj = json.loads((FIXTURES / "frac_2x2.json").read_text())
        obj[field] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        code = run_cli(["solve", str(path), "--variant", "soft", "--b", "1", "--lambda", "0.5",
                        "--algorithm", "exact-flow"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    @staticmethod
    def zero_prices(monkeypatch):
        """Price every author at 0: author 1's p = 1/6 fails the check on frac_2x2."""
        import deskrisk.lp

        real = deskrisk.lp._slot_prices

        def zero(instance, *limits):
            return real(instance, *limits)[0], [0] * instance.m

        monkeypatch.setattr(deskrisk.lp, "_slot_prices", zero)

    def test_backend_failure_is_an_error_exit(self, monkeypatch, capsys):
        self.zero_prices(monkeypatch)
        code = run_cli(
            ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "soft", "--b", "1",
             "--lambda", "0.5", "--algorithm", "lp-round"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: soft relaxation failed its certificate:"
            " author 1: price 0.0 is below p_1 = 0.16666666666666666\n"
        )

    @pytest.mark.parametrize("output", [False, True], ids=["stdout", "-o"])
    def test_hard_lp_backend_failure_is_an_error_exit(self, output, monkeypatch, tmp_path, capsys):
        self.zero_prices(monkeypatch)
        out = tmp_path / "report.json"
        argv = ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "hard", "--b", "1",
                "--algorithm", "lp"]
        code = run_cli(argv + (["-o", str(out)] if output else []))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: hard relaxation failed its certificate:"
            " author 1: price 0.0 is below p_1 = 0.16666666666666666\n"
        )
        assert not out.exists()

    def test_wrong_variant_algorithm_combo_is_an_input_error(self, capsys):
        code = run_cli(
            ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "basic",
             "--algorithm", "flow"]
        )
        assert code == 1
        assert "does not apply" in capsys.readouterr().err

    def test_unknown_flag_exits_1_with_usage(self, capsys):
        code = run_cli(["solve", "x.json", "--frobnicate"])
        assert code == 1

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_dump_network_and_lp(self, tmp_path):
        net_path = tmp_path / "net.json"
        run_cli(
            ["solve", str(FIXTURES / "prop35_tie_2x2.json"), "--variant", "hard",
             "--b", "1", "--algorithm", "flow", "--dump-network", str(net_path),
             "-o", str(tmp_path / "r.json")]
        )
        net = json.loads(net_path.read_text())
        assert net["num_vertices"] == 6
        assert len(net["edges"]) == 8

        lp_path = tmp_path / "lp.json"
        run_cli(
            ["solve", str(FIXTURES / "frac_2x2.json"), "--variant", "hard",
             "--b", "1", "--algorithm", "lp", "--dump-lp", str(lp_path),
             "-o", str(tmp_path / "r2.json")]
        )
        lp = json.loads(lp_path.read_text())
        assert lp["num_vars"] == 4
        assert len(lp["eq"]) == 2


class TestOracleCommand:
    def test_oracle_subcommand_matches_solver(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            ["oracle", str(FIXTURES / "prop35_skew_2x2.json"), "--variant", "hard",
             "--b", "1", "-o", str(out)]
        )
        assert code == 0
        assert read_report(out)["objective"] == pytest.approx(0.1 + 0.9, abs=1e-9)

    def test_oracle_infeasible_exit(self):
        code = run_cli(
            ["oracle", str(FIXTURES / "infeasible_5x1.json"), "--variant", "hard",
             "--b", "2"]
        )
        assert code == 2

    def test_enumeration_cap_is_an_input_error(self, capsys):
        code = run_cli(
            ["oracle", str(FIXTURES / "frac_2x2.json"), "--variant", "basic",
             "--cap", "3"]
        )
        assert code == 1
        assert "enumeration cap" in capsys.readouterr().err


class TestImportCsvCommand:
    def test_csv_to_json(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        probs = tmp_path / "p.csv"
        pairs.write_text("paper_id,author_id\n1,1\n1,2\n2,1\n")
        probs.write_text("author_id,p\n1,0.1\n2,0.2\n")
        out = tmp_path / "inst.json"
        code = run_cli(["import-csv", str(pairs), str(probs), "--b", "1", "-o", str(out)])
        assert code == 0
        inst = load_instance(out)
        assert inst.rows == ((1, 2), (1,))
        assert inst.b == 1

    def test_duplicate_pairs_are_an_input_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        probs = tmp_path / "p.csv"
        pairs.write_text("1,1\n1,1\n")
        probs.write_text("1,0.5\n")
        code = run_cli(["import-csv", str(pairs), str(probs), "-o", str(tmp_path / "o.json")])
        assert code == 1
        assert "duplicate" in capsys.readouterr().err
