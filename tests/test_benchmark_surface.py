"""The names the benchmark in ``perfbench/`` takes from deskrisk still exist.

The benchmark scripts are read with :mod:`ast`, not run, so a module move or
a rename that would break the benchmark fails here first.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _imported_names(tree: ast.AST) -> list[tuple[str, str]]:
    """``(module, name)`` of every ``from deskrisk... import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "deskrisk"
        for alias in node.names
    ]


def _attribute_paths(tree: ast.AST) -> set[str]:
    """Every dotted path ``deskrisk.a.b`` read off a name ``deskrisk``, with its prefixes."""
    paths = set()
    for node in ast.walk(tree):
        parts, base = [], node
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if parts and isinstance(base, ast.Name) and base.id == "deskrisk":
            paths.add(".".join(["deskrisk", *reversed(parts)]))
    return paths


def test_the_benchmark_is_where_these_tests_expect_it():
    assert {script.name for script in SCRIPTS} >= {"run.py", "tracing.py"}
    trees = [ast.parse(script.read_text()) for script in SCRIPTS]
    assert sum(len(_imported_names(tree)) for tree in trees) > 10
    assert _attribute_paths(ast.parse((PERFBENCH / "run.py").read_text()))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda script: script.name)
def test_every_name_the_benchmark_imports_resolves(script):
    missing = []
    for module, name in _imported_names(ast.parse(script.read_text())):
        if not hasattr(importlib.import_module(module), name):
            missing.append(f"{module}.{name}")
    assert not missing, f"{script.name} imports names deskrisk no longer has: {missing}"


def test_every_deskrisk_attribute_the_runner_reads_exists():
    missing = []
    for path in sorted(_attribute_paths(ast.parse((PERFBENCH / "run.py").read_text()))):
        value = importlib.import_module("deskrisk")
        for part in path.split(".")[1:]:
            if not hasattr(value, part):
                missing.append(path)
                break
            value = getattr(value, part)
    assert not missing, f"run.py reads attributes deskrisk no longer has: {missing}"
