"""Every name a module of the package imports is used in that module, and
the command line reaches the count routes only through ``applications``.

No linter ships with the project, so this stands in for the unused-import
check: names left behind when code is deleted fail here.
"""

import ast
from pathlib import Path

import pytest

import addrep

MODULES = sorted(Path(addrep.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in addrep.__all__
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import isqrt, comb\n"
        "x = np.arange(isqrt(9))\n"
    )
    assert unused_imports(path) == ["mod.py:2: os", "mod.py:4: comb"]


def test_cli_runs_routes_only_through_problem_specs():
    # The CLI names no oracle and no evaluator of its own: every route it
    # runs comes from a ProblemSpec.  EvaluatorKind names --theorem's choices.
    path = Path(addrep.__file__).parent / "cli.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.name, "*") for alias in node.names)
    route_imports = {
        (module.removeprefix("addrep."), name) for module, name in imported
        if module.removeprefix("addrep.") in ("oracle", "recursion")
    }
    assert route_imports <= {("recursion", "EvaluatorKind")}


def test_prefix_tables_are_built_only_by_the_recursion():
    # Dense S(x) tables (cumulative sums of an indicator) belong to the
    # recursion, their one reader; every other module searches sorted terms.
    callers = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "cumsum":
                    callers.append(path.name)
    assert set(callers) <= {"recursion.py"}
    assert callers  # the check still sees the recursion's own table
