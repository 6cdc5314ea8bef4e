"""Every name a module of the package imports is used in that module, and
the command line reaches the count routes only through ``ProblemSpec.counts``.

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


def test_cli_runs_routes_only_through_counts():
    # ProblemSpec.counts is the one route runner; the CLI reaches no other
    # route entry point of a spec.
    path = Path(addrep.__file__).parent / "cli.py"
    attributes = {
        node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
    }
    assert "counts" in attributes
    assert not attributes & {"compute", "oracle_series", "evaluator_series", "run"}


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


class _HardExitCallers(ast.NodeVisitor):
    """(module, innermost enclosing function) of every ``os._exit`` call."""

    def __init__(self, module: str):
        self.module, self.scope, self.found = module, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "_exit"
                and isinstance(func.value, ast.Name) and func.value.id == "os"):
            self.found.append((self.module, self.scope[-1]))
        self.generic_visit(node)


def _hard_exit_callers(path: Path) -> list[tuple[str, str]]:
    visitor = _HardExitCallers(path.stem)
    visitor.visit(ast.parse(path.read_text(), str(path)))
    return visitor.found


def test_only_the_cli_entry_function_ends_the_process():
    # main() returns its exit code to whoever calls it in process; only the
    # process entry point may skip the interpreter's exit.
    callers = [caller for path in MODULES for caller in _hard_exit_callers(path)]
    assert callers == [("cli", "console_main")]


def test_a_hard_exit_outside_the_entry_function_is_reported(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import os\n"
        "def main():\n"
        "    def inner():\n"
        "        os._exit(1)\n"
        "    os._exit(0)\n"
        "os._exit(2)\n"
    )
    assert _hard_exit_callers(path) == [("mod", "inner"), ("mod", "main"), ("mod", "<module>")]


def test_script_and_module_run_the_same_entry_function():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"addrep": "addrep.cli:console_main"}
    path = Path(addrep.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    main_guard = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert ast.unparse(main_guard.body[0]) == "console_main()"
    assert len(main_guard.body) == 1
