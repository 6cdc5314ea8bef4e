"""The mutant list of scripts/mutants.py stays in step with the code.

Each mutant's old text must occur exactly once in its file, so a change
that edits a targeted line must update the mutant too, and each test named
to kill it must exist.  A mutant must also change its file and leave it
parseable, so that only a failing test, not a syntax error, can kill it.
This checks all of these without running any mutant.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_targets_one_place():
    mutants = runpy.run_path(str(ROOT / "scripts" / "mutants.py"))["MUTANTS"]
    assert mutants
    for mutant in mutants:
        assert mutant.path.startswith("src/"), mutant.name
        text = (ROOT / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        ast.parse(text.replace(mutant.old, mutant.new), f"{mutant.path} ({mutant.name})")
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert f"def {name}(" in (ROOT / path).read_text(), (mutant.name, test)
