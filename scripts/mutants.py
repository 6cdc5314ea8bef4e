"""Mutation check: every mutant must fail the tests named to kill it.

A mutant is one exact text substitution in a file under `src/`, whose old
text must occur exactly once there, plus the test ids expected to kill it.
The script copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory and first runs every named test on the unmutated copy, where
they must pass.  Then, one mutant at a time, it applies the substitution
to the copy, runs only that mutant's tests (`python -m pytest -x -q`) and
restores the file.  Each mutant is reported as killed, SURVIVED (its tests
passed) or STALE (its old text no longer occurs exactly once).  The exit
code is 1 when a mutant survived or went stale, or when a test failed on
the unmutated copy.

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]


_ORACLE = "src/addrep/oracle.py"
_ORACLE_TESTS = (
    "tests/test_oracle.py::test_brute_series_equals_brute_count_at_every_block_shape",
    "tests/test_oracle.py::test_brute_series_equals_brute_count_random",
    "tests/test_oracle.py::test_brute_series_equals_brute_count_mixed",
)
_BAND = "hit[:, shared:] &= pool[shared:width] <= caps[start:stop, None]"

MUTANTS = (
    Mutant(
        "oracle: partner bits not swapped", _ORACLE,
        "partner = code[pool] >> 1 | (code[pool] & 1) << 1",
        "partner = code[pool]",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle: role-tagged partner on bit 0", _ORACLE,
        "partner = np.full(len(pool), 2, dtype=np.uint8)",
        "partner = np.full(len(pool), 1, dtype=np.uint8)",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle: band mask dropped", _ORACLE,
        _BAND, "pass",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle: band starts one candidate late", _ORACLE,
        _BAND, "hit[:, shared + 1:] &= pool[shared + 1:width] <= caps[start:stop, None]",
        _ORACLE_TESTS,
    ),
    Mutant(
        "sequences: int64 range check dropped", "src/addrep/sequences.py",
        "if len(magnitude) > 19 or int(magnitude) >= bound:",
        "if len(magnitude) > 19:",
        ("tests/test_sequences.py::test_load_sequence_names_the_bad_line",),
    ),
    Mutant(
        "sequences: int64 range one past 2^63 - 1", "src/addrep/sequences.py",
        "bound = 2**63 + 1 if line[0] == \"-\" else 2**63",
        "bound = 2**63 + 1",
        ("tests/test_sequences.py::test_load_sequence_names_the_bad_line",),
    ),
    Mutant(
        "sequences: int64 range refuses -2^63", "src/addrep/sequences.py",
        "bound = 2**63 + 1 if line[0] == \"-\" else 2**63",
        "bound = 2**63",
        ("tests/test_sequences.py::test_load_sequence_reads_terms_at_the_int64_bounds",),
    ),
    Mutant(
        "convolution: subset spectrum's sign flipped", "src/addrep/convolution.py",
        "            spectrum -= fa\n",
        "            spectrum += fa\n",
        ("tests/test_convolution.py::test_engine_equals_recursion_and_oracle",),
    ),
    Mutant(
        "convolution: guard as error >= 0.25", "src/addrep/convolution.py",
        "if not error < 0.25:",
        "if error >= 0.25:",
        ("tests/test_convolution.py::test_rounding_guard_raises_off_integer_values",),
    ),
    Mutant(
        "convolution: B's terms not cleared before A's transform", "src/addrep/convolution.py",
        "buf[b // 2] = 0",
        "pass",
        ("tests/test_convolution.py::test_engine_equals_recursion_and_oracle",),
    ),
    Mutant(
        "convolution: subset route always taken", "src/addrep/convolution.py",
        "subset = in_b.all() if subset is None else subset",
        "subset = True if subset is None else subset",
        ("tests/test_convolution.py::test_engine_equals_recursion_and_oracle",),
    ),
    Mutant(
        "convolution: subset route never taken", "src/addrep/convolution.py",
        "subset = in_b.all() if subset is None else subset",
        "subset = False if subset is None else subset",
        ("tests/test_convolution.py::test_chen_contained_pair_takes_two_transforms",),
    ),
    Mutant(
        "convolution: delta cut one target short", "src/addrep/convolution.py",
        "counts[at[at < size]] += 1",
        "counts[at[at < size - 1]] += 1",
        ("tests/test_convolution.py::test_shared_term_on_the_last_target",),
    ),
    Mutant(
        "recursion: capped sum cut one term short", "src/addrep/recursion.py",
        'searchsorted(cap, side="right")',
        'searchsorted(cap, side="left")',
        ("tests/test_recursion.py::test_capped_sum_matches_a_plain_sum",),
    ),
    Mutant(
        "recursion: equal formula's shared term n(n+1)/2", "src/addrep/recursion.py",
        "n_a * (n_a - 1) // 2",
        "n_a * (n_a + 1) // 2",
        ("tests/test_recursion.py::test_equal_pair_subset_form_matches_equal_form",),
    ),
    Mutant(
        "sequences: block check without first <= last", "src/addrep/sequences.py",
        "if 0 <= first <= int(block[-1]) <= limit and",
        "if 0 <= first and int(block[-1]) <= limit and",
        ("tests/test_sequences.py::test_validation_in_blocks_names_the_first_bad_term",),
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether the tests pass in the copy, and the run's wall time."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    faults = 0
    with tempfile.TemporaryDirectory(prefix="addrep-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        passed, seconds = _pytest(copy, tests)
        print(f"{'pass' if passed else 'FAIL':9s} unmutated copy ({seconds:.1f} s)")
        faults += not passed
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text()
            if original.count(mutant.old) != 1:
                print(f"{'STALE':9s} {mutant.name}: old text occurs "
                      f"{original.count(mutant.old)} times in {mutant.path}")
                faults += 1
                continue
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                survived, seconds = _pytest(copy, mutant.tests)
            finally:
                target.write_text(original)
            print(f"{'SURVIVED' if survived else 'killed':9s} {mutant.name} ({seconds:.1f} s)")
            faults += survived
    print(f"{len(MUTANTS)} mutants, {faults} faults, {time.perf_counter() - start:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
