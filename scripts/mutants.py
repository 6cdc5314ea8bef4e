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
the unmutated copy.  Given substrings, it runs only the mutants whose name
contains one of them, and only their tests on the unmutated copy; it exits
with 2 when no name contains any.

    python scripts/mutants.py                  # every mutant
    python scripts/mutants.py convolution cli  # names containing either
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
    "tests/test_oracle.py::test_brute_series_equals_brute_count_on_any_pair",
    "tests/test_oracle.py::test_brute_series_equals_brute_count_random",
    "tests/test_oracle.py::test_brute_series_equals_brute_count_mixed",
    "tests/test_oracle.py::test_brute_series_partner_side_follows_membership",
)
_CAP = "(p if role_tagged else 2 * p)"
_SEQUENCES = "src/addrep/sequences.py"
# Named first for the engine's mutants: fixed pairs that fail in well under
# a second, before the property tests' drawn examples.
_FIXED = "tests/test_convolution.py::test_fixed_pairs_against_brute_force"
_THRESHOLD = "tests/test_convolution.py::test_route_threshold_is_shifted_adds_per_side"
_ARGV_PATH = ("tests/test_cli.py::"
              "test_error_lines_name_an_argv_path_as_given_under_the_c_locale")
_PLAIN_HEADS = "tests/test_sequences.py::test_plain_bodies_take_the_block_parser"
_BLOCK_TESTS = (
    "tests/test_sequences.py::test_validation_matches_a_per_term_mask_scan",
    "tests/test_sequences.py::test_validation_in_blocks_names_the_first_bad_term",
)

MUTANTS = (
    Mutant(
        "oracle: partner sides not swapped", _ORACLE,
        "wanted = in_b if in_a[p] else in_a",
        "wanted = in_a if in_a[p] else in_b",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle: role-tagged partner set is A", _ORACLE,
        "            wanted = in_b\n",
        "            wanted = in_a\n",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle: unordered cap one target late", _ORACLE,
        _CAP, "(p if role_tagged else 2 * p + 2)",
        _ORACLE_TESTS,
    ),
    Mutant(
        "oracle: role-tagged cap one target late", _ORACLE,
        _CAP, "(p + 2 if role_tagged else 2 * p)",
        _ORACLE_TESTS,
    ),
    Mutant(
        "lattice: an off-parity x_max accepted", "src/addrep/recursion.py",
        " or (x_max - base) % 2",
        "",
        ("tests/test_oracle.py::test_arguments_out_of_range_raise",),
    ),
    Mutant(
        "lattice: one target short", "src/addrep/recursion.py",
        "(x_max - base) // 2 + 1",
        "(x_max - base) // 2",
        (_FIXED,),
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
        "fb[j] -= fa[j]",
        "fb[j] += fa[j]",
        (_FIXED, "tests/test_convolution.py::test_engine_equals_recursion_and_oracle"),
    ),
    Mutant(
        "convolution: guard as error >= 0.25", "src/addrep/convolution.py",
        "if not error < 0.25:",
        "if error >= 0.25:",
        ("tests/test_convolution.py::test_rounding_guard_raises_off_integer_values",),
    ),
    Mutant(
        "convolution: a block's terms not cleared before the next block's transform",
        "src/addrep/convolution.py",
        "buf[ones] = 0",
        "pass",
        (_FIXED, "tests/test_convolution.py::test_engine_equals_recursion_and_oracle"),
    ),
    Mutant(
        "convolution: the N_WW pass taken over A", "src/addrep/convolution.py",
        "counts -= route(size, w, None, False)",
        "counts -= route(size, a, None, False)",
        (_FIXED, "tests/test_convolution.py::test_engine_equals_recursion_and_oracle"),
    ),
    Mutant(
        "sequences: subset route always taken", "src/addrep/sequences.py",
        "return a if held.all() else",
        "return a if True else",
        (_FIXED, "tests/test_convolution.py::test_engine_equals_recursion_and_oracle"),
    ),
    Mutant(
        "sequences: subset route never taken", "src/addrep/sequences.py",
        "return a if held.all() else",
        "return a if False else",
        ("tests/test_convolution.py::test_chen_contained_pair_takes_two_transforms",),
    ),
    Mutant(
        "convolution: delta cut one target short", "src/addrep/convolution.py",
        "counts[at[at < size]] += 1",
        "counts[at[at < size - 1]] += 1",
        ("tests/test_convolution.py::test_shared_term_on_the_last_target",),
    ),
    Mutant(
        "convolution: transform route one over at index 10 001", "src/addrep/convolution.py",
        "else _by_fft",
        "else lambda *args: _by_fft(*args) + (np.arange(size) == 10_001)",
        ("tests/test_applications.py::test_engine_running_sums_are_the_recursion_functional",),
    ),
    Mutant(
        "convolution: a diagonal placed one block off", "src/addrep/convolution.py",
        "spectrum = _diagonal(fa, fb, s)",
        "spectrum = _diagonal(fa, fb, s - 1)",
        (_FIXED, "tests/test_convolution.py::test_transform_blocks_against_brute_force"),
    ),
    Mutant(
        "diagonal: chunk boundary one entry off", "src/addrep/convolution.py",
        "hi = lo + _CHUNK",
        "hi = lo + _CHUNK - 1",
        (_FIXED,),
    ),
    Mutant(
        "convolution: equal pair's off-diagonal products not doubled",
        "src/addrep/convolution.py",
        "            part *= 2\n",
        "            pass\n",
        (_FIXED, "tests/test_convolution.py::test_transform_blocks_against_brute_force"),
    ),
    Mutant(
        "convolution: last block's cut one entry long", "src/addrep/convolution.py",
        "n = min(2 * h - 1, size - s * h)",
        "n = min(2 * h - 1, size - s * h + 1)",
        (_FIXED, "tests/test_convolution.py::test_transform_blocks_against_brute_force"),
    ),
    Mutant(
        "convolution: shifts skip W's own pairs", "src/addrep/convolution.py",
        "row[short // 2] -= 1",
        "row[short // 2] -= 0",
        (_FIXED, "tests/test_convolution.py::test_engine_equals_recursion_and_oracle"),
    ),
    Mutant(
        "convolution: partly shared pair not doubled", "src/addrep/convolution.py",
        "counts *= 2",
        "counts *= 1",
        (_FIXED, "tests/test_convolution.py::test_engine_equals_recursion_and_oracle"),
    ),
    Mutant(
        "convolution: W's passes left out of the shifted adds", "src/addrep/convolution.py",
        "adds, sides = adds + len(w), 3",
        "adds, sides = adds, 3",
        (_THRESHOLD,),
    ),
    Mutant(
        "convolution: a partly shared pair counted as two sides", "src/addrep/convolution.py",
        "adds, sides = adds + len(w), 3",
        "adds, sides = adds + len(w), 2",
        (_THRESHOLD,),
    ),
    Mutant(
        "convolution: a disjoint pair keeps its empty W", "src/addrep/convolution.py",
        "and not len(w):  # disjoint",
        "and False:  # disjoint",
        ("tests/test_convolution.py::test_a_disjoint_pair_takes_one_product", _THRESHOLD),
    ),
    Mutant(
        "convolution: parity check dropped", "src/addrep/convolution.py",
        "if odd.any():",
        "if False:",
        ("tests/test_convolution.py::test_an_odd_doubled_count_raises",),
    ),
    Mutant(
        # The subset formula's own tests run on the same tables; the engine's
        # test checks them against the transforms and the oracle.
        "recursion: W's table is B's", "src/addrep/recursion.py",
        "else self._a if seq_w is seq_a",
        "else self._b if seq_w is seq_a",
        ("tests/test_convolution.py::test_engine_equals_recursion_and_oracle",),
    ),
    Mutant(
        "recursion: a disjoint pair keeps its empty W", "src/addrep/recursion.py",
        "and not len(seq_w) and",
        "and False and",
        ("tests/test_recursion.py::test_a_disjoint_pair_sums_over_a_and_b_alone",),
    ),
    Mutant(
        "recursion: even-odd takes A as its shared part", "src/addrep/recursion.py",
        "seq_w = None if kind is EvaluatorKind.EVEN_ODD else",
        "seq_w = seq_a if kind is EvaluatorKind.EVEN_ODD else",
        ("tests/test_recursion.py::test_matches_oracle_randomized",),
    ),
    Mutant(
        "recursion: B shares A's table when their limits match", "src/addrep/recursion.py",
        "self._a if seq_b == seq_a else",
        "self._a if seq_b.limit == seq_a.limit else",
        ("tests/test_recursion.py::test_matches_oracle_randomized",),
    ),
    Mutant(
        "recursion: the subset claim goes unchecked", "src/addrep/recursion.py",
        "if self.seq_w is not self.seq_a:",
        "if False:",
        ("tests/test_recursion.py::test_subset_violation_and_equal_violation",),
    ),
    Mutant(
        "recursion: even-even kind's base is 2", "src/addrep/recursion.py",
        'EVEN_EVEN = "even-even", 0,',
        'EVEN_EVEN = "even-even", 2,',
        ("tests/test_applications.py::"
         "test_two_squares_and_two_triangular_match_jacobi_over_the_whole_range",),
    ),
    Mutant(
        # Both caps give every count right; only the cap itself is pinned.
        "recursion: the general step caps at x // 2", "src/addrep/recursion.py",
        "half = (x + 1) // 2",
        "half = x // 2",
        ("tests/test_recursion.py::test_each_capped_sum_gets_exactly_the_terms_up_to_half",),
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
        "reader: header line endings translated", _SEQUENCES,
        'path.open(newline="", **TEXT_CODEC)',
        'path.open(**TEXT_CODEC)',
        (_PLAIN_HEADS,),
    ),
    Mutant(
        "reader: every header line ending counted as one byte", _SEQUENCES,
        'start += len(raw.encode(**TEXT_CODEC))',
        'start += len(raw.rstrip("\\r\\n").encode(**TEXT_CODEC)) + 1',
        (_PLAIN_HEADS,),
    ),
    Mutant(
        "reader: header decoded by the locale", _SEQUENCES,
        'path.open(newline="", **TEXT_CODEC)',
        'path.open(newline="", errors="surrogateescape")',
        ("tests/test_sequences.py::test_the_text_rule_holds_under_the_c_locale",),
    ),
    Mutant(
        "reader: BOM kept", _SEQUENCES,
        'return raw.removeprefix("\\ufeff") if lineno == 1 else raw',
        "return raw",
        ("tests/test_sequences.py::test_a_leading_bom_is_skipped",),
    ),
    Mutant(
        "reader: stray byte in a comment passes", _SEQUENCES,
        're.search("[\\udc80-\\udcff]", raw)',
        're.search("[\\udc80-\\udcff]", raw.partition("#")[0])',
        ("tests/test_sequences.py::test_a_byte_that_is_not_utf8_is_named_with_its_line",),
    ),
    Mutant(
        "writer: --out in the locale codec", "src/addrep/cli.py",
        'open(tmp, "x", **TEXT_CODEC)',
        'open(tmp, "x")',
        ("tests/test_cli.py::test_the_cli_keeps_the_text_rule_under_the_c_locale",),
    ),
    Mutant(
        "sequences: semiprime q range starts one prime late", "src/addrep/sequences.py",
        "np.arange(lo, hi)",
        "np.arange(lo + 1, hi + 1)",
        ("tests/test_sequences.py::test_semiprime_counts_match_factorization",
         "tests/test_sequences.py::test_odd_semiprime_terms_match_factorization"),
    ),
    Mutant(
        "sequences: blocks skip the pair across their boundary", _SEQUENCES,
        "lo = max(start - 1, 0)",
        "lo = start",
        ("tests/test_sequences.py::test_validation_in_blocks_names_the_first_bad_term",),
    ),
    Mutant(
        "sequences: block check takes equal neighbours", _SEQUENCES,
        "(block[1:] > block[:-1]).all()",
        "(block[1:] >= block[:-1]).all()",
        _BLOCK_TESTS,
    ),
    Mutant(
        "sequences: block check's parity reduces swapped", _SEQUENCES,
        "np.bitwise_and.reduce if want else np.bitwise_or.reduce",
        "np.bitwise_or.reduce if want else np.bitwise_and.reduce",
        _BLOCK_TESTS,
    ),
    Mutant(
        "sequences: block check without 0 <= first", _SEQUENCES,
        "(0 <= int(block[0]) and int(block[-1]) <= top and",
        "(int(block[-1]) <= top and",
        _BLOCK_TESTS,
    ),
    Mutant(
        "sequences: block check without last <= top", _SEQUENCES,
        "0 <= int(block[0]) and int(block[-1]) <= top and (block",
        "0 <= int(block[0]) and (block",
        _BLOCK_TESTS,
    ),
    Mutant(
        "sequences: iterable terms truncated to integers", _SEQUENCES,
        "np.fromiter(map(operator.index, terms), dtype=np.int64)",
        "np.fromiter(terms, dtype=np.int64)",
        ("tests/test_sequences.py::test_validation_names_the_first_bad_term",),
    ),
    Mutant(
        "sequences: B within A not recognised", _SEQUENCES,
        "else b if np.count_nonzero(held) == len(b) else",
        "else",
        ("tests/test_recursion.py::test_one_prefix_table_per_distinct_sequence",),
    ),
    Mutant(
        "convolution: B within A not swapped to A within B", "src/addrep/convolution.py",
        "        a, b = b, a\n",
        "        pass\n",
        ("tests/test_convolution.py::test_chen_contained_pair_takes_two_transforms",),
    ),
    Mutant(
        "cli: the row writer formats every row in one block", "src/addrep/cli.py",
        "BLOCK_ROWS):\n        block = [column[start : start + BLOCK_ROWS]",
        "max(BLOCK_ROWS, len(columns[0]))):\n"
        "        block = [column[start : start + max(BLOCK_ROWS, len(columns[0]))]",
        ("tests/test_cli.py::test_row_writer_peak_memory_is_one_block",),
    ),
    Mutant(
        "cli: leading zeros written as '0'", "src/addrep/cli.py",
        "mat[values == 0, j] = 0",
        'mat[values == 0, j] = ord("0")',
        ("tests/test_cli.py::test_writers_match_the_f_string_and_json_output",),
    ),
    Mutant(
        "writer: uint32 digits past 2^32 - 1", "src/addrep/cli.py",
        "if peak < 2**32:",
        "if peak <= 2**32:",
        ("tests/test_cli.py::test_writers_match_the_f_string_and_json_output",),
    ),
    Mutant(
        "cli: the digit matrix kept beside its bytes", "src/addrep/cli.py",
        "    del mat  # before",
        "    pass  # before",
        ("tests/test_cli.py::test_row_writer_peak_memory_is_one_block",),
    ),
    Mutant(
        "cli: out of memory names no layer", "src/addrep/cli.py",
        'f"out of memory in {Path(frame.filename).stem}.{frame.name}"',
        '"out of memory"',
        ("tests/test_cli.py::test_bare_memory_error_exits_with_resource_code",
         "tests/test_cli.py::test_bare_memory_error_in_the_engine_names_its_module"),
    ),
    Mutant(
        "cli: error line through backslashreplace", "src/addrep/cli.py",
        "sys.stderr.reconfigure(**TEXT_CODEC)",
        'sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")',
        (_ARGV_PATH,),
    ),
    Mutant(
        "cli: error line keeps repr's escape of an argv byte", "src/addrep/cli.py",
        "lambda m: m[1] or chr(int(m[2], 16))",
        "lambda m: m[0]",
        (_ARGV_PATH,),
    ),
    Mutant(
        "cli: an escaped backslash before 'u' read as an argv byte", "src/addrep/cli.py",
        r'r"(\\\\)|\\u(dc',
        r'r"(\\\\(?!u))|\\u(dc',
        ("tests/test_cli.py::test_error_line_puts_back_only_reprs_escapes_of_argv_bytes",),
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether the tests pass in the copy, and the run's wall time."""
    # No installed plugin is loaded: the tests need none, and each run then
    # starts about 0.4 s sooner.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0, time.perf_counter() - start


def main(names: list[str]) -> int:
    start = time.perf_counter()
    mutants = [m for m in MUTANTS if not names or any(n in m.name for n in names)]
    if not mutants:
        print(f"no mutant's name contains any of {names}")
        return 2
    faults = 0
    with tempfile.TemporaryDirectory(prefix="addrep-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        passed, seconds = _pytest(copy, tests)
        print(f"{'pass' if passed else 'FAIL':9s} unmutated copy ({seconds:.1f} s)")
        faults += not passed
        for mutant in mutants:
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
    print(f"{len(mutants)} mutants, {faults} faults, {time.perf_counter() - start:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
