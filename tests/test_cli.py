import json
import os

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from addrep.cli import (
    BLOCK_ROWS,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    build_parser,
    main,
    read_bfile,
)


def _odd_file(tmp_path, name="odd.txt", last=9):
    path = tmp_path / name
    lines = ["parity: odd"] + [str(t) for t in range(1, last + 1, 2)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _rig_oracle(monkeypatch, index):
    """Add 1 to entry ``index`` of every series the oracle route reads."""
    import addrep.applications as applications

    brute_count_series = applications.brute_count_series

    def broken_oracle(*args, **kwargs):
        series = brute_count_series(*args, **kwargs)
        series.values[index] += 1
        return series

    monkeypatch.setattr(applications, "brute_count_series", broken_oracle)


def _rig_recursion(monkeypatch, index):
    """Add 1 to entry ``index`` of every series the recursion route reads."""
    import addrep.applications as applications
    from addrep.recursion import CountSeries

    class BrokenEvaluator(applications.RecursionEvaluator):
        def run_to(self, x_max):
            series = super().run_to(x_max)
            values = list(series.values)
            values[index] += 1
            return CountSeries(series.base, values)

    monkeypatch.setattr(applications, "RecursionEvaluator", BrokenEvaluator)


# --- compute -----------------------------------------------------------------

def test_compute_goldbach_bfile(tmp_path, capsys):
    out = tmp_path / "b.txt"
    code = main(["compute", "--problem", "goldbach", "--n-max", "30",
                 "--format", "bfile", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 30
    assert data[-1] == "30 6"
    assert lines[0].startswith("#")  # argument convention header


def test_compute_two_triangular_n0(capsys):
    code = main(["compute", "--problem", "two-triangular", "--n-max", "0"])
    assert code == EXIT_OK
    data = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert data == ["0 1"]


def test_compute_custom_all_odds(tmp_path, capsys):
    odd = _odd_file(tmp_path)
    code = main(["compute", "--problem", "custom", "--seq-a", odd,
                 "--seq-b", odd, "--x-max", "10"])
    assert code == EXIT_OK
    data = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert data[-1] == "10 3"
    assert data[0] == "2 1"


def test_compute_bfile_roundtrip(tmp_path):
    out = tmp_path / "goldbach.txt"
    assert main(["compute", "--problem", "goldbach", "--n-max", "40",
                 "--out", str(out)]) == EXIT_OK
    from addrep.applications import goldbach

    series = goldbach(40)
    assert read_bfile(out) == list(zip(range(1, 41), series.values))


def test_compute_csv_and_json(tmp_path):
    csv_out = tmp_path / "x.csv"
    assert main(["compute", "--problem", "two-triangular", "--n-max", "5",
                 "--format", "csv", "--out", str(csv_out)]) == EXIT_OK
    rows = [ln for ln in csv_out.read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0] == "n,count"
    assert rows[1] == "0,1"

    json_out = tmp_path / "x.json"
    assert main(["compute", "--problem", "two-triangular", "--n-max", "5",
                 "--format", "json", "--out", str(json_out)]) == EXIT_OK
    payload = json.loads(json_out.read_text())
    assert payload["problem"] == "two-triangular"
    assert payload["rows"][0] == [0, 1]
    assert payload["rows"][5] == [5, 0]


def test_compute_usage_errors(tmp_path, capsys):
    # missing n-max
    assert main(["compute", "--problem", "goldbach"]) == EXIT_USAGE
    # n-max below the first index
    assert main(["compute", "--problem", "goldbach", "--n-max", "0"]) == EXIT_USAGE
    # custom without files
    assert main(["compute", "--problem", "custom", "--x-max", "10"]) == EXIT_USAGE
    # unknown problem is an argparse error
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--problem", "nope", "--n-max", "3"])
    assert exc.value.code == EXIT_USAGE


def test_oracle_cap_belongs_to_the_oracle_commands(capsys):
    # compute runs no oracle, so the flag is argparse's unknown argument.
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--problem", "goldbach", "--n-max", "5", "--oracle-cap", "3"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --oracle-cap 3" in capsys.readouterr().err
    for command in ("verify", "bench"):
        args = build_parser().parse_args([command, "--problem", "goldbach", "--oracle-cap", "3"])
        assert args.oracle_cap == 3


@pytest.mark.parametrize("flag, value, parsed", [
    ("--x-max", "3", 3), ("--seq-a", "a.txt", "a.txt"), ("--seq-b", "b.txt", "b.txt"),
])
def test_custom_flags_belong_to_compute_and_verify(capsys, flag, value, parsed):
    # bench times built-in problems only, so the flag is argparse's unknown argument.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problem", "goldbach", "--n-max", "5", flag, value])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    for command in ("compute", "verify"):
        args = build_parser().parse_args([command, "--problem", "custom", flag, value])
        assert getattr(args, flag[2:].replace("-", "_")) == parsed


_BUILT_IN_ARGV = ["--problem", "goldbach", "--n-max", "5"]
_FOREIGN_FLAGS = [
    (_BUILT_IN_ARGV + ["--x-max", "3"], "--x-max"),
    (_BUILT_IN_ARGV + ["--seq-a", "nope.txt"], "--seq-a"),
    (["--problem", "two-squares", "--n-max", "5", "--seq-b", "nope.txt"], "--seq-b"),
    (["--problem", "custom", "--seq-a", "ODD", "--seq-b", "ODD", "--x-max", "9",
      "--n-max", "100"], "--n-max"),
]


@pytest.mark.parametrize("command, argv, flag", [
    (command, argv, flag) for command in ("compute", "verify") for argv, flag in _FOREIGN_FLAGS
])
def test_flags_of_the_other_problem_kind_are_rejected(tmp_path, capsys, command, argv,
                                                       flag):
    odd = _odd_file(tmp_path)
    argv = [odd if arg == "ODD" else arg for arg in argv]
    assert main([command, *argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert flag in captured.err


def test_compute_table_budget(capsys):
    code = main(["compute", "--problem", "goldbach", "--n-max", "1000",
                 "--limit", "100"])
    assert code == EXIT_RESOURCE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("compute", "--limit", "-5"),  # not the resource error "above the --limit cap -5"
    ("verify", "--oracle-cap", "-1"),  # refused before any x is checked against it
])
def test_a_negative_cap_is_a_usage_error(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", "goldbach", "--n-max", "3", flag, value])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}: must be at least 0, not {value}" in capsys.readouterr().err


def test_custom_table_budget_is_checked_before_either_file_is_read(tmp_path, monkeypatch,
                                                                    capsys):
    import addrep.cli as cli

    loads = []
    monkeypatch.setattr(cli, "load_sequence", lambda *args, **kwargs: loads.append(args))
    odd = _odd_file(tmp_path)
    code = main(["compute", "--problem", "custom", "--seq-a", odd, "--seq-b", odd,
                 "--x-max", "3000000000", "--limit", "100"])
    assert code == EXIT_RESOURCE and loads == []
    assert capsys.readouterr().err == (
        "error: run needs tables up to 3000000000, above the --limit cap 100\n")


@pytest.mark.parametrize("parities, kind", [
    (("odd", "odd"), "odd-odd"),
    (("even", "even"), "even-even"),
    (("odd", "even"), "even-odd"),
])
def test_custom_kind_comes_from_the_files(tmp_path, capsys, parities, kind):
    # No flag names the kind: the header reports the one the files' parities give.
    paths = []
    for i, parity in enumerate(parities):
        path = tmp_path / f"{i}.txt"
        first = 1 if parity == "odd" else 0
        path.write_text(f"parity: {parity}\n" + "".join(f"{t}\n" for t in range(first, 9, 2)))
        paths.append(str(path))
    assert main(["compute", "--problem", "custom", "--seq-a", paths[0],
                 "--seq-b", paths[1], "--x-max", "6"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"# custom {kind} recursion;")


def test_theorem_flag_is_not_an_option(tmp_path, capsys):
    odd = _odd_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--problem", "custom", "--seq-a", odd, "--seq-b", odd,
              "--x-max", "10", "--theorem", "odd-odd"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --theorem odd-odd" in capsys.readouterr().err


def test_custom_even_odd_roles_swap(tmp_path, capsys):
    odd = _odd_file(tmp_path)
    even = tmp_path / "even.txt"
    even.write_text("parity: even\n0\n2\n4\n6\n8\n")
    # odd file first still resolves to the even-odd recursion
    code = main(["compute", "--problem", "custom", "--seq-a", odd,
                 "--seq-b", str(even), "--x-max", "5"])
    assert code == EXIT_OK
    data = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert data[-1] == "5 3"  # 0+5, 2+3, 4+1


@pytest.mark.parametrize("parities", [("odd", "odd"), ("even", "odd")])
def test_custom_output_is_the_same_from_plain_and_decorated_files(tmp_path, monkeypatch,
                                                                  parities):
    import random

    import addrep.sequences as sequences

    rng = random.Random(7)
    terms = {role: [t for t in range(parity == "odd", 3000, 2) if rng.random() < 0.5]
             for role, parity in zip("ab", parities)}
    loadtxt_terms = sequences._loadtxt_terms
    loads = []

    def spy(path, header_lineno):
        loads.append(path.resolve().parent.name)
        return loadtxt_terms(path, header_lineno)

    monkeypatch.setattr(sequences, "_loadtxt_terms", spy)
    outputs = {}
    for style in ("plain", "decorated"):
        folder = tmp_path / style
        folder.mkdir()
        for role, parity in zip("ab", parities):
            lines = [f"parity: {parity}"] + [str(t) for t in terms[role]]
            if style == "plain":
                (folder / f"{role}.txt").write_text("\n".join(lines) + "\n")
            else:
                lines[2:2] = ["# made by hand", ""]
                (folder / f"{role}.txt").write_bytes("\r\n".join(lines).encode() + b"\r\n")
        monkeypatch.chdir(folder)
        assert main(["compute", "--problem", "custom", "--seq-a", "a.txt", "--seq-b",
                     "b.txt", "--x-max", "3000", "--out", "out.txt"]) == EXIT_OK
        outputs[style] = (folder / "out.txt").read_bytes()
    assert outputs["plain"] == outputs["decorated"]
    assert loads == ["decorated", "decorated"]  # plain files take the block parser


@pytest.mark.parametrize("command", ["compute", "verify"])
@pytest.mark.parametrize("first, x_max, base", [
    ("parity: even\n0\n", 0, 1),  # even-odd targets start at 1
    ("parity: odd\n1\n", 1, 2),   # odd-odd targets start at 2
])
def test_custom_x_max_below_base_is_a_usage_error(tmp_path, capsys, command,
                                                  first, x_max, base):
    path = tmp_path / "first.txt"
    path.write_text(first)
    code = main([command, "--problem", "custom", "--seq-a", str(path),
                 "--seq-b", _odd_file(tmp_path), "--x-max", str(x_max)])
    assert code == EXIT_USAGE
    assert f"--x-max {x_max} is below the base target {base}" in capsys.readouterr().err


# --- verify --------------------------------------------------------------------

def test_verify_goldbach_500(capsys):
    code = main(["verify", "--problem", "goldbach", "--n-max", "500"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS goldbach: all 500 terms" in out
    assert "PASS goldbach n=1 x=2 count=0" in out


def test_verify_lemoine_500(capsys):
    code = main(["verify", "--problem", "lemoine-levy", "--n-max", "500"])
    assert code == EXIT_OK
    assert "all 500 terms" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["chen-odd-odd", "chen-total", "two-squares",
                                  "two-triangular"])
def test_verify_other_builtins_default_range(name, capsys):
    assert main(["verify", "--problem", name]) == EXIT_OK


def test_verify_custom_and_corrupted_file(tmp_path, capsys):
    odd = _odd_file(tmp_path)
    assert main(["verify", "--problem", "custom", "--seq-a", odd,
                 "--seq-b", odd, "--x-max", "50"]) == EXIT_OK

    bad = tmp_path / "bad.txt"
    bad.write_text("parity: odd\n3\n3\n5\n")  # duplicate term
    code = main(["verify", "--problem", "custom", "--seq-a", str(bad),
                 "--seq-b", odd, "--x-max", "10"])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_custom_file_fault_past_x_max_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("parity: odd\n1\n9\n3\n5\n")
    code = main(["compute", "--problem", "custom", "--seq-a", str(path),
                 "--seq-b", str(path), "--x-max", "6"])
    assert code == EXIT_USAGE
    assert "error: terms must be strictly increasing, got 3 after 9" in capsys.readouterr().err


def test_verify_builds_the_sieve_once(monkeypatch, capsys):
    import addrep.applications as applications
    import addrep.sequences as sequences

    seen = []
    build_sieve = sequences.build_sieve

    def spy(limit, cap=sequences.DEFAULT_TABLE_CAP):
        seen.append((limit, cap))
        return build_sieve(limit, cap)

    # The engine and the oracle share the one sieve built under --limit.
    monkeypatch.setattr(applications, "build_sieve", spy)
    monkeypatch.setattr(sequences, "build_sieve", spy)
    assert main(["verify", "--problem", "goldbach", "--n-max", "5000"]) == EXIT_OK
    assert seen == [(10_000, sequences.DEFAULT_TABLE_CAP)]


def test_verify_oracle_cap(capsys):
    code = main(["verify", "--problem", "goldbach", "--n-max", "500",
                 "--oracle-cap", "100"])
    assert code == EXIT_USAGE


def test_verify_reports_first_mismatch(monkeypatch, capsys):
    _rig_oracle(monkeypatch, 3)
    code = main(["verify", "--problem", "goldbach", "--n-max", "10"])
    assert code == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "MISMATCH goldbach n=4 x=8" in captured.out
    assert "engine=1 oracle=2" in captured.out


def test_verify_custom_mismatch_names_the_recursion(tmp_path, monkeypatch, capsys):
    _rig_oracle(monkeypatch, 2)
    odd = _odd_file(tmp_path)
    code = main(["verify", "--problem", "custom", "--seq-a", odd,
                 "--seq-b", odd, "--x-max", "10"])
    assert code == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "MISMATCH custom odd-odd x=6: recursion=2 oracle=3" in captured.out
    assert "(recursion 2 vs oracle 3)" in captured.err


# --- bench ----------------------------------------------------------------------

def test_bench_smoke(capsys):
    code = main(["bench", "--problem", "goldbach", "--n-max", "40"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_max,engine_s,recursion_s,oracle_s"
    assert lines[-1].startswith("40,")
    for line in lines[1:]:
        assert float(line.split(",")[1]) >= 0.0


def test_bench_leaves_the_oracle_cell_empty_past_the_cap(capsys):
    # n = 40 is x = 80, past the cap of 50; n = 10 and 20 are within it.
    code = main(["bench", "--problem", "goldbach", "--n-max", "40", "--oracle-cap", "50"])
    assert code == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["10", "20", "40"]
    assert [row[3] == "" for row in rows] == [False, False, True]


def test_bench_two_squares_bijection_column(capsys):
    code = main(["bench", "--problem", "two-squares", "--n-max", "64"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(",bijection_check")
    assert all(line.endswith(",OK") for line in lines[1:])


@pytest.mark.parametrize("route, rig", [("recursion", _rig_recursion),
                                         ("oracle", _rig_oracle)])
def test_bench_stops_at_the_first_row_where_a_route_differs(route, rig, monkeypatch,
                                                            capsys):
    rig(monkeypatch, 3)
    assert main(["bench", "--problem", "goldbach", "--n-max", "40"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "n_max,engine_s,recursion_s,oracle_s"
    assert len(lines) == 2 and lines[1].startswith("10,")
    assert captured.err == (f"bench goldbach n_max=10: {route} differs from engine first "
                            f"at n=4 x=8 (engine 1 vs {route} 2)\n")


def test_bench_times_each_route_from_its_second_call(monkeypatch, capsys):
    import time
    import types

    import addrep.cli as cli
    from addrep.applications import ProblemSpec

    events = ["start"]
    counts = ProblemSpec.counts

    def spy(spec, n_max, route="engine", tables=None):
        events.append(route)
        return counts(spec, n_max, route, tables)

    def clock():
        events.append("clock")
        return time.perf_counter()

    monkeypatch.setattr(ProblemSpec, "counts", spy)
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=clock))
    assert main(["bench", "--problem", "goldbach", "--n-max", "40"]) == EXIT_OK
    for route in ("engine", "recursion", "oracle"):
        calls = [i for i, event in enumerate(events) if event == route]
        timed = [k for k, i in enumerate(calls) if events[i - 1] == "clock"]
        assert timed[0] == 1, route


def test_bench_loads_the_fft_module_before_its_first_timed_row():
    # The first rows take the engine's shifts route, so a module loaded at
    # the first transform would land in a later row's time.
    script = (
        "import sys, time\n"
        "from addrep.cli import main\n"
        "clock, loaded = time.perf_counter, []\n"
        "def spy():\n"
        "    loaded.append('numpy.fft' in sys.modules)\n"
        "    return clock()\n"
        "time.perf_counter = spy\n"
        "code = main(['bench', '--problem', 'goldbach', '--n-max', '40'])\n"
        "print(code, loaded[0], file=sys.stderr)\n"
    )
    done = _run_python("-c", script)
    assert done.stderr.decode().split() == ["0", "True"], done.stderr


def test_bench_builds_its_sieves_under_the_limit(monkeypatch, capsys):
    import addrep.applications as applications
    import addrep.sequences as sequences

    build_sieve = sequences.build_sieve
    caps = []

    def spy(limit, cap=sequences.DEFAULT_TABLE_CAP):
        caps.append(cap)
        return build_sieve(limit, cap)

    monkeypatch.setattr(applications, "build_sieve", spy)
    monkeypatch.setattr(sequences, "build_sieve", spy)
    code = main(["bench", "--problem", "goldbach", "--n-max", "40", "--limit", "100"])
    assert code == EXIT_OK
    assert caps and set(caps) == {100}


def test_closed_stdout_ends_quietly():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    # About 600 kB of rows: far more than a pipe holds, so the writer is
    # still writing when the reader goes away.
    proc = subprocess.Popen(
        [sys.executable, "-m", "addrep.cli", "compute", "--problem", "goldbach",
         "--n-max", "50000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"# goldbach")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert err == b""


def test_bench_rejects_custom(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problem", "custom"])
    assert exc.value.code == EXIT_USAGE
    assert "invalid choice: 'custom'" in capsys.readouterr().err


# --- robustness -------------------------------------------------------------------

def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    import addrep.cli as cli

    def failing_writer(fh, columns, header_lines):
        fh.write(header_lines[0] + "\n")
        for n, v in zip(*columns):
            fh.write(f"{n} {v}\n")
            if n == 10:
                raise OSError("disk full")

    monkeypatch.setattr(cli, "write_bfile", failing_writer)
    fresh = tmp_path / "fresh.txt"
    argv = ["compute", "--problem", "goldbach", "--n-max", "30", "--out"]
    assert main(argv + [str(fresh)]) == EXIT_USAGE
    assert not fresh.exists()

    kept = tmp_path / "kept.txt"
    kept.write_text("1 0\n")
    assert main(argv + [str(kept)]) == EXIT_USAGE
    assert kept.read_text() == "1 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]


def test_limit_option_reaches_the_sieve(monkeypatch, capsys):
    import addrep.applications as applications
    from addrep.errors import ResourceBudgetError

    seen = []

    def spy(limit, cap):
        seen.append((limit, cap))
        raise ResourceBudgetError("stopped before allocating")

    monkeypatch.setattr(applications, "build_sieve", spy)
    code = main(["compute", "--problem", "goldbach", "--n-max", "30000000",
                 "--limit", "100000000"])
    assert code == EXIT_RESOURCE
    assert seen == [(60_000_000, 100_000_000)]


def test_rounding_guard_exits_with_resource_code(monkeypatch, capsys):
    import numpy as np

    from addrep import convolution

    # The 16 odd primes below 60 would take the shifted adds, so the
    # transforms are forced, as in tests/test_convolution.py.
    monkeypatch.setattr(convolution, "_SHIFTS_PER_SIDE", -1)
    irfft = np.fft.irfft
    for off in (0.3, np.nan):
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + off)
        code = main(["compute", "--problem", "goldbach", "--n-max", "30"])
        assert code == EXIT_RESOURCE
        assert "away from an integer" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["5", "5 6 7", "5 x"])
def test_read_bfile_reports_malformed_line(tmp_path, line):
    from addrep.errors import SequenceFormatError

    path = tmp_path / "b.txt"
    path.write_text(f"# header\n1 0\n{line}\n")
    with pytest.raises(SequenceFormatError, match=rf"b\.txt:3: "):
        read_bfile(path)


def test_bare_memory_error_exits_with_resource_code(monkeypatch, capsys):
    import addrep.applications as applications

    def out_of_memory(limit, cap):
        raise MemoryError()

    monkeypatch.setattr(applications, "build_sieve", out_of_memory)
    assert main(["compute", "--problem", "goldbach", "--n-max", "30"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == "error: out of memory in applications.sieve\n"


def test_bare_memory_error_in_the_engine_names_its_module(monkeypatch, capsys, tmp_path):
    import numpy as np

    from addrep import convolution

    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    # Forced transforms, as in test_rounding_guard_exits_with_resource_code.
    monkeypatch.setattr(convolution, "_SHIFTS_PER_SIDE", -1)
    monkeypatch.setattr(np.fft, "rfft", out_of_memory)
    out = tmp_path / "goldbach.txt"
    code = main(["compute", "--problem", "goldbach", "--n-max", "30", "--out", str(out)])
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith("error: out of memory in convolution.")
    assert list(tmp_path.iterdir()) == []


def test_custom_odd_odd_run_does_not_import_numpy_ma(tmp_path):
    # np.intersect1d (and np.unique, np.union1d) import numpy.ma, which
    # costs resident memory on every custom run.
    import os
    import subprocess
    import sys
    from pathlib import Path

    a = _odd_file(tmp_path, "a.txt", last=41)
    b = tmp_path / "b.txt"
    b.write_text("parity: odd\n3\n9\n15\n21\n")
    script = (
        "import sys\n"
        "from addrep.cli import main\n"
        f"code = main(['compute', '--problem', 'custom', '--seq-a', {a!r},"
        f" '--seq-b', {str(b)!r}, '--x-max', '40', '--out', {str(tmp_path / 'o')!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


# --- row writers and the process entry point ------------------------------------

def _old_bfile(rows, header):
    return "".join(line + "\n" for line in header) + "".join(f"{n} {v}\n" for n, v in rows)


def _old_csv(rows, header):
    body = "".join(f"{n},{v}\n" for n, v in rows)
    return "".join(line + "\n" for line in header) + "n,count\n" + body


def _old_json(rows, meta):
    import io

    buf = io.StringIO()
    payload = dict(meta)
    payload["rows"] = [[n, v] for n, v in rows]
    json.dump(payload, buf, indent=2)
    buf.write("\n")
    return buf.getvalue()


INT64_MAX = 2**63 - 1
_int64 = st.one_of(st.just(0), st.integers(0, 9), st.integers(10**12, INT64_MAX),
                   st.integers(0, INT64_MAX))


@st.composite
def row_arrays(draw):
    """(n, v) rows: a drawn length, block sizes and their neighbours among
    them, filled at random below a drawn magnitude per column, the first
    few rows drawn by hypothesis itself."""
    from addrep.cli import BLOCK_ROWS

    length = draw(st.one_of(
        st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]),
        st.integers(0, 50),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    highs = draw(st.tuples(*[st.sampled_from([0, 1, 9, 10, 10**6, 10**13, INT64_MAX])] * 2))
    rows = np.column_stack([rng.integers(0, high, size=length, dtype=np.int64, endpoint=True)
                            for high in highs])
    drawn = draw(st.lists(st.tuples(_int64, _int64), max_size=min(length, 20)))
    if drawn:
        rows[: len(drawn)] = drawn
    return rows


def _assert_same_text(got, want, what):
    """Fail with the first difference and 40 characters on each side of it:
    pytest's diff of two long writer texts takes about a minute."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"{what} differs at character {at}: "
                    f"{got[max(at - 40, 0) : at + 40]!r} != {want[max(at - 40, 0) : at + 40]!r}")


# No shrink phase: shrinking arrays of up to 2 * BLOCK_ROWS + 1 rows took
# 8-16 s on a writer fault, and a failure names its first differing text.
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(row_arrays())
@example(np.zeros((BLOCK_ROWS + 3, 2), dtype=np.int64))  # all-zero blocks
@example(np.arange(4 * BLOCK_ROWS + 2, dtype=np.int64).reshape(-1, 2) % 10)  # one-digit fields
@example(np.array([[0, 7], [100, 0], [5, 12345]], dtype=np.int64))  # leading zeros in each field
@example(np.array([[2**32 - 1, 7], [3, 2**32]], dtype=np.int64))  # uint32's largest, and one past
def test_writers_match_the_f_string_and_json_output(rows):
    import io

    import addrep.cli as cli

    header = ["# a header line", "# cross-reference: OEIS A002375"]
    meta = {"problem": "goldbach", "oeis": None}
    pairs = rows.tolist()
    for writer, context, want in (
        (cli.write_bfile, header, _old_bfile(pairs, header)),
        (cli.write_csv, header, _old_csv(pairs, header)),
        (cli.write_json, meta, _old_json(pairs, meta)),
    ):
        buf = io.StringIO()
        writer(buf, rows.T, context)
        _assert_same_text(buf.getvalue(), want, writer.__name__)


@pytest.mark.parametrize("keys", [range(0), range(1, 2), range(7, 7 + 2 * (2 * BLOCK_ROWS + 1), 2)])
def test_writers_build_a_range_key_column_block_by_block(keys):
    import io

    import addrep.cli as cli

    counts = np.arange(len(keys), dtype=np.int64) * 3
    for writer, context in ((cli.write_bfile, ["# h"]), (cli.write_csv, ["# h"]),
                            (cli.write_json, {"problem": "p"})):
        by_range, by_array = io.StringIO(), io.StringIO()
        writer(by_range, (keys, counts), context)
        writer(by_array, (np.array(keys, dtype=np.int64), counts), context)
        _assert_same_text(by_range.getvalue(), by_array.getvalue(), writer.__name__)


@pytest.mark.parametrize("literals, peak_kb", [
    (["", " ", "\n"], 560),  # bfile: 496 KB traced; 584 with a leading-zero mask
    ([",\n    [\n      ", ",\n      ", "\n    ]"], 1180),  # JSON: 1014 KB
    (["PASS goldbach n=", " x=", " count=", "\n"], 1380),  # verify's PASS lines: 1199 KB
])
def test_row_writer_peak_memory_is_one_block(literals, peak_kb):
    # 10^5 rows in 2^13-row blocks, at most two block-sized buffers at a
    # time: keeping the digit matrix beside its bytes traced 1310 KB for
    # JSON and 1534 for verify.  Blocks of 2^14 rows traced 987, 2026 and
    # 2394 KB, so a writer that formats more rows at a time fails.
    import tracemalloc

    from addrep.applications import PROBLEMS
    from addrep.cli import _format_rows

    n_max = 10**5
    counts = PROBLEMS["goldbach"].counts(n_max)
    keys = [range(1, n_max + 1), range(4, 2 * n_max + 3, 2)][: len(literals) - 2]
    tracemalloc.start()
    try:
        length = sum(len(text) for text in _format_rows((*keys, counts), literals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert length > 10 * n_max
    assert peak <= peak_kb * 1024, peak


@pytest.mark.parametrize("writer, context, peak_kb", [
    ("write_bfile", ["# h"], 470),  # 410 KB traced; 498 with a leading-zero mask
    ("write_csv", ["# h"], 470),
    ("write_json", {"problem": "goldbach"}, 880),  # 724 KB traced; 1019 with the matrix kept
])
def test_writers_hold_one_block_at_a_time(writer, context, peak_kb):
    # The same 10^5 rows through each writer: no block's text is kept while
    # the next one is formatted, the JSON writer's first comma included.
    import io
    import tracemalloc

    import addrep.cli as cli
    from addrep.applications import PROBLEMS

    class Sink(io.TextIOBase):
        length = 0

        def write(self, text):
            self.length += len(text)
            return len(text)

    n_max = 10**5
    counts = PROBLEMS["goldbach"].counts(n_max)
    sink = Sink()
    tracemalloc.start()
    try:
        getattr(cli, writer)(sink, (range(1, n_max + 1), counts), context)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length > 10 * n_max
    assert peak <= peak_kb * 1024, peak


def test_row_writer_refuses_a_nul_literal():
    # NUL marks the leading zeros that the writer drops.
    from addrep.cli import _format_rows

    with pytest.raises(ValueError, match="NUL"):
        next(_format_rows((range(3), np.arange(3)), ["", "\0", "\n"]))


def _run_python(*args):
    """A child interpreter on this package, its stdout block-buffered."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def _run_module(*args):
    return _run_python("-m", "addrep.cli", *args)


def test_entry_point_flushes_and_skips_exit_hooks():
    # A main() that leaves output in the buffers: console_main flushes it,
    # exits with main's code and runs no atexit hook.
    script = (
        "import atexit, sys\n"
        "import addrep.cli as cli\n"
        "atexit.register(lambda: print('hook ran', file=sys.stderr))\n"
        "def main():\n"
        "    sys.stdout.write('rows')\n"
        "    sys.stderr.write('message')\n"
        "    return 3\n"
        "cli.main = main\n"
        "cli.console_main()\n"
    )
    done = _run_python("-c", script)
    assert (done.returncode, done.stdout, done.stderr) == (3, b"rows", b"message")


def test_module_entry_keeps_the_exit_codes(tmp_path):
    out = tmp_path / "g.txt"
    done = _run_module("compute", "--problem", "goldbach", "--n-max", "30", "--out", str(out))
    assert (done.returncode, done.stderr) == (EXIT_OK, b"")
    assert out.read_text().splitlines()[-1] == "30 6"

    done = _run_module("compute", "--problem", "goldbach", "--n-max", "0")
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith(b"error: --n-max must be >= 1")

    done = _run_module("compute", "--problem", "goldbach", "--n-max", "1000", "--limit", "100")
    assert done.returncode == EXIT_RESOURCE
    assert done.stderr.startswith(b"error: run needs tables up to 2000")

    done = _run_module("compute", "--problem", "nope")  # argparse exits by itself
    assert done.returncode == EXIT_USAGE


def test_stdout_gets_the_bytes_of_the_out_file(tmp_path):
    # About 490 kB: far more than a pipe holds (64 kB), so the run is still
    # writing when the reader starts, and all of it must be flushed.
    out = tmp_path / "g.txt"
    argv = ["compute", "--problem", "goldbach", "--n-max", "50000"]
    to_file = _run_module(*argv, "--out", str(out))
    to_stdout = _run_module(*argv, "--out", "-")
    assert to_file.returncode == to_stdout.returncode == EXIT_OK
    assert len(to_stdout.stdout) > 400_000
    assert to_stdout.stdout == out.read_bytes()


def test_verify_writes_its_lines_in_blocks(monkeypatch, capsys):
    import sys

    writes = []
    write = sys.stdout.write
    monkeypatch.setattr(sys.stdout, "write", lambda text: writes.append(text) or write(text))
    assert main(["verify", "--problem", "goldbach", "--n-max", "5000"]) == EXIT_OK
    # One write per block of PASS rows, and one for the final line.
    assert len(writes) == -(-5000 // BLOCK_ROWS) + 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5001
    assert lines[4999] == "PASS goldbach n=5000 x=10000 count=127"


def test_verify_mismatch_output_is_unchanged(monkeypatch, capsys):
    _rig_oracle(monkeypatch, 3)
    assert main(["verify", "--problem", "two-triangular", "--n-max", "10"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == (
        "PASS two-triangular n=0 x=0 count=1\n"
        "PASS two-triangular n=1 x=2 count=1\n"
        "PASS two-triangular n=2 x=4 count=1\n"
        "MISMATCH two-triangular n=3 x=6: engine=1 oracle=2\n"
    )
    assert captured.err == "verification failed at n=3 x=6 (engine 1 vs oracle 2)\n"


# --- verify output across a block of rows --------------------------------------

def _verify_lines(name, label, counts, mismatch=None):
    """verify's stdout as one f-string per row: ``label(i)`` names row i,
    and ``mismatch`` is the row whose oracle count was raised by one."""
    rows = range(len(counts) if mismatch is None else mismatch)
    lines = [f"PASS {name} {label(i)} count={counts[i]}\n" for i in rows]
    if mismatch is None:
        lines.append(f"PASS {name}: all {len(counts)} terms match the brute-force oracle\n")
    else:
        got = counts[mismatch]
        lines.append(f"MISMATCH {name} {label(mismatch)}: engine={got} oracle={got + 1}\n")
    return "".join(lines)


def test_verify_output_across_a_block_boundary(capsys):
    from addrep.applications import PROBLEMS

    spec = PROBLEMS["two-squares"]
    n_max = BLOCK_ROWS + 16  # targets up to 4 n_max + 1 = 4 BLOCK_ROWS + 65
    assert main(["verify", "--problem", "two-squares", "--n-max", str(n_max),
                 "--oracle-cap", str(spec.x_of_n(n_max))]) == EXIT_OK
    counts = spec.counts(n_max).tolist()
    want = _verify_lines(spec.name, lambda i: f"n={i} x={spec.x_of_n(i)}", counts)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("parities", [("odd", "odd"), ("even", "even"), ("even", "odd")])
def test_verify_custom_output_across_a_block_boundary(tmp_path, capsys, parities):
    import random

    from addrep.applications import custom_problem
    from addrep.sequences import Parity, ParitySequence

    rng = random.Random(13)
    x_max = 2 * BLOCK_ROWS + 40
    paths, seqs = [], []
    for i, parity in enumerate(parities):
        first = 1 if parity == "odd" else 0
        terms = [t for t in range(first, x_max + 1, 2) if rng.random() < 0.02]
        path = tmp_path / f"{i}.txt"
        path.write_text("\n".join([f"parity: {parity}"] + [str(t) for t in terms]) + "\n")
        paths.append(str(path))
        seqs.append(ParitySequence(terms, Parity(parity), x_max))
    spec = custom_problem(*seqs)
    assert main(["verify", "--problem", "custom", "--seq-a", paths[0], "--seq-b", paths[1],
                 "--x-max", str(x_max), "--oracle-cap", str(x_max)]) == EXIT_OK
    counts = spec.counts((x_max - spec.x_base) // 2).tolist()
    assert len(counts) > BLOCK_ROWS
    want = _verify_lines(spec.name, lambda i: f"x={spec.x_of_n(i)}", counts)
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("row", [0, -1])
def test_verify_mismatch_at_the_first_and_last_row(monkeypatch, capsys, row):
    from addrep.applications import PROBLEMS

    spec = PROBLEMS["goldbach"]
    n_max = BLOCK_ROWS + 16
    _rig_oracle(monkeypatch, row)
    assert main(["verify", "--problem", "goldbach", "--n-max", str(n_max),
                 "--oracle-cap", str(spec.x_of_n(n_max))]) == EXIT_MISMATCH
    counts = spec.counts(n_max).tolist()

    def label(i):
        return f"n={i + 1} x={spec.x_of_n(i + 1)}"

    captured = capsys.readouterr()
    assert captured.out == _verify_lines(spec.name, label, counts, row % len(counts))
    got = counts[row]
    assert captured.err == (
        f"verification failed at {label(row % len(counts))} (engine {got} vs oracle {got + 1})\n"
    )
