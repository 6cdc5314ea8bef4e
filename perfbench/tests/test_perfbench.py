"""Tests of the benchmark itself: smoke runs, the gate, seeding, work counts."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    res = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--scale", "smoke")
    assert res.returncode == 0, res.stdout + res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt(path: Path) -> None:
    """Add 1 to the value of the middle data row of a series output."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload["rows"][len(payload["rows"]) // 2][1] += 1
        path.write_text(json.dumps(payload))
        return
    lines = path.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if line[:1].isdigit() or line.startswith("PASS ")]
    i = data[len(data) // 2]
    lines[i] = re.sub(r"\d+$", lambda m: str(int(m.group()) + 1), lines[i])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, op_id", [
    ("compute-series", "compute:goldbach"),
    ("verify-oracle", "verify:lemoine-levy"),
    ("custom-general", "custom:even-even"),
    ("custom-general", "custom:even-odd"),
])
def test_corrupted_term_is_counted_failed(tmp_path, workload, op_id):
    bench_run = run.Run(workload, 5, 0, "smoke", tmp_path)
    records = run.cli_pass(bench_run.ops, tmp_path, lambda: 0)
    op = next(o for o in bench_run.ops if o["id"] == op_id)
    _corrupt(tmp_path / (op.get("out") or op["stdout"]))
    bench_run.checked(records)
    assert bench_run.failed_ops == 1
    assert list(bench_run.failures) == [op_id]


def test_tables_round_trip_mismatch_is_caught(tmp_path):
    ops = workloads.build("tables-10m", 5, tmp_path, "smoke")
    _, records = run.inproc(ops, tmp_path, "plain")
    load = next(r for r in records if r["id"] == "tables:load_sequence")
    load["len"] -= 1
    failures = gate.check_pass(ops, {r["id"]: r for r in records}, tmp_path)
    assert [op_id for op_id, f in failures.items() if f] == ["tables:load_sequence"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_inputs(tmp_path, workload):
    def make(seed, name):
        d = tmp_path / name
        d.mkdir()
        ops = workloads.build(workload, seed, d, "smoke")
        return ops, {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = make(7, "a")
    assert make(7, "b") == first
    assert make(8, "c") != first


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench(tmp_path, "--workload", "compute-series", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""


@pytest.mark.parametrize("problem", sorted(workloads.N_START))
def test_reference_matches_brute_force(problem):
    start, n_max = workloads.N_START[problem], 80
    want = [gate.brute_sample(problem, n) for n in range(start, n_max + 1)]
    assert gate.problem_reference(problem, n_max) == want


def test_recorded_digests_match_reference():
    for key, recorded in gate.expected()["series_sha256"].items():
        problem, n_max = key.split(":")
        assert gate.digest(gate.problem_reference(problem, int(n_max))) == recorded, key
    limits = {int(key.split(":")[1]) for key in gate.expected()["tables_sha256"]}
    primes = gate.prime_flags(max(limits))
    for key, recorded in gate.expected()["tables_sha256"].items():
        kind, limit = key.split(":")
        terms = np.flatnonzero(gate.kind_flags(kind, int(limit), primes))
        assert gate.digest(terms.tolist()) == recorded, key


def test_reference_known_counts():
    primes = gate.prime_flags(10**7)
    assert int(gate.kind_flags("odd-primes", 10**7, primes).sum()) == 664_578
    assert int(gate.kind_flags("all-odd", 10**7).sum()) == 5_000_000


@pytest.mark.parametrize("problem", sorted(workloads.N_START))
def test_oracle_pair_count_is_exact(monkeypatch, problem):
    import addrep.applications as applications
    from addrep.oracle import _default_base, brute_count_series

    checked = 0

    def counting(seq_a, seq_b, x_max, role_tagged=False, base=None):
        nonlocal checked
        first = _default_base(seq_a, seq_b, role_tagged) if base is None else base
        merged = sorted(set(seq_a.terms) | set(seq_b.terms))
        for x in range(first, x_max + 1, 2):
            pool, cap = (seq_a.terms, x) if role_tagged else (merged, x // 2)
            checked += sum(1 for t in pool if t <= cap)
        return brute_count_series(seq_a, seq_b, x_max, role_tagged, base)

    monkeypatch.setattr(applications, "brute_count_series", counting)
    applications.PROBLEMS[problem].oracle_series(150)
    assert checked == inproc.oracle_pairs(problem, 150)


def test_recursion_term_count_is_exact(tmp_path, monkeypatch):
    import addrep.cli
    import addrep.recursion as recursion

    summed = 0
    original = recursion._capped_sum

    def counting(counts, terms, cap, x):
        nonlocal summed
        summed += sum(1 for t in terms if t <= cap)
        return original(counts, terms, cap, x)

    monkeypatch.setattr(recursion, "_capped_sum", counting)
    monkeypatch.chdir(tmp_path)
    ops = workloads.build("custom-general", 4, tmp_path, "smoke")
    want_steps = want_summed = 0
    for op in ops:
        assert addrep.cli.main(op["argv"]) == 0
        steps, terms = inproc.recursion_terms(op)
        want_steps += steps
        want_summed += terms
    assert summed == want_summed
    assert want_steps == sum(op["terms"] - 1 for op in ops)


def test_digest_is_chunked_sha256_of_int64():
    import hashlib

    values = list(range(-3, 3 * gate.DIGEST_CHUNK + 5, 3))
    want = hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()
    assert gate.digest(values) == want
    assert gate.digest(tuple(values)) == gate.digest(np.array(values)) == want


def test_library_ops_have_a_root_span(tmp_path):
    ops = workloads.build("tables-10m", 5, tmp_path, "smoke")
    proc, records = run.inproc(ops, tmp_path, "traced")
    assert len(records) == len(ops)
    roots = [s for s in proc["spans"] if s["parent"] is None]
    assert [s["name"] for s in roots] == ["driver.op"] * len(ops)
    assert 0 < proc["layers"]["sequences.self_frac"] < 1


def test_runner_does_not_load_numpy():
    # A child's wait4 peak RSS includes the runner's own peak.
    code = "import sys, run; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_calibrator_scales_by_its_median_and_stops():
    cal = run.Calibrator()
    try:
        for _ in range(3):
            cal.sample()
    finally:
        cal.close()
    assert cal.proc.returncode == 0
    assert len(cal.samples) == 3 and all(t > 0 for t in cal.samples)
    cal.samples = [0.5, 4.0, 2.0, 1.0]
    assert cal.scale(0) == run.CALIB_REFERENCE_S / 2.25
    assert cal.scale(1) == cal.scale(2) == run.CALIB_REFERENCE_S / 2.0
    assert cal.scale(3) == run.CALIB_REFERENCE_S / 1.5


def test_iq_mean_drops_the_outer_quarters():
    assert run.iq_mean([3.0, 1.0, 2.0]) == 2.0
    assert run.iq_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert run.iq_mean([9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]) == 3.5
