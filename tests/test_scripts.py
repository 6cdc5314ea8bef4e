"""The committed benchmark harnesses run end to end at toy sizes, so a rename
in the program that breaks one fails here rather than at its next use."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                         capture_output=True, text=True, timeout=120, env=env)
    assert res.returncode == 0, res.stdout + res.stderr


def test_fit_routes_times_both_routes_for_every_shape(tmp_path):
    out = tmp_path / "routes.json"
    run_script("fit_routes.py", "--sizes", 2000, "--ks", 10, "--runs", 1, "--out", out)
    rows = json.loads(out.read_text())["rows"]
    assert sorted(row["shape"] for row in rows) == sorted(
        ["equal", "contained", "even-odd", "disjoint", "partly shared"])
    for row in rows:
        assert row["shifts_s"] > 0 and row["transforms_s"] > 0
        assert row["rule"] in ("shifts", "transforms")


def test_bench_engine_finds_one_tree_identical_to_itself(tmp_path):
    out = tmp_path / "engine.json"
    run_script("bench_engine.py", "--tree", f"a={ROOT}", "--tree", f"b={ROOT}",
               "--problems", "goldbach", "--sizes", 100, "--runs", 1, "--out", out)
    record = json.loads(out.read_text())
    assert [(row["side"], row["identical"]) for row in record["summary"]] == [
        ("a", True), ("b", True)]
    assert [row["side"] for row in record["runs"]] == ["a", "b"]



def test_bench_engine_times_the_diagonal(tmp_path):
    # goldbach at n = 2000 pairs some 550 odd primes: the transform route.
    out = tmp_path / "engine.json"
    run_script("bench_engine.py", "--tree", f"a={ROOT}", "--tree", f"b={ROOT}",
               "--problems", "goldbach", "--sizes", 2000, "--runs", 1, "--out", out)
    record = json.loads(out.read_text())
    assert all(row["diagonal_s"] > 0 for row in record["runs"])
    assert all(row["identical"] and row["diagonal_s_median"] > 0 for row in record["summary"])
