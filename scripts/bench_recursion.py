"""Before/after numbers of the recursion route for two source trees.

Each tree is a checkout root holding `src/addrep` and `perfbench/`.  The
script runs, in order:

* --pairs pairs of `python3 perfbench/run.py --workload custom-general
  --seconds S --trace 0 --seed i` (i = 1..pairs) in each tree, alternating
  which tree goes first, and reports the median and quartiles of the four
  end-to-end metrics per tree and how many pairs each tree won;
* one traced pair (`--trace 1 --seed 1`), for the recursion layer's
  run time, summed terms and time per summed term;
* `python -m addrep.cli bench --problem P --n-max N` per problem, --runs
  times per tree, alternating, for the recursion route's column;
* the sha256 of every built-in problem's recursion and engine counts at
  --n-max in each tree, and a check that they are all the same.

Appends one JSON record to the list of records in --out (a new file
starts the list).

    python scripts/bench_recursion.py --tree parent=../parent --tree change=. \\
        --note "what the change tree changes" --out BENCH_recursion.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("terms_per_s", "slowest_op_s", "peak_rss_mb", "setup_s")
TRACED = ("recursion.run_s", "recursion.terms_summed", "recursion.ns_per_term_summed")
COUNTS = ("import sys; from addrep.applications import PROBLEMS; "
          "sys.stdout.buffer.write(PROBLEMS[sys.argv[1]].counts(int(sys.argv[2]), "
          "sys.argv[3]).tobytes())")
PROBLEMS = ("chen-odd-odd", "chen-total", "goldbach", "lemoine-levy", "two-squares",
            "two-triangular")


def perfbench(root: Path, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", "custom-general",
            "--seconds", str(seconds), "--trace", str(trace), "--seed", str(seed)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {' '.join(argv)} failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def addrep(root: Path, *args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          check=True).stdout


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def alternate(trees, run_index):
    return trees if run_index % 2 == 0 else trees[::-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="NAME=PATH of a checkout root; give two, the reference first")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--problems", nargs="+",
                        default=["goldbach", "lemoine-levy", "two-triangular"])
    parser.add_argument("--n-max", type=int, default=20000)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--note", default="", help="what the change tree changes")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = [(name, Path(path).resolve())
             for name, path in (spec.split("=", 1) for spec in args.tree)]
    names = [name for name, _ in trees]

    pairs = []
    for i in range(args.pairs):
        pair = {"seed": i + 1, "first": alternate(trees, i)[0][0]}
        for name, root in alternate(trees, i):
            pair[name] = perfbench(root, i + 1, args.seconds, 0)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    reference, change = names
    end_to_end = {
        name: {metric: spread([p[name][metric] for p in pairs]) for metric in METRICS}
        for name in names
    }
    wins = sum(p[change]["terms_per_s"] > p[reference]["terms_per_s"] for p in pairs)

    traced = {}
    for name, root in trees:
        metrics = perfbench(root, 1, args.seconds, 1)
        traced[name] = {metric: metrics[metric] for metric in TRACED}
        print(json.dumps({name: traced[name]}), flush=True)

    bench = {}
    for problem in args.problems:
        columns = {name: [] for name in names}
        for run in range(args.runs):
            for name, root in alternate(trees, run):
                csv = addrep(root, "-m", "addrep.cli", "bench", "--problem", problem,
                             "--n-max", str(args.n_max)).decode().splitlines()
                col = csv[0].split(",").index("recursion_s")
                columns[name].append({int(row.split(",")[0]): float(row.split(",")[col])
                                      for row in csv[1:]})
        bench[problem] = {
            name: {
                "recursion_s_at_n_max": spread([c[args.n_max] for c in columns[name]]),
                "recursion_s_by_n_max_median": {
                    n: statistics.median(c[n] for c in columns[name]) for n in columns[name][0]
                },
            }
            for name in names
        }
        print(json.dumps({problem: bench[problem]}), flush=True)

    counts = {
        problem: {
            name: {route: hashlib.sha256(addrep(root, "-c", COUNTS, problem,
                                                str(args.n_max), route)).hexdigest()
                   for route in ("recursion", "engine")}
            for name, root in trees
        }
        for problem in PROBLEMS
    }
    identical = all(len({d for tree in by_tree.values() for d in tree.values()}) == 1
                    for by_tree in counts.values())
    print(json.dumps({"counts_identical": identical}), flush=True)

    import numpy  # only now, so the child processes above never see it loaded

    record = {
        "note": args.note,
        "what": "custom-general end to end through perfbench, alternating trees per pair; "
                "one traced perfbench pair; `addrep bench` recursion column",
        "command": " ".join(["python scripts/bench_recursion.py",
                             *(f"--tree {name}=<checkout>" for name in names),
                             f"--pairs {args.pairs} --seconds {args.seconds:g}",
                             f"--n-max {args.n_max} --runs {args.runs}",
                             f"--note <note> --out {args.out}"]),
        "perfbench_command": "python3 perfbench/run.py --workload custom-general "
                             f"--seconds {args.seconds:g} --trace 0|1 --seed <i>",
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, Python "
                f"{platform.python_version()}, numpy {numpy.__version__}",
        "trees": names,
        "terms_per_s_wins": {change: wins, reference: args.pairs - wins},
        "end_to_end": end_to_end,
        "traced_seed_1": traced,
        "bench_recursion": bench,
        "counts_sha256_at_n_max": counts,
        "counts_identical": identical,
        "pairs": pairs,
    }
    out = Path(args.out)
    records = json.loads(out.read_text()) if out.exists() else []
    out.write_text(json.dumps(records + [record], indent=1) + "\n")


if __name__ == "__main__":
    main()
