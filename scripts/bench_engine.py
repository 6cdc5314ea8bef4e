"""Wall time, peak RSS and diagonal time of `addrep compute` for two source trees.

Runs `addrep compute --problem P --n-max N --format F` in a fresh process
per run, for each source tree (a checkout holding `src/addrep`), problem and
size, alternating which tree runs first.  The child runs the CLI's entry
point as `python -m addrep.cli` does, with every call of the engine's
`convolution._diagonal` timed; their sum is the run's `diagonal_s` (0 on the
shifts route).  The peak RSS is the child's own maxrss from `os.wait4`; the
wall time spans process start to exit.  Each run's output is compared byte
for byte with the first tree's output of the same pair.  Writes one JSON
record to --out.

    python scripts/bench_engine.py --tree parent=../parent --tree change=. \\
        --out BENCH_engine_10m.json
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# addrep.cli.console_main with every _diagonal call timed; prints the seconds
# spent in them, since the rows go to --out.
_CHILD = """
import os, sys, time
from addrep import cli, convolution
diagonal, spent = convolution._diagonal, [0.0]
def timed(*args):
    t0 = time.perf_counter()
    total = diagonal(*args)
    spent[0] += time.perf_counter() - t0
    return total
convolution._diagonal = timed
code = cli.main(sys.argv[1:])
print(spent[0], flush=True)
sys.stderr.flush()
os._exit(code)
"""


def run_once(src: Path, problem: str, n: int, fmt: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", _CHILD, "compute", "--problem", problem,
            "--n-max", str(n), "--format", fmt, "--out", str(out)]
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE)
    printed = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    if status:
        raise SystemExit(f"{' '.join(argv)} failed with status {status}")
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "diagonal_s": round(float(printed), 4)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="NAME=PATH of a checkout; give two, the reference first")
    parser.add_argument("--problems", nargs="+",
                        default=["goldbach", "chen-total", "lemoine-levy"])
    parser.add_argument("--sizes", nargs="+", type=int, default=[10**6, 10**7])
    parser.add_argument("--format", default="bfile", choices=["bfile", "csv", "json"],
                        help="output format passed to `compute --format`")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = [(name, Path(path).resolve() / "src")
             for name, path in (spec.split("=", 1) for spec in args.tree)]
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for problem in args.problems:
            for n in args.sizes:
                for run in range(args.runs):
                    order = trees if run % 2 == 0 else trees[::-1]
                    outputs = {}
                    for position, (name, src) in enumerate(order):
                        outputs[name] = Path(work) / f"{name}.txt"
                        rows.append({"problem": problem, "n": n, "run": run, "side": name,
                                     "first": position == 0,
                                     **run_once(src, problem, n, args.format, outputs[name])})
                        print(json.dumps(rows[-1]), flush=True)
                    reference = outputs[trees[0][0]]
                    for row in rows[-len(trees):]:
                        row["identical"] = filecmp.cmp(reference, outputs[row["side"]],
                                                       shallow=False)
    summary = []
    for problem in args.problems:
        for n in args.sizes:
            for name, _ in trees:
                mine = [r for r in rows if (r["problem"], r["n"], r["side"]) == (problem, n, name)]
                summary.append({
                    "problem": problem, "n": n, "side": name,
                    "wall_s_median": round(statistics.median(r["wall_s"] for r in mine), 3),
                    "wall_s_range": [min(r["wall_s"] for r in mine), max(r["wall_s"] for r in mine)],
                    "peak_rss_mb_median": round(statistics.median(r["peak_rss_mb"] for r in mine), 1),
                    "diagonal_s_median": round(statistics.median(r["diagonal_s"] for r in mine), 4),
                    "identical": all(r["identical"] for r in mine),
                })
    import numpy  # only now: a child's maxrss starts from this process's size at fork

    record = {
        "what": "fresh-process `addrep compute --problem P --n-max N "
                f"--format {args.format} --out FILE`; "
                "peak RSS is the child's maxrss from os.wait4; diagonal_s sums the child's "
                "convolution._diagonal calls; runs alternate which tree goes first",
        "host": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}, "
                f"numpy {numpy.__version__}",
        "trees": [name for name, _ in trees],
        "summary": summary,
        "runs": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
