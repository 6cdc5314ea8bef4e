"""Benchmark for addrep: run one workload, check every output, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compute-series --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: every ``cli`` op is a fresh
``python -m addrep.cli`` process, timed and accounted (peak RSS) through
``os.wait4``; ``tables-10m`` runs its library calls in one fresh driver
process.  Each wall time is scaled to the reference host's speed by
``calib.py`` samples taken next to it (see ``Calibrator``).  ``--trace 1`` runs the same ops in one process per pass, once
traced and once plain, and reports the per-layer metrics.  Every pass is
checked by ``gate.py`` in a child process; a failed check counts the op as
failed and makes the command exit 1.

Metric names and units come from ``BENCHMARK.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The lines before it list every metric with its unit and
sample count, ``failed_frac``, and the environment.  A traced run also
writes the spans of its last traced pass to
``.bench_build/spans-<workload>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Pinned in the children only: a default numpy import starts a BLAS
# thread pool whose spinning competes with the program on a small box.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
SETUP_ARGV = ["compute", "--problem", "goldbach", "--n-max", "1", "--out", "setup.txt"]
SETUP_BLOCK = 1          # setup samples taken before each pass
MIN_SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 150
# Median wall time of one calib.py unit on the reference host (2-vCPU Xeon
# VM, Python 3.11.7, numpy 2.4.6).  Timed metrics are scaled by this over
# the run's own median, so they read as wall times on that host.
CALIB_REFERENCE_S = 0.058


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list[str], cwd: Path, stdout=subprocess.DEVNULL) -> dict:
    """Run one child; wall time from spawn to reap, peak RSS from wait4."""
    with open(cwd / "stderr.txt", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "stderr": (cwd / "stderr.txt").read_text()[-500:],
    }


class Calibrator:
    """The calib.py child of one run: host-speed samples on request."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calib.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calib.py exited")
        self.samples.append(float(line))
        return len(self.samples) - 1

    def extend(self, samples: list[float]) -> int:
        """Add samples taken elsewhere; returns the index of the first."""
        self.samples.extend(samples)
        return len(self.samples) - len(samples)

    def scale(self, i: int) -> float:
        """Factor that turns the wall time of a child started right after
        sample ``i`` into a reference-host one: the host's speed is taken
        from the median of that sample and its two neighbours, as it
        drifts within a run."""
        return CALIB_REFERENCE_S / statistics.median(self.samples[max(0, i - 1) : i + 2])

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "addrep.cli", *args]


def inproc(ops: list[dict], work: Path, mode: str) -> tuple[dict, list[dict]]:
    """One pass in one driver process; returns (process, per-op records)."""
    (work / "ops.json").write_text(json.dumps(ops))
    result = work / "inproc-result.json"
    result.unlink(missing_ok=True)
    proc = run_child(
        [sys.executable, str(BENCH / "inproc.py"), "--ops", "ops.json",
         "--work", str(work), "--mode", mode, "--result", str(result)],
        work,
    )
    if proc["exit"] != 0 or not result.exists():
        return proc, []
    data = json.loads(result.read_text())
    proc.update(layers=data.get("layers"), spans=data.get("spans"),
                calib_s=data.get("calib_s"))
    return proc, data["ops"]


def cli_pass(ops: list[dict], work: Path, before) -> list[dict]:
    records = []
    for op in ops:
        cal = before()
        out = open(work / op["stdout"], "w") if "stdout" in op else None
        with out or contextlib.nullcontext():
            rec = run_child(cli_argv(op["argv"]), work, out or subprocess.DEVNULL)
        rec.update(id=op["id"], cal=cal)
        records.append(rec)
    return records


def gate(ops: list[dict], records: list[dict], work: Path) -> dict[str, list[str]]:
    """Failures per op id, from a gate child process.

    The runner must stay small: the peak RSS that wait4 reports for a
    child includes the runner's own peak, because Linux carries the
    high-water mark of the memory a child had before exec into its
    maxrss.  With numpy and the gate's reference arrays in the runner,
    compute-series (then at goldbach n=10^5) read peak_rss_mb 73 MB,
    spread 0.32 over ten seeds, for ops whose own peak is 43 MB.
    """
    spec = {"work": str(work), "ops": ops, "results": {r["id"]: r for r in records}}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gate.py")], input=json.dumps(spec),
            capture_output=True, text=True, cwd=work, env=child_env(),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {op["id"]: ["gate timed out"] for op in ops}
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return {op["id"]: [f"gate crashed: {proc.stderr[-500:]}"] for op in ops}


def iq_mean(values) -> float:
    """Mean of the middle half (all of them below four values): steadier
    than the median over the few timings a run gets, and as deaf to a
    stray slow one."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k : len(v) - k])


def pass_terms(ops: list[dict], records: list[dict]) -> int:
    by_id = {r["id"]: r for r in records}
    return sum(op.get("terms", by_id.get(op["id"], {}).get("len", 0)) for op in ops)


class Run:
    """Measurement state of one invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, scale: str, work: Path):
        self.ops = workloads.build(workload, seed, work, scale)
        self.workload, self.seconds, self.work = workload, seconds, work
        self.attempted = 0
        self.failed_ops = 0
        self.failures: dict[str, list[str]] = {}
        self.samples: dict[str, list[float]] = {}
        self.op_walls: dict[str, list[float]] = {}  # of ops that exited 0
        self.timed: dict[str, tuple[float, str]] = {}  # scaled, and how
        self.spans: list[dict] = []  # of the last traced pass

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def checked(self, records: list[dict]) -> None:
        """Gate one pass and count its ops."""
        failures = gate(self.ops, records, self.work)
        for rec in records:
            if rec.get("exit", 0) != 0:
                failures[rec["id"]].insert(0, rec.get("error") or rec.get("stderr", "")[-200:])
        self.attempted += len(self.ops)
        for op_id, problems in failures.items():
            if problems:
                self.failures.setdefault(op_id, []).extend(problems)
        self.failed_ops += sum(1 for problems in failures.values() if problems)

    def end_to_end(self, cal: Calibrator) -> None:
        def setup() -> tuple[float, int]:
            i = cal.sample()
            return run_child(cli_argv(SETUP_ARGV), self.work)["wall_s"], i

        setup()  # the first start compiles bytecode; not a sample
        setups: list[tuple[float, int]] = []  # (wall, calib sample index)
        start, passes, terms = time.perf_counter(), [], 0
        # Another pass, with its gating, only while a typical one and the
        # setup samples still missing after it would fit.
        while not passes or (
            time.perf_counter() - start + statistics.median(passes)
            + max(0, MIN_SETUP_SAMPLES - len(setups) - SETUP_BLOCK)
            * (statistics.median(w for w, _ in setups) + statistics.median(cal.samples))
            <= self.seconds
        ):
            t0 = time.perf_counter()
            for _ in range(SETUP_BLOCK):
                setups.append(setup())
            if self.workload == "tables-10m":
                # The driver samples the host's speed itself, before each
                # op and after the last, since it runs for seconds.
                proc, records = inproc(self.ops, self.work, "calibrated")
                records = records or self.failed_records(proc)
                first = cal.extend(proc.get("calib_s") or [])
                for k, rec in enumerate(records):
                    rec.update(rss_mb=proc["rss_mb"], cal=first + k)
            else:
                records = cli_pass(self.ops, self.work, cal.sample)
            self.checked(records)
            passes.append(time.perf_counter() - t0)
            self.add("peak_rss_mb", max(r["rss_mb"] for r in records))
            ok = [rec for rec in records if rec.get("exit", 0) == 0]
            for rec in ok:
                self.op_walls.setdefault(rec["id"], []).append((rec["wall_s"], rec["cal"]))
            if len(ok) == len(self.ops):
                terms = pass_terms(self.ops, records)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(setup())
        cal.sample()  # the last child's right-hand neighbour
        # Every wall time is scaled to the reference host by the calib.py
        # samples taken next to it: the host's speed drifts by up to 1.6x
        # for seconds to minutes, which no statistic of the program's own
        # times can tell from a change in the program.
        how = f"each scaled by the host's speed from {len(cal.samples)} calib samples"
        raw = iq_mean(w for w, _ in setups)
        value = iq_mean(w * cal.scale(i) for w, i in setups)
        self.timed["setup_s"] = value, (
            f"interquartile mean of {len(setups)}, {how}; unscaled {raw:.6g} s")
        if len(self.op_walls) == len(self.ops):
            raw = sum(iq_mean(w for w, _ in ws) for ws in self.op_walls.values())
            walls = [iq_mean(w * cal.scale(i) for w, i in ws) for ws in self.op_walls.values()]
            n = min(len(w) for w in self.op_walls.values())
            per = f"each op's interquartile mean wall of {n} passes, {how}"
            self.timed["terms_per_s"] = terms / sum(walls), (
                f"{per}; unscaled {terms / raw:.6g} 1/s")
            self.timed["slowest_op_s"] = max(walls), per

    def result(self, name: str) -> tuple[float, str]:
        """The reported value of a metric, and how it was obtained."""
        if name in self.timed:
            return self.timed[name]
        # A metric without samples means its ops failed; failed > 0 says so.
        values = self.samples.get(name) or [0.0]
        return statistics.median(values), (
            f"median of {len(values)}, range {min(values):.6g} .. {max(values):.6g}"
        )

    def traced(self) -> None:
        start, longest, order = time.perf_counter(), 0.0, ("plain", "traced")
        while not longest or time.perf_counter() - start + longest <= self.seconds:
            t0 = time.perf_counter()
            for mode in order:
                proc, records = inproc(self.ops, self.work, mode)
                self.checked(records or self.failed_records(proc))
                if not records:
                    continue
                wall = sum(r["wall_s"] for r in records)
                if mode == "plain":
                    self.add("trace.untraced_wall_s", wall)
                else:
                    self.add("trace.traced_wall_s", wall)
                    for name, value in proc["layers"].items():
                        self.add(name, value)
                    self.spans = proc["spans"]
            longest = max(longest, time.perf_counter() - t0)
            order = order[::-1]
        traced = self.samples.get("trace.traced_wall_s")
        plain = self.samples.get("trace.untraced_wall_s")
        if traced and plain:
            self.add("trace_overhead_frac",
                     statistics.median(traced) / statistics.median(plain) - 1)

    def failed_records(self, proc: dict) -> list[dict]:
        """Records for every op of a driver process that did not finish."""
        return [{"id": op["id"], "exit": proc["exit"] or -1, "wall_s": 0.0,
                 "stderr": proc["stderr"]} for op in self.ops]


def environment(args) -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "revision": revision,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": workloads.SIZES[args.scale],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="addrep benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'smoke' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "addrep" / "cli.py").is_file():
        print(f"error: no addrep sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # SIGTERM unwinds like an error, so children are killed and work is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cal = None
    try:
        run = Run(args.workload, args.seed, args.seconds, args.scale, work)
        if args.trace:
            run.traced()
        else:
            cal = Calibrator()
            run.end_to_end(cal)
    finally:
        if cal is not None:
            cal.close()
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    metrics = {}
    for m in wanted:
        value, how = run.result(m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<36} {value:>16.6g} {m['unit']:<8} {how}")
    failed = run.failed_ops
    print(f"{'failed_frac':<36} {failed / run.attempted:>16.6g} {'frac':<8}"
          f" {failed} of {run.attempted} ops")
    for op_id, problems in sorted(run.failures.items()):
        print(f"FAILED {op_id}: {'; '.join(dict.fromkeys(problems))}")
    print("# env " + json.dumps(env))
    if args.trace:
        spans = ROOT / ".bench_build" / f"spans-{args.workload}.json"
        spans.write_text(json.dumps({"env": env, "spans": run.spans}))
        print(f"# spans of the last traced pass: {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
