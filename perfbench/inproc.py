"""In-process driver: one workload pass inside one Python process.

``python3 perfbench/inproc.py --ops OPS.json --work DIR
--mode plain|calibrated|traced --result OUT.json`` imports addrep, runs
every op in order and writes a record per op.  ``cli`` ops call
``addrep.cli.main(argv)``, so the calls into each module happen in the
order the command line makes them.  The ``tables-10m`` ops call
``addrep.sequences`` directly and share one set of sieve tables; their
end-to-end timings come from this driver in ``calibrated`` mode, which is
``plain`` with a host-speed sample (``calib.timed_unit``) taken before
every op and after the last, outside the ops' timings.

In ``traced`` mode an in-memory span (name, start, end, parent, op id) is
recorded around every call that crosses a module boundary, by wrapping
the module-level names listed in BOUNDARIES.  Spans and the per-layer
metrics derived from them are written to the result file at the end.
Work counts (terms summed, pairs checked) are computed afterwards from the
step formulas of the recursion and the oracle, outside any timed region.
"""

from __future__ import annotations

import time

# Timed first, before numpy is loaded by anything else: cli.import_s is
# the cost of interpreter-side setup every command pays.
_t0 = time.perf_counter()
import addrep.cli  # noqa: E402  (imports every layer)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
from gate import custom_flags, digest, kind_flags, prime_flags  # noqa: E402

LAYERS = ("sequences", "recursion", "applications", "oracle", "cli")
PROBLEM_NAMES = (
    "goldbach", "chen-odd-odd", "chen-total", "lemoine-levy", "two-squares",
    "two-triangular",
)

# (module, attribute, span name): the cross-module calls the CLI makes.
BOUNDARIES = (
    ("applications", "build_sieve", "sequences.build_sieve"),
    ("sequences", "build_sieve", "sequences.build_sieve"),
    ("sequences", "make_sequence", "sequences.make_sequence"),
    ("sequences", "load_sequence", "sequences.load_sequence"),
    ("applications", "make_sequence", "sequences.make_sequence"),
    ("applications", "odd_semiprime_prefix", "sequences.semiprime_prefix"),
    ("applications", "brute_count_series", "oracle.series"),
    ("applications", "chen_odd_odd", "applications.chen-odd-odd"),
    ("recursion", "intersect", "sequences.intersect"),
    ("cli", "load_sequence", "sequences.load_sequence"),
    ("cli", "brute_count_series", "oracle.series"),
    ("cli", "write_bfile", "cli.write"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "write_json", "cli.write"),
    ("cli", "RecursionEvaluator", "recursion.init"),
)


class Tracer:
    """Spans kept in memory: name, start, end, parent index, op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: str | None = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec.update(_table_stats(result))
            return result

        # updated=() because fn may be a class (RecursionEvaluator).
        return functools.update_wrapper(traced, fn, updated=())


def _table_stats(obj) -> dict:
    """Terms and array bytes of a sequences-layer result."""
    if isinstance(obj, np.ndarray):
        return {"bytes": obj.nbytes}
    slots = getattr(type(obj), "__slots__", None)
    if slots is None or type(obj).__module__ != "addrep.sequences":
        return {}
    arrays = (getattr(obj, s, None) for s in slots)
    stats = {"bytes": sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))}
    if hasattr(obj, "parity"):
        stats["terms"] = len(obj)
    return stats


def instrument(tracer: Tracer) -> None:
    """Wrap every boundary in BOUNDARIES and the problem routes."""
    modules = {
        "applications": addrep.applications,
        "sequences": addrep.sequences,
        "recursion": addrep.recursion,
        "cli": addrep.cli,
    }
    evaluator = addrep.recursion.RecursionEvaluator
    evaluator.run_to = tracer.wrap(evaluator.run_to, "recursion.run")
    for module, attr, name in BOUNDARIES:
        fn = getattr(modules[module], attr, None)
        if fn is not None:
            setattr(modules[module], attr, tracer.wrap(fn, name))
    problems = addrep.applications.PROBLEMS
    for name, spec in list(problems.items()):
        problems[name] = dataclasses.replace(
            spec,
            compute=tracer.wrap(spec.compute, f"applications.{name}"),
            oracle_series=tracer.wrap(spec.oracle_series, f"applications.{name}.oracle_route"),
        )


# -------------------------------------------------------------------- ops


def run_cli(op: dict, state: dict, tracer: Tracer | None) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with tracer.span("cli.main") if tracer else contextlib.nullcontext():
            code = addrep.cli.main(op["argv"])
    if "stdout" in op:
        Path(op["stdout"]).write_text(buf.getvalue())
    record = {"exit": code, "stdout_lines": buf.getvalue().count("\n")}
    if "out" in op and os.path.exists(op["out"]):
        record["bytes_written"] = os.path.getsize(op["out"])
    return record


def run_sieve(op: dict, state: dict, tracer) -> dict:
    state["tables"] = addrep.sequences.build_sieve(op["limit"])
    return {}


def check_sieve(op: dict, state: dict, record: dict) -> None:
    record["pi"] = [state["tables"].pi(x) for x in op["samples"]]


def run_make_sequence(op: dict, state: dict, tracer) -> dict:
    kind = addrep.sequences.SequenceKind(op["sequence"])
    state["seq"] = addrep.sequences.make_sequence(kind, op["limit"], tables=state["tables"])
    return {}


def run_load(op: dict, state: dict, tracer) -> dict:
    state["seq"] = addrep.sequences.load_sequence(op["path"])
    return {}


def check_sequence(op: dict, state: dict, record: dict) -> None:
    seq = state.pop("seq")
    record.update(len=len(seq), digest=digest(seq.terms), parity=seq.parity.value)


RUNNERS = {
    "cli": (run_cli, None),
    "sieve": (run_sieve, check_sieve),
    "make_sequence": (run_make_sequence, check_sequence),
    "load": (run_load, check_sequence),
}


def run_pass(ops: list[dict], tracer: Tracer | None, calib_s: list | None = None) -> list[dict]:
    """Run every op in order; time each one; gather check data untimed.
    With ``calib_s``, append a host-speed sample before every op and after
    the last; op i's is ``calib_s[i]``."""
    state: dict = {}
    records = []
    for op in ops:
        if calib_s is not None:
            calib_s.append(calib.timed_unit())
        run, check = RUNNERS[op["kind"]]
        if tracer:
            tracer.op = op["id"]
        # cli ops open their own cli.main span; a library op gets a root
        # span here, so the driver's own time counts in every layer share.
        root = tracer.span("driver.op") if tracer and op["kind"] != "cli" else None
        t0 = time.perf_counter()
        try:
            with root or contextlib.nullcontext():
                record = run(op, state, tracer)
        except Exception as exc:  # the op failed; the pass goes on
            record = {"exit": -1, "error": repr(exc)}
        record["wall_s"] = time.perf_counter() - t0
        record["id"] = op["id"]
        if check and "error" not in record:
            check(op, state, record)
        records.append(record)
    if calib_s is not None:
        calib_s.append(calib.timed_unit())
    return records


# ----------------------------------------------------------- work counts


def _prefix(flags: np.ndarray) -> np.ndarray:
    return np.cumsum(flags, dtype=np.int64)


def _isqrt(a: np.ndarray) -> np.ndarray:
    r = np.sqrt(a.astype(float)).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


def applications_terms(problem: str, n_max: int) -> int:
    """Summands of the specialised step sums of one problem up to n_max."""
    n = np.arange(n_max + 1, dtype=np.int64)
    if problem == "two-squares":
        per = (_isqrt(n // 2) + 1) + (_isqrt(2 * n + 1) + 1) // 2
        return int(per[1:].sum())
    if problem == "two-triangular":
        return int(((1 + _isqrt(4 * n + 1)) // 2)[1:].sum())
    primes = prime_flags(2 * n_max)
    pi_odd = _prefix(kind_flags("odd-primes", n_max, primes))
    if problem == "goldbach":
        return int(pi_odd[2:].sum())
    if problem == "lemoine-levy":
        pi = _prefix(primes[: n_max + 1])
        return int((pi_odd[2:] + pi[n[2:] // 2]).sum())
    if problem == "chen-odd-odd":
        semi = kind_flags("prime-or-odd-semiprime", n_max, primes) & ~kind_flags(
            "odd-primes", n_max, primes
        )
        return int((2 * pi_odd[2:] + _prefix(semi)[2:]).sum())
    raise ValueError(problem)


def oracle_pairs(problem: str, n_max: int) -> int:
    """Pairs brute_count_series examines on the problem's oracle route."""
    x = 4 * n_max + 1 if problem == "two-squares" else 2 * n_max
    primes = prime_flags(x)
    n = np.arange(n_max + 1)
    if problem == "goldbach":
        return int(_prefix(kind_flags("odd-primes", x, primes))[n[1:]].sum())
    if problem == "chen-total":
        odd = _prefix(kind_flags("prime-or-odd-semiprime", x, primes))
        even = kind_flags("doubled-primes", x, primes)
        even[2] = True
        return int(odd[n[1:]].sum() + _prefix(even)[n].sum())
    if problem == "lemoine-levy":
        return int(_prefix(kind_flags("doubled-primes", x, primes))[2 * n[1:] - 1].sum())
    if problem == "two-squares":
        odd_x = np.arange(1, x + 1, 2)
        return int((_isqrt(odd_x) // 2 + 1).sum())
    if problem == "two-triangular":
        return int(_prefix(kind_flags("pronic", x))[n].sum())
    raise ValueError(problem)


def recursion_terms(op: dict) -> tuple[int, int]:
    """(steps, summands) of the general step formula for a custom pair."""
    flags = custom_flags(op, Path.cwd())
    targets = np.arange(op["base"] + 2, op["x_last"] + 1, 2)
    if op["evaluator"] == "even-odd":
        halves, sets = (targets + 1) // 2, flags
    else:
        halves, sets = targets // 2, flags + [flags[0] & flags[1]]
    summands = sum(int(_prefix(f)[halves].sum()) for f in sets)
    return len(targets), summands


def work_counts(ops: list[dict]) -> dict:
    counts = {"applications.terms_summed": 0, "oracle.pairs_checked": 0,
              "recursion.steps": 0, "recursion.terms_summed": 0}
    for op in ops:
        if op.get("check") in ("series", "verify"):
            problem, n_max = op["problem"], op["n_max"]
            counts["applications.terms_summed"] += applications_terms(
                "chen-odd-odd" if problem == "chen-total" else problem, n_max
            )
            if op["check"] == "verify":
                counts["oracle.pairs_checked"] += oracle_pairs(problem, n_max)
        elif op.get("check") == "custom":
            steps, summands = recursion_terms(op)
            counts["recursion.steps"] += steps
            counts["recursion.terms_summed"] += summands
    return counts


# -------------------------------------------------------- layer metrics


def layer_metrics(spans: list[dict], records: list[dict], counts: dict) -> dict:
    """Per-layer metrics of one traced pass; 0 where a layer did no work."""
    dur = [s["end"] - s["start"] for s in spans]
    self_time = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            self_time[s["parent"]] -= d
    by_name: dict[str, float] = {}
    for s, t in zip(spans, self_time):
        by_name[s["name"]] = by_name.get(s["name"], 0.0) + t
    total = sum(d for s, d in zip(spans, dur) if s["parent"] is None)
    m = dict(counts)
    for layer in LAYERS:
        own = sum(t for n, t in by_name.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_frac"] = own / total if total else 0.0
    for name in ("build_sieve", "make_sequence", "semiprime_prefix", "load_sequence"):
        m[f"sequences.{name}_s"] = by_name.get(f"sequences.{name}", 0.0)
    m["sequences.terms_materialized"] = sum(s.get("terms", 0) for s in spans)
    m["sequences.table_bytes"] = sum(
        s.get("bytes", 0) for s in spans if s["name"].startswith("sequences.")
    )
    m["recursion.init_s"] = by_name.get("recursion.init", 0.0)
    m["recursion.run_s"] = by_name.get("recursion.run", 0.0)
    app_s = 0.0
    for problem in PROBLEM_NAMES:
        t = by_name.get(f"applications.{problem}", 0.0)
        m[f"applications.{problem}_s"] = t
        app_s += t
    m["oracle.series_s"] = by_name.get("oracle.series", 0.0)
    m["cli.write_s"] = by_name.get("cli.write", 0.0)
    m["cli.main_self_s"] = by_name.get("cli.main", 0.0)
    m["cli.bytes_written"] = sum(r.get("bytes_written", 0) for r in records)
    m["cli.verify_lines_printed"] = sum(
        r.get("stdout_lines", 0) for r in records if r["id"].startswith("verify:")
    )
    for layer, t in (("recursion", m["recursion.run_s"]), ("applications", app_s)):
        summed = m[f"{layer}.terms_summed"]
        m[f"{layer}.ns_per_term_summed"] = 1e9 * t / summed if summed else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=["plain", "calibrated", "traced"], required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    ops = json.loads(Path(args.ops).read_text())
    tracer = Tracer() if args.mode == "traced" else None
    if tracer:
        instrument(tracer)
    os.chdir(args.work)
    calib_s = None
    if args.mode == "calibrated":
        calib.timed_unit()  # warm up, as calib.py does
        calib_s = []
    t0 = time.perf_counter()
    records = run_pass(ops, tracer, calib_s)
    result = {"import_s": IMPORT_S, "wall_s": time.perf_counter() - t0, "ops": records}
    if calib_s is not None:
        result["calib_s"] = calib_s
    if tracer:
        result["spans"] = tracer.spans
        result["layers"] = layer_metrics(tracer.spans, records, work_counts(ops))
        result["layers"]["cli.import_s"] = IMPORT_S
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
