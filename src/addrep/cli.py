"""Command line front end: compute, verify and benchmark count series.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error,
3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .applications import PROBLEMS, two_triangular
from .errors import (
    AddrepError,
    ContainmentError,
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
    ResourceBudgetError,
    SequenceFormatError,
)
from .oracle import brute_count_series
from .recursion import _PARITIES, EvaluatorKind, RecursionEvaluator
from .sequences import DEFAULT_TABLE_CAP, Parity, load_sequence

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_ORACLE_CAP = 10_000
DEFAULT_VERIFY_N = 200


class CliUsageError(AddrepError):
    """Bad flag combination or out-of-range request."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addrep",
        description="Count representations of integers as two-term sums "
        "over increasing sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = sorted(PROBLEMS) + ["custom"]

    def add_common(sp):
        sp.add_argument("--problem", required=True, choices=names)
        sp.add_argument("--n-max", type=int, help="last index n (built-in problems)")
        sp.add_argument("--x-max", type=int, help="last target x (custom runs)")
        sp.add_argument("--seq-a", help="sequence file for the first role")
        sp.add_argument("--seq-b", help="sequence file for the second role")
        sp.add_argument(
            "--theorem",
            choices=[k.value for k in EvaluatorKind],
            help="expected recursion kind for custom runs (validated against "
            "the file parities)",
        )
        sp.add_argument(
            "--limit",
            type=int,
            default=DEFAULT_TABLE_CAP,
            help="largest table that may be built (entries)",
        )
        sp.add_argument(
            "--oracle-cap",
            type=int,
            default=DEFAULT_ORACLE_CAP,
            help="largest target x the brute-force oracle will sweep",
        )

    compute = sub.add_parser("compute", help="compute a count series and write it out")
    add_common(compute)
    compute.add_argument(
        "--format",
        dest="output_format",
        choices=["bfile", "csv", "json"],
        default="bfile",
    )
    compute.add_argument("--out", dest="output_path", default="-", help="output path, - for stdout")

    verify = sub.add_parser("verify", help="check the recursion against brute force")
    add_common(verify)

    bench = sub.add_parser("bench", help="time recursion vs brute force at geometric steps")
    add_common(bench)
    return parser


def _require_n_max(
    args: argparse.Namespace, n_start: int, default: int | None = None
) -> int:
    n_max = args.n_max if args.n_max is not None else default
    if n_max is None:
        raise CliUsageError(f"--n-max is required for problem {args.problem!r}")
    if n_max < n_start:
        raise CliUsageError(f"--n-max must be >= {n_start} for {args.problem!r}")
    return n_max


def _check_table_budget(needed: int, cap: int) -> None:
    if needed > cap:
        raise ResourceBudgetError(
            f"run needs tables up to {needed}, above the --limit cap {cap}"
        )


_KIND_BY_PARITY = {parities: kind for kind, parities in _PARITIES.items()}


def _custom_evaluator(args: argparse.Namespace) -> tuple[RecursionEvaluator, int]:
    if not args.seq_a or not args.seq_b:
        raise CliUsageError("custom runs need --seq-a and --seq-b")
    if args.x_max is None:
        raise CliUsageError("custom runs need --x-max")
    if args.x_max < 0:
        raise CliUsageError("--x-max must be nonnegative")
    _check_table_budget(args.x_max, args.limit)
    a = load_sequence(args.seq_a, limit=args.x_max)
    b = load_sequence(args.seq_b, limit=args.x_max)
    if (a.parity, b.parity) == (Parity.ODD, Parity.EVEN):
        a, b = b, a  # even role first; counts are unchanged
    kind = _KIND_BY_PARITY.get((a.parity, b.parity))
    if kind is None:
        raise CliUsageError(
            f"no recursion for parities {a.parity.value}/{b.parity.value}"
        )
    if args.theorem is not None and args.theorem != kind.value:
        raise CliUsageError(
            f"--theorem {args.theorem} does not match the file parities ({kind.value})"
        )
    ev = RecursionEvaluator(kind, a, b)
    base = ev.computed.base
    if args.x_max < base:
        raise CliUsageError(f"--x-max {args.x_max} is below the base target {base}")
    x_last = base + 2 * ((args.x_max - base) // 2)
    return ev, x_last


def _compute_rows(args: argparse.Namespace):
    if args.problem == "custom":
        ev, x_last = _custom_evaluator(args)
        series = ev.run_to(x_last)
        header = [
            f"# custom {ev.kind.value} recursion; lines are 'x a(x)' for the target x",
            f"# seq-a: {args.seq_a}  seq-b: {args.seq_b}",
        ]
        rows = zip(series.arguments(), series.values)
        return rows, header, {"problem": "custom", "kind": ev.kind.value}
    spec = PROBLEMS[args.problem]
    n_max = _require_n_max(args, spec.n_start)
    _check_table_budget(max(spec.x_of_n(n_max), 0), args.limit)
    series = spec.run(n_max, args.limit)
    rows = zip(range(spec.n_start, n_max + 1), series.values)
    header = [f"# {spec.name}: {spec.argument_desc}; lines are 'n a(n)'"]
    if spec.oeis:
        header.append(f"# cross-reference: OEIS {spec.oeis}")
    return rows, header, {"problem": spec.name, "oeis": spec.oeis}


def write_bfile(fh, rows, header_lines) -> None:
    for line in header_lines:
        fh.write(line + "\n")
    for n, v in rows:
        fh.write(f"{n} {v}\n")


def write_csv(fh, rows, header_lines) -> None:
    for line in header_lines:
        fh.write(line + "\n")
    fh.write("n,count\n")
    for n, v in rows:
        fh.write(f"{n},{v}\n")


def write_json(fh, rows, meta) -> None:
    payload = dict(meta)
    payload["rows"] = [[n, v] for n, v in rows]
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def read_bfile(path) -> list[tuple[int, int]]:
    """Parse 'n a(n)' lines, skipping blanks and '#' comments."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            n_str, v_str = line.split()
            rows.append((int(n_str), int(v_str)))
        except ValueError:
            raise SequenceFormatError(
                f"{path}:{lineno}: expected 'n a(n)', got {line!r}"
            ) from None
    return rows


def cmd_compute(args: argparse.Namespace) -> int:
    rows, header, meta = _compute_rows(args)
    if args.output_path == "-":
        _write_rows(sys.stdout, args.output_format, rows, header, meta)
        return EXIT_OK
    # Write beside the target and rename over it, so that a failed or
    # interrupted run leaves no partial file and any older file intact.
    tmp = f"{args.output_path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            _write_rows(fh, args.output_format, rows, header, meta)
        os.replace(tmp, args.output_path)
    except BaseException:
        os.remove(tmp)
        raise
    return EXIT_OK


def _write_rows(fh, fmt, rows, header, meta) -> None:
    if fmt == "bfile":
        write_bfile(fh, rows, header)
    elif fmt == "csv":
        write_csv(fh, rows, header)
    else:
        write_json(fh, rows, meta)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.problem == "custom":
        ev, x_last = _custom_evaluator(args)
        if x_last > args.oracle_cap:
            raise CliUsageError(
                f"x {x_last} beyond --oracle-cap {args.oracle_cap}"
            )
        series = ev.run_to(x_last)
        oracle = brute_count_series(
            ev.seq_a, ev.seq_b, x_last,
            role_tagged=ev.kind is EvaluatorKind.EVEN_ODD,
            base=series.base,
        )
        labelled = (
            (f"x={x}", got, want)
            for x, got, want in zip(series.arguments(), series.values, oracle.values)
        )
        terms = len(series)
        title = f"custom {ev.kind.value}"
        route = "recursion"
    else:
        spec = PROBLEMS[args.problem]
        n_max = _require_n_max(args, spec.n_start, default=DEFAULT_VERIFY_N)
        x_last = spec.x_of_n(n_max)
        if x_last > args.oracle_cap:
            raise CliUsageError(
                f"n-max {n_max} reaches x {x_last}, beyond --oracle-cap {args.oracle_cap}"
            )
        _check_table_budget(max(x_last, 0), args.limit)
        got_values = spec.run(n_max, args.limit).values
        want_values = spec.oracle_series(n_max)
        labelled = (
            (f"n={n} x={spec.x_of_n(n)}", got, want)
            for n, got, want in zip(
                range(spec.n_start, n_max + 1), got_values, want_values
            )
        )
        terms = len(got_values)
        title = spec.name
        route = "engine"
    for label, got, want in labelled:
        if got != want:
            print(f"MISMATCH {title} {label}: {route}={got} oracle={want}")
            print(
                f"verification failed at {label} ({route} {got} vs oracle {want})",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        print(f"PASS {title} {label} count={got}")
    print(f"PASS {title}: all {terms} terms match the brute-force oracle")
    return EXIT_OK


def _bench_steps(n_start: int, n_max: int) -> list[int]:
    # Geometric steps doubling from 10 (or the first valid index) to n_max.
    first = max(n_start, 1)
    steps = []
    v = max(first, min(10, n_max))
    while v < n_max:
        steps.append(v)
        v *= 2
    steps.append(n_max)
    return sorted(set(steps))


def cmd_bench(args: argparse.Namespace) -> int:
    if args.problem == "custom":
        raise CliUsageError("bench supports built-in problems only")
    spec = PROBLEMS[args.problem]
    n_max = _require_n_max(args, spec.n_start, default=1000)
    _check_table_budget(max(spec.x_of_n(n_max), 0), args.limit)
    lemma_column = spec.name == "two-squares"
    header = "n_max,recursion_s,oracle_s"
    if lemma_column:
        header += ",bijection_check"
    print(header)
    for n in _bench_steps(spec.n_start, n_max):
        t0 = time.perf_counter()
        values = spec.evaluator_series(n)
        t_rec = time.perf_counter() - t0
        if spec.x_of_n(n) <= args.oracle_cap:
            t0 = time.perf_counter()
            spec.oracle_series(n)
            t_orc = f"{time.perf_counter() - t0:.6f}"
        else:
            t_orc = ""
        row = f"{n},{t_rec:.6f},{t_orc}"
        if lemma_column:
            ok = values == two_triangular(n).values
            row += f",{'OK' if ok else 'FAIL'}"
        print(row)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"compute": cmd_compute, "verify": cmd_verify, "bench": cmd_bench}
    try:
        return handlers[args.command](args)
    except (MemoryError, LimitExceededError, LimitMismatchError) as exc:
        # MemoryError covers ResourceBudgetError and numpy's failed allocations.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        CliUsageError,
        SequenceFormatError,
        ParityMismatchError,
        ContainmentError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
