"""Command line front end: compute, verify and benchmark count series.

Every command resolves ``--problem``, a built-in problem or a custom pair
of sequence files, to a ``ProblemSpec`` and runs that spec's routes.
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
from typing import NamedTuple

from .applications import PROBLEMS, ProblemSpec, custom_problem, two_triangular
from .errors import (
    AddrepError,
    ContainmentError,
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
    ResourceBudgetError,
    SequenceFormatError,
)
from .recursion import EvaluatorKind
from .sequences import DEFAULT_TABLE_CAP, load_sequence

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

    verify = sub.add_parser("verify", help="check a series term by term against brute force")
    add_common(verify)

    bench = sub.add_parser("bench", help="time every route of a problem at geometric steps")
    add_common(bench)
    return parser


def _check_table_budget(needed: int, cap: int) -> None:
    if needed > cap:
        raise ResourceBudgetError(
            f"run needs tables up to {needed}, above the --limit cap {cap}"
        )


class Resolved(NamedTuple):
    """A ``--problem`` made concrete: its spec, last index n and row labels."""

    spec: ProblemSpec
    n_max: int
    route: str  # the route behind spec.compute, as verify names it
    keys: range  # each output row's first column: n, or the target x
    label: str  # verify's row label, formatted with n and x
    header: list[str]
    meta: dict


def _problem(
    args: argparse.Namespace, default_n: int | None = None, x_cap: int | None = None
) -> Resolved:
    """Check the flags, files and table budget and resolve ``--problem``;
    the only place that knows about custom pairs.  ``x_cap`` bounds the
    last target (verify's ``--oracle-cap``)."""
    if args.problem == "custom":
        if not (args.seq_a and args.seq_b and args.x_max is not None and args.x_max >= 0):
            raise CliUsageError("custom runs need --seq-a, --seq-b and --x-max >= 0")
        _check_table_budget(args.x_max, args.limit)
        spec = custom_problem(
            load_sequence(args.seq_a, limit=args.x_max),
            load_sequence(args.seq_b, limit=args.x_max),
        )
        kind = spec.parts[0][0].value
        if args.theorem not in (None, kind):
            raise CliUsageError(
                f"--theorem {args.theorem} does not match the file parities ({kind})"
            )
        if args.x_max < spec.x_base:
            raise CliUsageError(f"--x-max {args.x_max} is below the base target {spec.x_base}")
        n_max = (args.x_max - spec.x_base) // 2
        run = Resolved(
            spec, n_max, "recursion", range(spec.x_base, args.x_max + 1, 2), "x={x}",
            [f"# {spec.name} recursion; lines are 'x a(x)' for the target x",
             f"# seq-a: {args.seq_a}  seq-b: {args.seq_b}"],
            {"problem": "custom", "kind": kind},
        )
    else:
        spec = PROBLEMS[args.problem]
        n_max = args.n_max if args.n_max is not None else default_n
        if n_max is None:
            raise CliUsageError(f"--n-max is required for problem {args.problem!r}")
        if n_max < spec.n_start:
            raise CliUsageError(f"--n-max must be >= {spec.n_start} for {args.problem!r}")
        oeis = [f"# cross-reference: OEIS {spec.oeis}"] if spec.oeis else []
        run = Resolved(
            spec, n_max, "engine", range(spec.n_start, n_max + 1), "n={n} x={x}",
            [f"# {spec.name}: {spec.argument_desc}; lines are 'n a(n)'"] + oeis,
            {"problem": spec.name, "oeis": spec.oeis},
        )
    x_last = spec.x_of_n(n_max)
    if x_cap is not None and x_last > x_cap:
        raise CliUsageError(f"x {x_last} beyond --oracle-cap {x_cap}")
    _check_table_budget(x_last, args.limit)
    return run


def _compute_rows(args: argparse.Namespace):
    run = _problem(args)
    series = run.spec.run(run.n_max, args.limit)
    return zip(run.keys, series.values), run.header, run.meta


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
    run = _problem(args, DEFAULT_VERIFY_N, args.oracle_cap)
    spec, n_max = run.spec, run.n_max
    tables = spec.sieve(n_max, args.limit)
    got_values = spec.compute(n_max, tables).values
    want_values = spec.oracle_series(n_max, tables=tables)
    for n, got, want in zip(range(spec.n_start, n_max + 1), got_values, want_values):
        label = run.label.format(n=n, x=spec.x_of_n(n))
        if got != want:
            print(f"MISMATCH {spec.name} {label}: {run.route}={got} oracle={want}")
            print(f"verification failed at {label} ({run.route} {got} vs oracle {want})",
                  file=sys.stderr)
            return EXIT_MISMATCH
        print(f"PASS {spec.name} {label} count={got}")
    print(f"PASS {spec.name}: all {len(got_values)} terms match the brute-force oracle")
    return EXIT_OK


def _bench_steps(n_start: int, n_max: int) -> list[int]:
    # Geometric steps doubling from 10 (or the first valid index) to n_max.
    steps, v = [], max(n_start, 1, min(10, n_max))
    while v < n_max:
        steps.append(v)
        v *= 2
    steps.append(n_max)
    return sorted(set(steps))


def cmd_bench(args: argparse.Namespace) -> int:
    if args.problem == "custom":
        raise CliUsageError("bench supports built-in problems only")
    run = _problem(args, default_n=1000)
    spec = run.spec
    routes = {"engine": lambda n: spec.compute(n).values,
              "recursion": spec.evaluator_series, "oracle": spec.oracle_series}
    lemma_column = spec.name == "two-squares"
    header = ["n_max"] + [f"{route}_s" for route in routes]
    print(",".join(header + ["bijection_check"] * lemma_column))
    steps = _bench_steps(spec.n_start, run.n_max)

    def skipped(route, n):
        return route == "oracle" and spec.x_of_n(n) > args.oracle_cap

    # One untimed call per route first, so that one-off setup (numpy's FFT
    # plans, first allocations) stays out of the first row.
    for route, series in routes.items():
        if not skipped(route, steps[0]):
            series(steps[0])
    for n in steps:
        row, values = [str(n)], {}
        for route, series in routes.items():
            if skipped(route, n):
                row.append("")
                continue
            t0 = time.perf_counter()
            values[route] = series(n)
            row.append(f"{time.perf_counter() - t0:.6f}")
        if lemma_column:
            ok = values["recursion"] == two_triangular(n).values
            row.append("OK" if ok else "FAIL")
        print(",".join(row))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"compute": cmd_compute, "verify": cmd_verify, "bench": cmd_bench}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`): the run did not finish, but no
        # one is left to tell.  devnull keeps the final flush from raising.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
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
