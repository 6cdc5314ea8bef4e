"""Command line front end: compute, verify and benchmark count series.

Every command resolves ``--problem``, a built-in problem or a custom pair
of sequence files, to a ``ProblemSpec`` and a route, and runs it through
``ProblemSpec.counts``.
Exit codes: 0 success, 1 verification mismatch, 2 usage or input error,
3 resource limit.  ``main`` returns the code; the process entry point,
``console_main``, flushes the output and ends the process at once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .applications import PROBLEMS, ProblemSpec, custom_problem
from .errors import (
    AddrepError,
    LimitExceededError,
    LimitMismatchError,
    SequenceFormatError,
)
from .sequences import DEFAULT_TABLE_CAP, check_table_budget, load_sequence

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

DEFAULT_ORACLE_CAP = 10_000
DEFAULT_VERIFY_N = 200

# Rows formatted per block: the smallest block that formats as fast as
# larger ones (10^7 rows took about the same time at 2^13 as at 2^14, and
# 1.2-1.5x as long at 2^11), with half the working set of 2^14 rows.
BLOCK_ROWS = 1 << 13


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

    def cap(text: str) -> int:  # a cap below 0 is a usage error, not a resource limit
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, not {text}")
        return int(text)

    def add_common(sp):
        sp.add_argument("--problem", required=True, choices=names)
        sp.add_argument("--n-max", type=int, help="last index n (built-in problems)")
        sp.add_argument("--x-max", type=int,
                        help="bound on the targets x (custom runs): the last row is "
                        "the largest target on the pair's lattice up to it")
        sp.add_argument("--seq-a", help="sequence file for the first role")
        sp.add_argument("--seq-b", help="sequence file for the second role")
        sp.add_argument(
            "--limit",
            type=cap,
            default=DEFAULT_TABLE_CAP,
            help="largest table that may be built (entries)",
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
    bench = sub.add_parser("bench", help="time every route of a problem at geometric steps")
    for sp in (verify, bench):
        add_common(sp)
        sp.add_argument(
            "--oracle-cap",
            type=cap,
            default=DEFAULT_ORACLE_CAP,
            help="largest target x the brute-force oracle will sweep",
        )
    return parser


class Resolved(NamedTuple):
    """A ``--problem`` made concrete: its spec, last index n, route and row labels."""

    spec: ProblemSpec
    n_max: int
    route: str  # "recursion" for custom pairs, "engine" otherwise
    label: dict[str, range]  # each row's keys by name: n (built-in problems), then x
    header: list[str]
    meta: dict


def _problem(
    args: argparse.Namespace, default_n: int | None = None, x_cap: int | None = None
) -> Resolved:
    """Check the flags, files and table budget and resolve ``--problem``;
    the only place that knows about custom pairs.  ``x_cap`` bounds the
    last target (verify's ``--oracle-cap``).  Custom pairs run the paper's
    recursion, whose summed terms perfbench's custom-general workload
    counts; built-in problems run the engine."""
    if args.problem == "custom":
        if args.n_max is not None:
            raise CliUsageError("--n-max does not apply to custom runs (use --x-max)")
        if not (args.seq_a and args.seq_b and args.x_max is not None and args.x_max >= 0):
            raise CliUsageError("custom runs need --seq-a, --seq-b and --x-max >= 0")
        check_table_budget(args.x_max, args.limit)
        spec = custom_problem(
            load_sequence(args.seq_a, limit=args.x_max),
            load_sequence(args.seq_b, limit=args.x_max),
        )
        if args.x_max < spec.x_base:
            raise CliUsageError(f"--x-max {args.x_max} is below the base target {spec.x_base}")
        n_max = (args.x_max - spec.x_base) // 2
        route = "recursion"
        header = [f"# {spec.name} recursion; lines are 'x a(x)' for the target x",
                  f"# seq-a: {args.seq_a}  seq-b: {args.seq_b}"]
        meta = {"problem": "custom", "kind": spec.parts[0][0].value}
    else:
        for flag in ("x_max", "seq_a", "seq_b"):
            if getattr(args, flag) is not None:
                raise CliUsageError(
                    f"--{flag.replace('_', '-')} applies to custom runs only, "
                    f"not to {args.problem!r}"
                )
        spec = PROBLEMS[args.problem]
        n_max = args.n_max if args.n_max is not None else default_n
        if n_max is None:
            raise CliUsageError(f"--n-max is required for problem {args.problem!r}")
        if n_max < spec.n_start:
            raise CliUsageError(f"--n-max must be >= {spec.n_start} for {args.problem!r}")
        oeis = [f"# cross-reference: OEIS {spec.oeis}"] if spec.oeis else []
        route = "engine"
        header = [f"# {spec.name}: {spec.argument_desc}; lines are 'n a(n)'"] + oeis
        meta = {"problem": spec.name, "oeis": spec.oeis}
    x_last = spec.x_of_n(n_max)
    if x_cap is not None and x_last > x_cap:
        raise CliUsageError(f"x {x_last} beyond --oracle-cap {x_cap}")
    check_table_budget(x_last, args.limit)
    label = {"x": range(spec.x_base, x_last + 1, spec.x_step)}
    if args.problem != "custom":
        label = {"n": range(spec.n_start, n_max + 1), **label}
    return Resolved(spec, n_max, route, label, header, meta)


def _format_rows(columns: Sequence, literals: Sequence[str]) -> Iterator[str]:
    """The text of ``literals[0] r0 literals[1] r1 ... literals[-1]`` for each row
    (r0, r1, ...) of ``columns``, equal-length nonnegative int64 arrays or ranges,
    one block of rows at a time; a literal holding NUL raises ValueError.  A range's
    block is built by ``np.arange``, so keys never take a full-length array.  The
    writers hand it to ``writelines``, which drops each block's text before the next
    is formatted."""
    if any("\0" in text for text in literals):
        raise ValueError("a row literal holds NUL, the writer's leading-zero mark")
    literal_bytes = [np.frombuffer(text.encode("ascii"), dtype=np.uint8) for text in literals]
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        block = [column[start : start + BLOCK_ROWS] for column in columns]
        block = [np.arange(part.start, part.stop, part.step, dtype=np.int64)
                 if isinstance(part, range) else part for part in block]
        yield _format_block(block, literal_bytes)


def _format_block(block: list[np.ndarray], literal_bytes: list[np.ndarray]) -> str:
    """One block of ``_format_rows``: a uint8 line per row, a field per column as
    wide as the block's largest value, digits by ``// 10`` and NUL for leading zeros."""
    widths = [len(str(int(values.max()))) for values in block]
    mat = np.empty((len(block[0]), sum(map(len, literal_bytes)) + sum(widths)), np.uint8)
    end = 0  # one past the field being filled
    for literal, values, width in zip(literal_bytes, block, widths):
        mat[:, end : end + len(literal)] = literal
        end += len(literal) + width
        for j in range(end - 1, end - width - 1, -1):
            quotient = values // 10
            mat[:, j] = values - 10 * quotient + ord("0")
            if j < end - 1:
                mat[values == 0, j] = 0  # a leading zero once no digits are left
            values = quotient
    mat[:, end:] = literal_bytes[-1]
    text = mat.tobytes()
    del mat  # before the NULs go: the block's peak memory is 2 buffers
    text = text.replace(b"\0", b"")
    return text.decode("ascii")


def write_bfile(fh, columns, header_lines) -> None:
    """Header lines, then one 'n a(n)' line per row of ``columns``, the keys
    n and the counts a(n) (see ``_format_rows``)."""
    fh.write("".join(line + "\n" for line in header_lines))
    fh.writelines(_format_rows(columns, ["", " ", "\n"]))


def write_csv(fh, columns, header_lines) -> None:
    fh.write("".join(line + "\n" for line in header_lines) + "n,count\n")
    fh.writelines(_format_rows(columns, ["", ",", "\n"]))


def write_json(fh, columns, meta) -> None:
    """``json.dump(dict(meta, rows=rows), fh, indent=2)`` and a newline,
    with ``rows`` the [n, a(n)] rows of ``columns`` formatted by
    ``_format_rows``."""
    head = json.dumps(dict(meta, rows=[]), indent=2)
    if not len(columns[0]):
        fh.write(head + "\n")
        return
    fh.write(head.removesuffix("[]\n}") + "[")
    # Each row opens with its separator; the first block drops its comma.
    blocks = _format_rows(columns, [",\n    [\n      ", ",\n      ", "\n    ]"])
    fh.write(next(blocks)[1:])
    fh.writelines(blocks)
    fh.write("\n  ]\n}\n")


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
    run = _problem(args)
    counts = run.spec.counts(run.n_max, run.route, run.spec.sieve(run.n_max, args.limit))
    columns = (next(iter(run.label.values())), counts)
    if args.output_path == "-":
        _write_rows(sys.stdout, args.output_format, columns, run.header, run.meta)
        return EXIT_OK
    # Write beside the target and rename over it, so that a failed or
    # interrupted run leaves no partial file and any older file intact.
    tmp = f"{args.output_path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            _write_rows(fh, args.output_format, columns, run.header, run.meta)
        os.replace(tmp, args.output_path)
    except BaseException:
        os.remove(tmp)
        raise
    return EXIT_OK


def _write_rows(fh, fmt, columns, header, meta) -> None:
    if fmt == "bfile":
        write_bfile(fh, columns, header)
    elif fmt == "csv":
        write_csv(fh, columns, header)
    else:
        write_json(fh, columns, meta)


def cmd_verify(args: argparse.Namespace) -> int:
    run = _problem(args, DEFAULT_VERIFY_N, args.oracle_cap)
    spec, n_max, route = run.spec, run.n_max, run.route
    tables = spec.sieve(n_max, args.limit)
    got = spec.counts(n_max, route, tables)
    want = spec.counts(n_max, "oracle", tables)
    bad = np.flatnonzero(got != want)
    end = bad[0] if len(bad) else len(got)
    # The rows before the first mismatch match the oracle, so their counts
    # are nonnegative and the row writer can format them.
    names = [f" {name}=" for name in run.label]
    literals = [f"PASS {spec.name}{names[0]}", *names[1:], " count=", "\n"]
    columns = [column[:end] for column in (*run.label.values(), got)]
    sys.stdout.writelines(_format_rows(columns, literals))
    if end < len(got):
        label = " ".join(f"{name}={column[end]}" for name, column in run.label.items())
        sys.stdout.write(f"MISMATCH {spec.name} {label}: {route}={got[end]} oracle={want[end]}\n")
        print(f"verification failed at {label} ({route} {got[end]} vs oracle {want[end]})",
              file=sys.stderr)
        return EXIT_MISMATCH
    sys.stdout.write(f"PASS {spec.name}: all {len(got)} terms match the brute-force oracle\n")
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
    routes = ("engine", "recursion", "oracle")
    lemma_column = spec.name == "two-squares"
    header = ["n_max"] + [f"{route}_s" for route in routes]
    print(",".join(header + ["bijection_check"] * lemma_column))
    steps = _bench_steps(spec.n_start, run.n_max)

    def skipped(route, n):
        return route == "oracle" and spec.x_of_n(n) > args.oracle_cap

    # One small transform (importing numpy.fft) and one untimed call per route
    # first, so that one-off setup stays out of the first row.
    np.fft.rfft(np.ones(2))
    for route in routes:
        if not skipped(route, steps[0]):
            spec.counts(steps[0], route, spec.sieve(steps[0], args.limit))
    for n in steps:
        row, values = [str(n)], {}
        for route in routes:
            if skipped(route, n):
                row.append("")
                continue
            t0 = time.perf_counter()
            values[route] = spec.counts(n, route, spec.sieve(n, args.limit))
            row.append(f"{time.perf_counter() - t0:.6f}")
        if lemma_column:
            ok = np.array_equal(values["recursion"], PROBLEMS["two-triangular"].counts(n))
            row.append("OK" if ok else "FAIL")
        print(",".join(row))
        # Every route that ran must give the engine's counts.
        engine = values["engine"]
        differing = [route for route, got in values.items() if not np.array_equal(got, engine)]
        for route in differing:
            i = np.flatnonzero(values[route] != engine)[0]
            k = spec.n_start + i
            print(f"bench {spec.name} n_max={n}: {route} differs from engine first at "
                  f"n={k} x={spec.x_of_n(k)} (engine {engine[i]} vs {route} {values[route][i]})",
                  file=sys.stderr)
        if differing:
            return EXIT_MISMATCH
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
    except (CliUsageError, ValueError, OSError) as exc:
        # ValueError covers SequenceFormatError, ParityMismatchError and
        # ContainmentError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> NoReturn:
    """The process entry point: ``python -m addrep.cli`` and the installed
    ``addrep`` script.

    Runs ``main``, flushes stdout and stderr and ends the process with
    ``os._exit``.  That skips the interpreter's teardown, which spends some
    35 ms freeing numpy's objects, and runs no atexit hooks; every file the
    run wrote is closed by then.  An exception that escapes ``main`` ends
    the process the normal way, with its traceback.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
