"""Forced-route timings of the count engine, to fit ``_SHIFTS_PER_SIDE``.

For each pair shape, size K (targets) and short-side length k, times
``count_series`` with the shifted adds forced and with the block transforms
forced (the constant set to 10^15 and to -1, as the tests force a route),
the minimum of --runs runs each, and records the route the rule picks
unforced.  The shapes, at targets up to about 2K:

- equal: k odd terms drawn from the odd numbers, as both sequences;
- contained: k of the odd primes against the odd primes (W = A);
- even-odd: k even terms against the odd primes;
- disjoint: k odd composites against the odd primes, so W is empty;
- partly shared: k/2 odd primes and k/2 odd composites against the odd
  primes, so W holds k/2 terms.

Short sides are seeded draws over the whole range.  Prints one table row
per case and writes the records to --out as JSON.

    PYTHONPATH=src python scripts/fit_routes.py --sizes 15000 1000000 --out routes.json
    PYTHONPATH=src python scripts/fit_routes.py --shapes equal contained \\
        --sizes 10000000 --ks 100 200 400 --out routes_1e7.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from addrep import convolution
from addrep.recursion import EvaluatorKind
from addrep.sequences import SequenceKind, make_sequence

SHAPES = ("equal", "contained", "even-odd", "disjoint", "partly shared")


def pair(shape: str, size: int, k: int, odd_primes: np.ndarray, rng):
    """The kind, x_max and the two term arrays (b None for equal) of a case."""
    def draw(pool, n):
        return np.sort(rng.choice(pool, n, replace=False))

    odd = np.arange(1, 2 * size, 2)
    if shape == "equal":
        return EvaluatorKind.ODD_ODD, 2 * size, draw(odd, k), None
    if shape == "contained":
        return EvaluatorKind.ODD_ODD, 2 * size, draw(odd_primes, k), odd_primes
    if shape == "even-odd":
        return EvaluatorKind.EVEN_ODD, 2 * size - 1, draw(np.arange(0, 2 * size, 2), k), odd_primes
    composites = np.setdiff1d(odd, odd_primes, assume_unique=True)
    if shape == "disjoint":
        return EvaluatorKind.ODD_ODD, 2 * size, draw(composites, k), odd_primes
    a = np.sort(np.concatenate((draw(odd_primes, k // 2), draw(composites, k - k // 2))))
    return EvaluatorKind.ODD_ODD, 2 * size, a, odd_primes


def seconds(case, constant: int, runs: int) -> float:
    """The fastest of ``runs`` calls with ``_SHIFTS_PER_SIDE`` set to ``constant``."""
    kept, best = convolution._SHIFTS_PER_SIDE, float("inf")
    convolution._SHIFTS_PER_SIDE = constant
    try:
        for _ in range(runs):
            start = time.perf_counter()
            convolution.count_series(*case)
            best = min(best, time.perf_counter() - start)
    finally:
        convolution._SHIFTS_PER_SIDE = kept
    return best


class _Taken(Exception):
    pass


def _stop(route: str):
    def call(*args):
        raise _Taken(route)
    return call


def picked(case) -> str:
    """The route ``count_series`` takes unforced, stopped before it runs."""
    kept = convolution._by_shifts, convolution._by_fft
    convolution._by_shifts, convolution._by_fft = _stop("shifts"), _stop("transforms")
    try:
        convolution.count_series(*case)
    except _Taken as taken:
        return taken.args[0]
    finally:
        convolution._by_shifts, convolution._by_fft = kept
    raise AssertionError("no route was taken")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", nargs="+", choices=SHAPES, default=list(SHAPES))
    parser.add_argument("--sizes", nargs="+", type=int, default=[15_000, 10**6])
    parser.add_argument("--ks", nargs="+", type=int, default=[50, 100, 200, 400, 800])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rows = []
    print("| shape | K | k | shifts ms | transforms ms | rule | rule / faster |")
    print("|---|---|---|---|---|---|---|")
    for size in args.sizes:
        odd_primes = make_sequence(SequenceKind.ODD_PRIMES, 2 * size).terms
        rng = np.random.default_rng(args.seed)
        for shape in args.shapes:
            for k in args.ks:
                case = pair(shape, size, k, odd_primes, rng)
                shifts = seconds(case, 10**15, args.runs)
                transforms = seconds(case, -1, args.runs)
                route = picked(case)
                ratio = (shifts if route == "shifts" else transforms) / min(shifts, transforms)
                rows.append({"shape": shape, "size": size, "k": k, "shifts_s": shifts,
                             "transforms_s": transforms, "rule": route})
                print(f"| {shape} | {size} | {k} | {1e3 * shifts:.1f} | "
                      f"{1e3 * transforms:.1f} | {route} | {ratio:.2f} |", flush=True)
    record = {"python": platform.python_version(), "numpy": np.__version__,
              "machine": platform.machine(), "runs": args.runs, "seed": args.seed,
              "shifts_per_side": convolution._SHIFTS_PER_SIDE, "rows": rows}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
