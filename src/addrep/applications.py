"""The built-in counting problems.

Each function computes a whole series in one exact FFT convolution
(``convolution.count_series``) over term arrays taken straight from the
sieve or from closed forms:

* ``goldbach``        g(2n): even 2n as two odd primes (A002375);
* ``chen_odd_odd``    g1(2n): even 2n as an odd prime plus an odd prime
                      or odd semiprime;
* ``chen_total``      g1(2n) plus the even-even contribution g2(2n),
                      which is 1 exactly when n-1 is prime or 1;
* ``lemoine_levy``    h(2n-1): odd 2n-1 as a doubled prime plus a prime
                      (A046927);
* ``two_squares``     h(4n+1): two squares of nonnegative integers;
* ``two_triangular``  t(n): two triangular numbers (A052343); equals
                      two_squares term by term.

Every problem also carries two reference routes (see PROBLEMS): the
paper's recursion (``RecursionEvaluator``) and brute-force enumeration,
both run by ``reference_series`` over the problem's ``parts``.
Problems are independent of each other and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .convolution import count_series
from .oracle import brute_count_series
from .recursion import _BASES, CountSeries, EvaluatorKind, RecursionEvaluator
from .sequences import (
    DEFAULT_TABLE_CAP,
    Parity,
    ParitySequence,
    SequenceKind,
    SieveTables,
    build_sieve,
    ensure_tables,
    make_sequence,
    odd_semiprime_flags,
    pronics_upto,
    squares_upto,
)


def goldbach(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g(2n) for n = 1..n_max: even 2n as an unordered sum of two odd primes."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    tables = ensure_tables(tables, 2 * n_max)
    counts = count_series(EvaluatorKind.ODD_ODD, 2 * n_max, _odd_primes(tables))
    return CountSeries(2, counts.tolist())


def chen_odd_odd(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g1(2n) for n = 1..n_max: even 2n as an odd prime plus an odd prime
    or odd semiprime, unordered."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    tables = ensure_tables(tables, 2 * n_max)
    return CountSeries(2, _chen_odd_odd_counts(n_max, tables).tolist())


def chen_total(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g1(2n) + g2(2n): all decompositions of 2n into a prime plus a prime
    or semiprime.  The even-even part g2(2n) is 1 exactly when n-1 is
    prime or 1 (the only even prime is 2, so one summand must be 2)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    tables = ensure_tables(tables, 2 * n_max)
    m = np.arange(n_max)  # n - 1 for n = 1..n_max
    even_even = tables.prime_flags[:n_max] | (m == 1)
    return CountSeries(2, (_chen_odd_odd_counts(n_max, tables) + even_even).tolist())


def _chen_odd_odd_counts(n_max: int, tables: SieveTables) -> np.ndarray:
    """g1(2n) for n = 1..n_max as int64, from tables covering 2 * n_max."""
    odd_primes = _odd_primes(tables)
    flags = odd_semiprime_flags(tables, 2 * n_max)
    flags[odd_primes[odd_primes <= 2 * n_max]] = True
    return count_series(
        EvaluatorKind.ODD_ODD, 2 * n_max, odd_primes, np.flatnonzero(flags)
    )


def lemoine_levy(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """h(2n-1) for n = 1..n_max: odd 2n-1 as a doubled prime plus a prime.

    The prime 2 can never be the odd summand of an odd target, so the
    second sequence holds the odd primes only.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    x_max = 2 * n_max - 1
    tables = ensure_tables(tables, x_max)
    counts = count_series(
        EvaluatorKind.EVEN_ODD, x_max, 2 * tables.primes, _odd_primes(tables)
    )
    return CountSeries(1, counts.tolist())


def two_squares(n_max: int) -> CountSeries:
    """h(4n+1) for n = 0..n_max: unordered sums of two squares (>= 0).

    An odd target is an even square plus an odd square, so this is the
    even-odd count; targets 3 mod 4 (always 0) are dropped.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x_max = 4 * n_max + 1
    counts = count_series(
        EvaluatorKind.EVEN_ODD, x_max, squares_upto(x_max, 0), squares_upto(x_max, 1)
    )
    return CountSeries(1, counts[0::2].tolist(), step=4)


def two_triangular(n_max: int) -> CountSeries:
    """t(n) for n = 0..n_max: unordered sums of two triangular numbers,
    counted as sums 2n of two doubled triangulars (pronic numbers j(j+1))."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    counts = count_series(EvaluatorKind.EVEN_EVEN, 2 * n_max, pronics_upto(2 * n_max))
    return CountSeries(0, counts.tolist())


def _odd_primes(tables: SieveTables) -> np.ndarray:
    return tables.primes[1:]  # primes[0] is 2 whenever any prime exists


# A sequence builder takes (limit, sieve tables or None).
Builder = Callable[[int, SieveTables | None], ParitySequence]

# One part of a problem's reference routes: its evaluator kind, the
# builders of its two sequences, and the oracle's second sequence where it
# differs.  A problem's count is the sum of its parts' counts.
Part = tuple[EvaluatorKind, Builder, Builder, Builder | None]


def _built_in(kind: SequenceKind) -> Builder:
    return lambda limit, tables: make_sequence(kind, limit, tables=tables)


def _two(limit: int, tables) -> ParitySequence:
    return ParitySequence([2], Parity.EVEN, limit)


def _two_and_doubled_primes(limit: int, tables) -> ParitySequence:
    # The even terms that are prime or semiprime: 2 and 2p (2p >= 4 > 2).
    doubled = make_sequence(SequenceKind.DOUBLED_PRIMES, limit, tables=tables)
    return ParitySequence(np.concatenate(([2], doubled.terms)), Parity.EVEN, limit)


_ODD_PRIMES = _built_in(SequenceKind.ODD_PRIMES)
_PRIMES = _built_in(SequenceKind.PRIMES)
_PRIME_OR_ODD_SEMIPRIME = _built_in(SequenceKind.PRIME_OR_ODD_SEMIPRIME)
_DOUBLED_PRIMES = _built_in(SequenceKind.DOUBLED_PRIMES)
_EVEN_SQUARES = _built_in(SequenceKind.EVEN_SQUARES)
_ODD_SQUARES = _built_in(SequenceKind.ODD_SQUARES)
_PRONIC = _built_in(SequenceKind.PRONIC)


@dataclass(frozen=True)
class ProblemSpec:
    """A named problem: its engine route, argument convention and check routes.

    A ``sieved`` problem's ``compute`` also takes sieve tables covering
    ``x_of_n(n_max)``; ``run`` builds them under a caller's table cap.
    ``evaluator_series`` and ``oracle_series`` default to the generic
    reference routes over ``parts``.
    """

    name: str
    oeis: str | None
    n_start: int
    x_base: int
    x_step: int
    argument_desc: str
    compute: Callable[[int], CountSeries]
    parts: tuple[Part, ...]
    sieved: bool = False
    evaluator_series: Callable[[int], list[int]] | None = None
    oracle_series: Callable[[int], list[int]] | None = None

    def __post_init__(self):
        for route, oracle in (("evaluator_series", False), ("oracle_series", True)):
            if getattr(self, route) is None:
                object.__setattr__(
                    self, route, partial(reference_series, self, oracle=oracle)
                )

    def x_of_n(self, n: int) -> int:
        return self.x_base + self.x_step * (n - self.n_start)

    def run(self, n_max: int, cap: int = DEFAULT_TABLE_CAP) -> CountSeries:
        """``compute(n_max)`` with any sieve it needs limited to ``cap`` entries."""
        if self.sieved:
            return self.compute(n_max, build_sieve(self.x_of_n(n_max), cap))
        return self.compute(n_max)


def reference_series(spec: ProblemSpec, n_max: int, oracle: bool = False) -> list[int]:
    """a(n) for n = n_start..n_max by the paper's recursion, or by brute force.

    Each part's series runs over every target of its kind's lattice up to
    ``x_of_n(n_max)``; the problem's terms sum one strided slice of each
    part's values, the entries at x_of_n(n).
    """
    x_max = spec.x_of_n(n_max)
    tables = build_sieve(x_max) if spec.sieved else None
    totals = [0] * (n_max - spec.n_start + 1)
    for kind, make_a, make_b, make_oracle_b in spec.parts:
        if oracle and make_oracle_b:
            make_b = make_oracle_b
        seq_a = make_a(x_max, tables)
        seq_b = seq_a if make_b is make_a else make_b(x_max, tables)
        if oracle:
            series = brute_count_series(
                seq_a, seq_b, x_max,
                role_tagged=kind is EvaluatorKind.EVEN_ODD, base=_BASES[kind],
            )
        else:
            series = RecursionEvaluator(kind, seq_a, seq_b).run_to(x_max)
        first = spec.x_of_n(spec.n_start) - series.base
        offset, off_lattice = divmod(first, series.step)
        stride, off_stride = divmod(spec.x_step, series.step)
        assert offset >= 0 and not off_lattice and not off_stride
        values = series.values[offset::stride]
        totals = [t + v for t, v in zip(totals, values)]
    return totals


PROBLEMS: dict[str, ProblemSpec] = {
    spec.name: spec
    for spec in (
        ProblemSpec(
            name="goldbach",
            oeis="A002375",
            n_start=1,
            x_base=2,
            x_step=2,
            argument_desc="a(n) counts decompositions of x = 2*n, n >= 1",
            compute=goldbach,
            parts=((EvaluatorKind.ODD_ODD, _ODD_PRIMES, _ODD_PRIMES, None),),
            sieved=True,
        ),
        ProblemSpec(
            name="chen-odd-odd",
            oeis=None,
            n_start=1,
            x_base=2,
            x_step=2,
            argument_desc="a(n) counts odd-odd decompositions of x = 2*n, n >= 1",
            compute=chen_odd_odd,
            parts=(
                (EvaluatorKind.ODD_ODD, _ODD_PRIMES, _PRIME_OR_ODD_SEMIPRIME, None),
            ),
            sieved=True,
        ),
        ProblemSpec(
            name="chen-total",
            oeis=None,
            n_start=1,
            x_base=2,
            x_step=2,
            argument_desc="a(n) counts all decompositions of x = 2*n, n >= 1",
            compute=chen_total,
            parts=(
                (EvaluatorKind.ODD_ODD, _ODD_PRIMES, _PRIME_OR_ODD_SEMIPRIME, None),
                (EvaluatorKind.EVEN_EVEN, _two, _two_and_doubled_primes, None),
            ),
            sieved=True,
        ),
        ProblemSpec(
            name="lemoine-levy",
            oeis="A046927",
            n_start=1,
            x_base=1,
            x_step=2,
            argument_desc="a(n) counts decompositions of x = 2*n - 1, n >= 1",
            compute=lemoine_levy,
            # 2 is never the odd summand of an odd target, so the recursion
            # may use the odd primes; the oracle keeps all primes.
            parts=((EvaluatorKind.EVEN_ODD, _DOUBLED_PRIMES, _ODD_PRIMES, _PRIMES),),
            sieved=True,
        ),
        ProblemSpec(
            name="two-squares",
            oeis=None,
            n_start=0,
            x_base=1,
            x_step=4,
            argument_desc="a(n) counts decompositions of x = 4*n + 1, n >= 0",
            compute=two_squares,
            # Every odd target, of which the series keeps those 1 mod 4.
            parts=((EvaluatorKind.EVEN_ODD, _EVEN_SQUARES, _ODD_SQUARES, None),),
        ),
        ProblemSpec(
            name="two-triangular",
            oeis="A052343",
            n_start=0,
            x_base=0,
            x_step=2,
            argument_desc="a(n) counts decompositions of n itself, n >= 0 "
            "(targets 2*n over doubled triangulars)",
            compute=two_triangular,
            parts=((EvaluatorKind.EVEN_EVEN, _PRONIC, _PRONIC, None),),
        ),
    )
}
