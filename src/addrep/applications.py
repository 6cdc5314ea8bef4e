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
paper's recursion (``RecursionEvaluator``) and brute-force enumeration.
Problems are independent of each other and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convolution import count_series
from .oracle import brute_count_series
from .recursion import CountSeries, EvaluatorKind, RecursionEvaluator
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
    odd_primes = _odd_primes(tables)
    flags = odd_semiprime_flags(tables, 2 * n_max)
    flags[odd_primes[odd_primes <= 2 * n_max]] = True
    counts = count_series(
        EvaluatorKind.ODD_ODD, 2 * n_max, odd_primes, np.flatnonzero(flags)
    )
    return CountSeries(2, counts.tolist())


def chen_total(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g1(2n) + g2(2n): all decompositions of 2n into a prime plus a prime
    or semiprime.  The even-even part g2(2n) is 1 exactly when n-1 is
    prime or 1 (the only even prime is 2, so one summand must be 2)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    tables = ensure_tables(tables, 2 * n_max)
    odd_odd = np.array(chen_odd_odd(n_max, tables).values)
    m = np.arange(n_max)  # n - 1 for n = 1..n_max
    even_even = tables.prime_flags[:n_max] | (m == 1)
    return CountSeries(2, (odd_odd + even_even).tolist())


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


@dataclass(frozen=True)
class ProblemSpec:
    """A named problem: its engine route, argument convention and check routes.

    A ``sieved`` problem's ``compute`` also takes sieve tables covering
    ``x_of_n(n_max)``; ``run`` builds them under a caller's table cap.
    """

    name: str
    oeis: str | None
    n_start: int
    x_base: int
    x_step: int
    argument_desc: str
    compute: Callable[[int], CountSeries]
    evaluator_series: Callable[[int], list[int]]
    oracle_series: Callable[[int], list[int]]
    sieved: bool = False

    def x_of_n(self, n: int) -> int:
        return self.x_base + self.x_step * (n - self.n_start)

    def run(self, n_max: int, cap: int = DEFAULT_TABLE_CAP) -> CountSeries:
        """``compute(n_max)`` with any sieve it needs limited to ``cap`` entries."""
        if self.sieved:
            return self.compute(n_max, build_sieve(self.x_of_n(n_max), cap))
        return self.compute(n_max)


def _evaluator_values(kind, seq_a, seq_b, x_max) -> list[int]:
    return list(RecursionEvaluator(kind, seq_a, seq_b).run_to(x_max).values)


def _oracle_values(seq_a, seq_b, x_max, role_tagged=False, base=None) -> list[int]:
    return list(
        brute_count_series(seq_a, seq_b, x_max, role_tagged=role_tagged, base=base).values
    )


def _goldbach_pair(n_max: int):
    limit = 2 * n_max
    tables = build_sieve(limit)
    seq = make_sequence(SequenceKind.ODD_PRIMES, limit, tables=tables)
    return seq, seq


def _goldbach_evaluator(n_max: int) -> list[int]:
    a, b = _goldbach_pair(n_max)
    return _evaluator_values(EvaluatorKind.ODD_ODD, a, b, 2 * n_max)


def _goldbach_oracle(n_max: int) -> list[int]:
    a, b = _goldbach_pair(n_max)
    return _oracle_values(a, b, 2 * n_max)


def _chen_pair(n_max: int, tables=None):
    limit = 2 * n_max
    tables = ensure_tables(tables, limit)
    s = make_sequence(SequenceKind.ODD_PRIMES, limit, tables=tables)
    t = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, limit, tables=tables)
    return s, t


def _chen_evaluator(n_max: int) -> list[int]:
    s, t = _chen_pair(n_max)
    return _evaluator_values(EvaluatorKind.ODD_ODD, s, t, 2 * n_max)


def _chen_oracle(n_max: int) -> list[int]:
    s, t = _chen_pair(n_max)
    return _oracle_values(s, t, 2 * n_max)


def _chen_even_pair(n_max: int, tables=None):
    # Even summands of "prime" and "prime or semiprime": {2} and {2} + 2P.
    limit = 2 * n_max
    tables = ensure_tables(tables, limit)
    doubled = make_sequence(SequenceKind.DOUBLED_PRIMES, limit, tables=tables)
    le = ParitySequence([2], Parity.EVEN, limit)
    me = ParitySequence(sorted({2, *doubled.terms}), Parity.EVEN, limit)
    return le, me


def _chen_total_evaluator(n_max: int) -> list[int]:
    tables = build_sieve(2 * n_max)
    s, t = _chen_pair(n_max, tables)
    le, me = _chen_even_pair(n_max, tables)
    odd_part = _evaluator_values(EvaluatorKind.ODD_ODD, s, t, 2 * n_max)
    even_part = _evaluator_values(EvaluatorKind.EVEN_EVEN, le, me, 2 * n_max)
    return [odd_part[n - 1] + even_part[n] for n in range(1, n_max + 1)]


def _chen_total_oracle(n_max: int) -> list[int]:
    tables = build_sieve(2 * n_max)
    s, t = _chen_pair(n_max, tables)
    le, me = _chen_even_pair(n_max, tables)
    odd_part = _oracle_values(s, t, 2 * n_max)
    even_part = _oracle_values(le, me, 2 * n_max)
    return [odd_part[n - 1] + even_part[n] for n in range(1, n_max + 1)]


def _lemoine_evaluator(n_max: int) -> list[int]:
    # The evaluator route uses odd primes for the odd role; the prime 2
    # cannot appear as the odd summand, so the counts are unchanged.
    limit = 2 * n_max
    tables = build_sieve(limit)
    u = make_sequence(SequenceKind.DOUBLED_PRIMES, limit, tables=tables)
    v = make_sequence(SequenceKind.ODD_PRIMES, limit, tables=tables)
    return _evaluator_values(EvaluatorKind.EVEN_ODD, u, v, 2 * n_max - 1)


def _lemoine_oracle(n_max: int) -> list[int]:
    # The brute-force route keeps the published binding with all primes.
    limit = 2 * n_max
    tables = build_sieve(limit)
    u = make_sequence(SequenceKind.DOUBLED_PRIMES, limit, tables=tables)
    v = make_sequence(SequenceKind.PRIMES, limit, tables=tables)
    return _oracle_values(u, v, 2 * n_max - 1, role_tagged=True, base=1)


def _square_pair(n_max: int):
    limit = 4 * n_max + 1
    u = make_sequence(SequenceKind.EVEN_SQUARES, limit)
    v = make_sequence(SequenceKind.ODD_SQUARES, limit)
    return u, v


def _two_squares_evaluator(n_max: int) -> list[int]:
    u, v = _square_pair(n_max)
    full = _evaluator_values(EvaluatorKind.EVEN_ODD, u, v, 4 * n_max + 1)
    return full[0::2]  # keep targets 1 mod 4


def _two_squares_oracle(n_max: int) -> list[int]:
    u, v = _square_pair(n_max)
    full = _oracle_values(u, v, 4 * n_max + 1, role_tagged=True, base=1)
    return full[0::2]


def _pronic_pair(n_max: int):
    limit = 2 * n_max
    seq = make_sequence(SequenceKind.PRONIC, limit)
    return seq, seq


def _two_triangular_evaluator(n_max: int) -> list[int]:
    a, b = _pronic_pair(n_max)
    return _evaluator_values(EvaluatorKind.EVEN_EVEN, a, b, 2 * n_max)


def _two_triangular_oracle(n_max: int) -> list[int]:
    a, b = _pronic_pair(n_max)
    return _oracle_values(a, b, 2 * n_max)


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
            evaluator_series=_goldbach_evaluator,
            oracle_series=_goldbach_oracle,
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
            evaluator_series=_chen_evaluator,
            oracle_series=_chen_oracle,
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
            evaluator_series=_chen_total_evaluator,
            oracle_series=_chen_total_oracle,
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
            evaluator_series=_lemoine_evaluator,
            oracle_series=_lemoine_oracle,
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
            evaluator_series=_two_squares_evaluator,
            oracle_series=_two_squares_oracle,
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
            evaluator_series=_two_triangular_evaluator,
            oracle_series=_two_triangular_oracle,
        ),
    )
}
