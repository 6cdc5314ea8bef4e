"""The built-in counting problems, and custom pairs, expressed as data.

Each problem in PROBLEMS lists its ``parts``: an evaluator kind and the
builders of its two sequences.  A problem's count is the sum of its
parts' counts, and ``ProblemSpec.counts`` runs any of three routes over
``parts``: the engine (an exact blocked FFT convolution per part, behind the
functions below), the paper's recursion and brute-force enumeration.
``custom_problem`` turns any pair of parity sequences into a one-part
problem of the same shape.

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

Problems are independent of each other and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import convolution
from .errors import LimitExceededError, ParityMismatchError
from .oracle import brute_count_series
from .recursion import CountSeries, EvaluatorKind, Formula, RecursionEvaluator
from .sequences import (
    DEFAULT_TABLE_CAP,
    Parity,
    ParitySequence,
    SequenceKind,
    SieveTables,
    build_sieve,
    ensure_tables,
    make_sequence,
)


def goldbach(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g(2n) for n = 1..n_max: even 2n as an unordered sum of two odd primes."""
    return PROBLEMS["goldbach"].compute(n_max, tables)


def chen_odd_odd(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g1(2n) for n = 1..n_max: even 2n as an odd prime plus an odd prime
    or odd semiprime, unordered."""
    return PROBLEMS["chen-odd-odd"].compute(n_max, tables)


def chen_total(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """g1(2n) + g2(2n): all decompositions of 2n into a prime plus a prime
    or semiprime.  The even-even part g2(2n) is 1 exactly when n-1 is
    prime or 1 (the only even prime is 2, so one summand must be 2)."""
    return PROBLEMS["chen-total"].compute(n_max, tables)


def lemoine_levy(n_max: int, tables: SieveTables | None = None) -> CountSeries:
    """h(2n-1) for n = 1..n_max: odd 2n-1 as a doubled prime plus a prime.

    The prime 2 can never be the odd summand of an odd target, so the
    second sequence holds the odd primes only.
    """
    return PROBLEMS["lemoine-levy"].compute(n_max, tables)


def two_squares(n_max: int) -> CountSeries:
    """h(4n+1) for n = 0..n_max: unordered sums of two squares (>= 0).

    An odd target is an even square plus an odd square, so this is the
    even-odd count; targets 3 mod 4 (always 0) are dropped.
    """
    return PROBLEMS["two-squares"].compute(n_max)


def two_triangular(n_max: int) -> CountSeries:
    """t(n) for n = 0..n_max: unordered sums of two triangular numbers,
    counted as sums 2n of two doubled triangulars (pronic numbers j(j+1))."""
    return PROBLEMS["two-triangular"].compute(n_max)


# A sequence builder takes (limit, sieve tables or None).
Builder = Callable[[int, SieveTables | None], ParitySequence]

# One part of a problem: its evaluator kind, the builders of its two
# sequences, and the oracle's second sequence where it differs.
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
    """A named problem: its argument convention, its parts and its routes.

    ``counts`` runs any route over ``parts``; ``compute`` is its engine
    route as a ``CountSeries``.  Both take sieve tables covering
    ``x_of_n(n_max)``, which a ``sieved`` problem builds for itself when
    given None; ``sieve`` builds them under a caller's table cap.
    """

    name: str
    oeis: str | None
    n_start: int
    x_base: int
    x_step: int
    argument_desc: str
    parts: tuple[Part, ...]
    sieved: bool = False
    # perfbench's tracer swaps these two wrappers of ``counts`` for traced
    # ones (``dataclasses.replace``); they go once it traces ``counts``.
    compute: Callable[..., CountSeries] | None = None
    oracle_series: Callable[..., np.ndarray] | None = None

    def __post_init__(self):
        if self.compute is None:
            object.__setattr__(self, "compute", lambda n_max, tables=None: CountSeries(
                self.x_of_n(self.n_start), self.counts(n_max, tables=tables).tolist(),
                self.x_step))
        if self.oracle_series is None:
            object.__setattr__(self, "oracle_series", partial(self.counts, route="oracle"))

    def x_of_n(self, n: int) -> int:
        return self.x_base + self.x_step * (n - self.n_start)

    def sieve(self, n_max: int, cap: int = DEFAULT_TABLE_CAP) -> SieveTables | None:
        """The sieve a route to n_max reads, capped at ``cap`` entries, or None."""
        return build_sieve(self.x_of_n(n_max), cap) if self.sieved else None

    def counts(
        self, n_max: int, route: str = "engine", tables: SieveTables | None = None
    ) -> np.ndarray:
        """int64 a(n) for n = n_start..n_max by one route over the problem's parts.

        ``route`` is "engine" (the FFT convolution), "recursion"
        (``RecursionEvaluator``) or "oracle" (``brute_count_series``, with a
        part's oracle sequence where it has one).  A sieved problem builds its
        sequences over ``tables``, which must cover ``x_of_n(n_max)``, or over
        a sieve of its own when None.  Each part's series runs over every
        target of its kind's lattice up to ``x_of_n(n_max)``; the problem's
        terms sum one strided slice of each part's values, the entries at
        x_of_n(n).
        """
        if n_max < self.n_start:
            raise ValueError(f"n_max must be >= {self.n_start}")
        if route not in ("engine", "recursion", "oracle"):
            raise ValueError(f"unknown route {route!r}")
        x_max = self.x_of_n(n_max)
        tables = ensure_tables(tables, x_max) if self.sieved else None
        totals = 0
        for kind, make_a, make_b, make_oracle_b in self.parts:
            if route == "oracle" and make_oracle_b:
                make_b = make_oracle_b
            seq_a = make_a(x_max, tables)
            seq_b = seq_a if make_b is make_a else make_b(x_max, tables)
            known = min(seq_a.limit, seq_b.limit)
            if known < x_max:  # the engine would count missing terms as absent
                raise LimitExceededError(f"sequences are known up to {known}, not {x_max}")
            if route == "engine":
                b_terms = None if seq_b is seq_a else seq_b.terms
                values = convolution.count_series(kind, x_max, seq_a.terms, b_terms)
            elif route == "recursion":
                # A part that pairs a sequence with itself takes the paper's
                # equal-sequence formula: one capped sum per step, not three.
                formula = Formula.EQUAL if seq_b is seq_a else Formula.GENERAL
                values = RecursionEvaluator(kind, seq_a, seq_b, formula).run_to(x_max).values
            else:
                values = brute_count_series(
                    seq_a, seq_b, x_max,
                    role_tagged=kind is EvaluatorKind.EVEN_ODD, base=kind.base,
                ).values
            # Every route's series starts at the kind's base and steps by 2.
            offset, off_lattice = divmod(self.x_of_n(self.n_start) - kind.base, 2)
            stride, off_stride = divmod(self.x_step, 2)
            assert offset >= 0 and not off_lattice and not off_stride
            totals = totals + np.asarray(values[offset::stride], dtype=np.int64)
        return totals


def custom_problem(seq_a: ParitySequence, seq_b: ParitySequence) -> ProblemSpec:
    """Two parity sequences as a one-part problem: a(n) counts
    x = base + 2n, n >= 0.  An odd sequence given
    before an even one takes the second role; the counts are unchanged."""
    if (seq_a.parity, seq_b.parity) == (Parity.ODD, Parity.EVEN):
        seq_a, seq_b = seq_b, seq_a
    kind = EvaluatorKind.of(seq_a.parity, seq_b.parity)
    if kind is None:
        raise ParityMismatchError(
            f"no recursion for parities {seq_a.parity.value}/{seq_b.parity.value}"
        )
    return ProblemSpec(
        name=f"custom {kind.value}", oeis=None, n_start=0, x_base=kind.base, x_step=2,
        argument_desc="a(n) counts decompositions of x = base + 2*n, n >= 0",
        parts=((kind, lambda limit, tables: seq_a, lambda limit, tables: seq_b, None),),
    )


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
            parts=((EvaluatorKind.EVEN_EVEN, _PRONIC, _PRONIC, None),),
        ),
    )
}
