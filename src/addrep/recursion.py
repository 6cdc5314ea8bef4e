"""Incremental recursions for two-term representation counts.

Given two materialized sequences, an evaluator produces the number of
ways to write each target as one term from each sequence.  Three kinds
exist, keyed by the parities involved:

* ``ODD_ODD``   even targets, both terms odd, pairs unordered (base 2);
* ``EVEN_EVEN`` even targets, both terms even, pairs unordered (base 0);
* ``EVEN_ODD``  odd targets, one even and one odd term, roles fixed by
  parity (base 1).

Each step expresses the count at x through counting-function sums over
terms up to half the target, a cross product of the two counting
functions at the midpoint, for the unordered kinds a correction built
from the shared terms, minus the sum of every previously computed count.
That running tail makes a full series cost one pass instead of a
re-summation per target.  ``RecursionEvaluator.run_to`` is the one step
loop (``next`` runs it one target on).  A step costs at most three capped
sums, each a gather over the terms up to half the target (three for the
general and subset formulas, two for even-odd, one for equal), so a
series to N sums O(N * #terms <= N/2) entries of int32 tables of S(x),
x = 0..limit; an evaluator builds its own, one per distinct sequence.

For the unordered kinds two shortcut step formulas exist: ``SUBSET`` when
the first sequence is contained in the second, and ``EQUAL`` when both
are the same.  They produce identical values through fewer sums.

Evaluators are single-owner mutable state: safe to hand between threads,
not to drive concurrently.  Distinct evaluators sharing the same input
sequences may run in parallel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContainmentError,
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
)
from .sequences import Parity, ParitySequence, intersect


class EvaluatorKind(enum.Enum):
    ODD_ODD = "odd-odd"
    EVEN_EVEN = "even-even"
    EVEN_ODD = "even-odd"


class Formula(enum.Enum):
    GENERAL = "general"
    SUBSET = "subset"
    EQUAL = "equal"


_BASES = {
    EvaluatorKind.ODD_ODD: 2,
    EvaluatorKind.EVEN_EVEN: 0,
    EvaluatorKind.EVEN_ODD: 1,
}

_PARITIES = {
    EvaluatorKind.ODD_ODD: (Parity.ODD, Parity.ODD),
    EvaluatorKind.EVEN_EVEN: (Parity.EVEN, Parity.EVEN),
    EvaluatorKind.EVEN_ODD: (Parity.EVEN, Parity.ODD),
}


@dataclass
class CountSeries:
    """Counts along an arithmetic argument lattice base, base+step, ..."""

    base: int
    values: list[int] = field(default_factory=list)
    step: int = 2

    def argument(self, i: int) -> int:
        return self.base + self.step * i

    def arguments(self) -> range:
        return range(self.base, self.base + self.step * len(self.values), self.step)

    def value_at(self, x: int) -> int:
        q, r = divmod(x - self.base, self.step)
        if r or not 0 <= q < len(self.values):
            raise KeyError(f"argument {x} not in series")
        return self.values[q]

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self.arguments(), self.values))

    def __len__(self) -> int:
        return len(self.values)


def _prefix_table(seq: ParitySequence) -> np.ndarray:
    """S(x) = #{terms <= x} for x = 0..seq.limit, summed in place as int32."""
    table = np.zeros(seq.limit + 1, dtype=np.int32)
    table[seq.terms] = 1
    return np.cumsum(table, out=table)


def _capped_sum(counts: np.ndarray, terms: np.ndarray, cap: int, x: int) -> int:
    """Sum of counts[x - t] over the leading terms t <= cap."""
    if not 0 <= x < len(counts):
        # The reversed view below would clamp x and shift every index.
        raise LimitExceededError(f"argument {x} outside the count table 0..{len(counts) - 1}")
    j = terms.searchsorted(cap, side="right")
    # counts[x::-1][t] is counts[x - t], read without an index temporary.
    return int(np.add.reduce(counts[x::-1][terms[:j]], dtype=np.int64))


class RecursionEvaluator:
    """Stateful evaluator producing one representation-count series.

    The constructor seeds the base count by a direct membership test
    (targets 2, 0 and 1 admit at most one decomposition) and builds the
    tables its step formula reads; ``run_to`` advances the argument by 2
    a step.  ``tail_sum`` always equals the sum of the values so far.
    """

    def __init__(
        self,
        kind: EvaluatorKind,
        seq_a: ParitySequence,
        seq_b: ParitySequence,
        formula: Formula = Formula.GENERAL,
        *,
        _tables=None,
    ):
        want_a, want_b = _PARITIES[kind]
        if seq_a.parity is not want_a or seq_b.parity is not want_b:
            raise ParityMismatchError(
                f"{kind.value} needs {want_a.value}/{want_b.value} sequences, "
                f"got {seq_a.parity.value}/{seq_b.parity.value}"
            )
        if seq_a.limit != seq_b.limit:
            raise LimitMismatchError(
                f"sequence limits differ: {seq_a.limit} vs {seq_b.limit}"
            )
        base = _BASES[kind]
        if seq_a.limit < base:
            raise LimitExceededError(
                f"limit {seq_a.limit} is below the base argument {base}"
            )
        if formula is not Formula.GENERAL:
            if kind is EvaluatorKind.EVEN_ODD:
                raise ContainmentError(
                    "even-odd sequences are disjoint by parity; "
                    "no subset or equal shortcut exists"
                )
            if formula is Formula.SUBSET and not seq_a.is_subset_of(seq_b):
                raise ContainmentError("first sequence is not contained in the second")
            if formula is Formula.EQUAL and seq_a != seq_b:
                raise ContainmentError("sequences are not equal")

        self.kind = kind
        self.formula = formula
        self.seq_a = seq_a
        self.seq_b = seq_b
        # (terms, prefix table) per role; equal sequences share one table,
        # and a specialization reuses the (a, b) pairs of its original.
        a, b = _tables or (None, None)
        self._a = a or (seq_a.terms, _prefix_table(seq_a))
        same = seq_b is seq_a or formula is Formula.EQUAL
        self._b = self._a if same else b or (seq_b.terms, _prefix_table(seq_b))
        if kind is EvaluatorKind.EVEN_ODD:
            self.seq_w = self._w = None
            self._functional = self._step_even_odd
        elif formula is Formula.GENERAL:
            self.seq_w = seq_a if same else intersect(seq_a, seq_b)  # paired with itself: all shared
            self._w = self._a if same else (self.seq_w.terms, _prefix_table(self.seq_w))
            self._functional = self._step_general
        else:
            # With seq_a contained in (or equal to) seq_b the shared part
            # is seq_a itself.
            self.seq_w, self._w = seq_a, self._a
            self._functional = self._step_subset if formula is Formula.SUBSET else self._step_equal

        first = base // 2  # 2 = 1 + 1, 0 = 0 + 0, 1 = 0 + 1
        seed = int(seq_a.contains(first) and seq_b.contains(base - first))
        self.computed = CountSeries(base, [seed])
        self.tail_sum = seed

    @property
    def last_argument(self) -> int:
        return self.computed.argument(len(self.computed) - 1)

    def next(self) -> tuple[int, int]:
        """Compute, record and return (argument, count) for the next target."""
        x = self.last_argument + 2
        self.run_to(x)
        return x, self.computed.values[-1]

    def run_to(self, x_max: int) -> CountSeries:
        """Fill the series through x_max; a no-op for already computed parts.

        A target past the sequences' limit raises LimitExceededError with
        every value up to the limit recorded.
        """
        base = self.computed.base
        if x_max < base:
            raise ValueError(f"x_max {x_max} is below the base argument {base}")
        if (x_max - base) % 2:
            raise ValueError(f"x_max {x_max} is off the argument lattice of {base}")
        values, functional, limit = self.computed.values, self._functional, self.seq_a.limit
        x = self.last_argument
        while x < x_max:
            x += 2
            if x > limit:
                raise LimitExceededError(
                    f"argument {x} beyond the materialized limit {limit}"
                )
            value = functional(x) - self.tail_sum
            values.append(value)
            self.tail_sum += value
        return self.computed

    def specialized_subset(self) -> "RecursionEvaluator":
        """Fresh evaluator using the contained-sequence shortcut formula."""
        return RecursionEvaluator(
            self.kind, self.seq_a, self.seq_b, Formula.SUBSET, _tables=(self._a, self._b)
        )

    def specialized_equal(self) -> "RecursionEvaluator":
        """Fresh evaluator using the equal-sequences shortcut formula."""
        return RecursionEvaluator(
            self.kind, self.seq_a, self.seq_b, Formula.EQUAL, _tables=(self._a, self._b)
        )

    # Each step formula returns the one-shot count functional at x; run_to
    # subtracts the running tail to get the count itself.

    def _step_general(self, x: int) -> int:
        (a, ca), (b, cb), (w, cw) = self._a, self._b, self._w
        half = x // 2
        s_over_b = _capped_sum(ca, b, half, x)
        s_over_a = _capped_sum(cb, a, half, x)
        s_over_w = _capped_sum(cw, w, half, x)
        cross = int(ca[half]) * int(cb[half])
        n_w = int(cw[half])
        return s_over_b + s_over_a - s_over_w - cross + n_w * (n_w + 1) // 2

    def _step_subset(self, x: int) -> int:
        (a, ca), (b, cb) = self._a, self._b
        half = x // 2
        s_over_b = _capped_sum(ca, b, half, x)
        s_diff = _capped_sum(cb, a, half, x) - _capped_sum(ca, a, half, x)
        n_a = int(ca[half])
        return s_over_b + s_diff - n_a * int(cb[half]) + n_a * (n_a + 1) // 2

    def _step_equal(self, x: int) -> int:
        a, ca = self._a
        half = x // 2
        n_a = int(ca[half])
        return _capped_sum(ca, a, half, x) - n_a * (n_a - 1) // 2

    def _step_even_odd(self, x: int) -> int:
        (a, ca), (b, cb) = self._a, self._b
        half = (x + 1) // 2
        s_over_b = _capped_sum(ca, b, half, x)
        s_over_a = _capped_sum(cb, a, half, x)
        return s_over_b + s_over_a - int(ca[half]) * int(cb[half])
