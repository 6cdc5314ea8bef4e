"""Incremental recursions for two-term representation counts.

Given two materialized sequences, an evaluator produces the number of
ways to write each target as one term from each sequence.  Three kinds
exist, keyed by the parities involved:

* ``ODD_ODD``   even targets, both terms odd, pairs unordered (base 2);
* ``EVEN_EVEN`` even targets, both terms even, pairs unordered (base 0);
* ``EVEN_ODD``  odd targets, one even and one odd term, roles fixed by
  parity (base 1).

Each step is the paper's theorem: the count at x through sums of S_A
over B's terms and of S_B over A's terms up to half the target, a cross
product of the counting functions there and, when the roles can share
terms, a correction over the shared part W, minus the sum of every
previously computed count.  That running tail makes a full series cost
one pass instead of a re-summation per target.  ``run_to`` is the one
step loop (``next`` runs it one target on).  A step costs a capped sum
over B, A and W (when there is one), each a gather over the terms up to
the cap, plus one read of S(cap) per sum and no search: S(cap) of a term
set is how many leading terms the sum takes.  One cap, (x + 1) // 2, is
exact for every kind and x: raising it from h to h + 1, 2(h + 1) = x + 1,
moves the value by omega - alpha * beta = 0, where alpha, beta and omega
say whether h + 1 is in A, B and W.  A series to N thus sums
O(N * #terms <= N/2) entries of int64 tables of S(x), x = 0..limit (8 B
per target per distinct sequence), each sum in the table's own dtype, so
no gather is cast; an evaluator builds its own tables.

W is A and B's intersection (``sequences.shared_terms``): A or B itself
when it lies in the other, sharing that one's table, as B shares A's when
it equals A.  Even-odd has none, and nor has a disjoint pair (W terms 0).
The paper's subset case, A within B, is thus the general formula with
W = A (``specialized_subset`` refuses any other pair); ``EQUAL``, for two
equal sequences, is the theorem's corollary: one sum, with the general
formula's values.

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
    """A recursion kind: its name, its base target and its sequences' parities."""

    ODD_ODD = "odd-odd", 2, Parity.ODD, Parity.ODD
    EVEN_EVEN = "even-even", 0, Parity.EVEN, Parity.EVEN
    EVEN_ODD = "even-odd", 1, Parity.EVEN, Parity.ODD

    def __new__(cls, value: str, base: int, parity_a: Parity, parity_b: Parity):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.base = base
        kind.parities = (parity_a, parity_b)
        return kind

    @classmethod
    def of(cls, parity_a: Parity, parity_b: Parity) -> "EvaluatorKind | None":
        """The kind of a pair with these parities, in role order, or None."""
        return next((kind for kind in cls if kind.parities == (parity_a, parity_b)), None)


class Formula(enum.Enum):
    GENERAL = "general"
    EQUAL = "equal"


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
    """S(x) = #{terms <= x} for x = 0..seq.limit, summed in place as int64.

    8 B per target: ``_capped_sum`` then reduces its gathers without a cast.
    """
    table = np.zeros(seq.limit + 1, dtype=np.int64)
    table[seq.terms] = 1
    return np.cumsum(table, out=table)


def _capped_sum(counts: np.ndarray, terms: np.ndarray, cap: int, x: int) -> int:
    """Sum of counts[x - t] over the leading terms t <= cap.

    The step formulas pass terms already cut at the cap, so the search for
    the cut runs only when the last term passes it.  The gather is reduced
    in the table's dtype: int64 tables need no cast, and numpy reduces
    narrower integer tables in int64 by default, so the sum is exact.
    """
    if not 0 <= x < len(counts):
        # The reversed view below would clamp x and shift every index.
        raise LimitExceededError(f"argument {x} outside the count table 0..{len(counts) - 1}")
    if len(terms) and terms.item(-1) > cap:
        terms = terms[:terms.searchsorted(cap, side="right")]
    # counts[x::-1][t] is counts[x - t], read without an index temporary.
    return int(np.add.reduce(counts[x::-1][terms]))


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
    ):
        want_a, want_b = kind.parities
        if seq_a.parity is not want_a or seq_b.parity is not want_b:
            raise ParityMismatchError(
                f"{kind.value} needs {want_a.value}/{want_b.value} sequences, "
                f"got {seq_a.parity.value}/{seq_b.parity.value}"
            )
        if seq_a.limit != seq_b.limit:
            raise LimitMismatchError(
                f"sequence limits differ: {seq_a.limit} vs {seq_b.limit}"
            )
        base = kind.base
        if seq_a.limit < base:
            raise LimitExceededError(
                f"limit {seq_a.limit} is below the base argument {base}"
            )
        if formula is Formula.EQUAL and seq_a != seq_b:
            raise ContainmentError("sequences are not equal")
        # W is none for even-odd, else A & B: seq_a or seq_b when within the other.
        seq_w = None if kind is EvaluatorKind.EVEN_ODD else intersect(seq_a, seq_b)
        if seq_w is not None and not len(seq_w) and seq_w is not seq_a and seq_w is not seq_b:
            seq_w = None  # disjoint: the step's W terms are 0

        self.kind = kind
        self.formula = formula
        self.seq_a = seq_a
        self.seq_b = seq_b
        self.seq_w = seq_w
        # (terms, prefix table) per role; B and W take A's when they are A, W B's when B.
        self._a = (seq_a.terms, _prefix_table(seq_a))
        self._b = self._a if seq_b == seq_a else (seq_b.terms, _prefix_table(seq_b))
        self._w = (
            None if seq_w is None
            else self._a if seq_w is seq_a
            else self._b if seq_w is seq_b
            else (seq_w.terms, _prefix_table(seq_w))
        )
        self._step = self._step_equal if formula is Formula.EQUAL else self._step_general

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
        values, step, limit = self.computed.values, self._step, self.seq_a.limit
        tail = self.tail_sum
        try:
            for x in range(self.last_argument + 2, min(x_max, limit) + 1, 2):
                value = step(x) - tail
                values.append(value)
                tail += value
        finally:
            self.tail_sum = tail
        if x_max > limit:
            raise LimitExceededError(
                f"argument {self.last_argument + 2} beyond the materialized limit {limit}"
            )
        return self.computed

    def _functional(self, x: int) -> int:
        """The one-shot functional at x: the sum of the counts up to x."""
        limit = self.seq_a.limit
        if not 0 <= x <= limit:
            raise LimitExceededError(f"argument {x} outside the tables 0..{limit}")
        return self._step(x)

    def specialized_subset(self) -> "RecursionEvaluator":
        """Fresh evaluator for A within B: the general formula, with W = A."""
        if self.seq_w is not self.seq_a:
            raise ContainmentError("first sequence is not contained in the second")
        return RecursionEvaluator(self.kind, self.seq_a, self.seq_b)

    def specialized_equal(self) -> "RecursionEvaluator":
        """Fresh evaluator using the equal-sequences shortcut formula."""
        return RecursionEvaluator(self.kind, self.seq_a, self.seq_b, Formula.EQUAL)

    # Each step formula returns the one-shot count functional at x; run_to
    # subtracts the running tail to get the count itself.  A step reads
    # S(half) once per term set it sums over: those counts enter its cross
    # and shared-term terms and cut each term array to the terms <= half.

    def _step_general(self, x: int) -> int:
        (a, ca), (b, cb) = self._a, self._b
        half = (x + 1) // 2
        n_a, n_b = ca.item(half), cb.item(half)
        s_over_b = _capped_sum(ca, b[:n_b], half, x)
        s_over_a = _capped_sum(cb, a[:n_a], half, x)
        value = s_over_b + s_over_a - n_a * n_b
        if self._w is not None:
            w, cw = self._w
            n_w = cw.item(half)
            value += n_w * (n_w + 1) // 2 - _capped_sum(cw, w[:n_w], half, x)
        return value

    def _step_equal(self, x: int) -> int:
        a, ca = self._a
        half = x // 2
        n_a = ca.item(half)
        return _capped_sum(ca, a[:n_a], half, x) - n_a * (n_a - 1) // 2
