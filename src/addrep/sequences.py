"""Increasing integer sequences with exact counting functions.

A ParitySequence materializes every term of a sequence up to a stated
limit and answers counting queries S(x) = #{terms <= x} in O(1) through a
prefix table.  The built-in kinds cover everything the bundled counting
problems need (odd primes, primes together with odd semiprimes, all
primes, doubled primes, odd and even squares, pronic numbers, the full
parity classes); arbitrary sequences can be passed as explicit term lists
or loaded from a small text format.

SieveTables bundles prime flags with a prefix table for the prime
counting function pi(x); semiprime counting helpers sit on top of it.

All objects here are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
from pathlib import Path

import numpy as np

from .errors import (
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
    ResourceBudgetError,
    SequenceFormatError,
)

# Tables larger than this raise ResourceBudgetError instead of thrashing memory.
DEFAULT_TABLE_CAP = 50_000_000

# pi_hardy_wright evaluates (j-2)! exactly; the cap keeps that affordable.
HARDY_WRIGHT_CAP = 40


class Parity(enum.Enum):
    ODD = "odd"
    EVEN = "even"
    # Mixed parity exists only for the all-primes kind (2 plus the odd primes).
    # The recursion evaluators reject mixed sequences; the brute-force counter
    # accepts them.
    MIXED = "mixed"


class SequenceKind(enum.Enum):
    ODD_PRIMES = "odd-primes"
    PRIME_OR_ODD_SEMIPRIME = "prime-or-odd-semiprime"
    PRIMES = "primes"
    DOUBLED_PRIMES = "doubled-primes"
    ODD_SQUARES = "odd-squares"
    EVEN_SQUARES = "even-squares"
    PRONIC = "pronic"
    ALL_ODD = "all-odd"
    ALL_EVEN = "all-even"
    CUSTOM = "custom"


class ParitySequence:
    """Strictly increasing nonnegative integers of uniform parity.

    Terms are known exactly up to ``limit`` (inclusive).  Counting and
    membership queries beyond the limit raise LimitExceededError rather
    than guessing; for a finite sequence the counting function is simply
    constant past the last term.  Zero is a legal term only for even
    parity.
    """

    __slots__ = ("terms", "parity", "limit", "term_array", "count_table")

    def __init__(self, terms, parity: Parity, limit: int):
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        terms = [int(t) for t in terms]
        prev = -1
        for t in terms:
            if t <= prev:
                raise SequenceFormatError(
                    f"terms must be strictly increasing, got {t} after {prev}"
                )
            if t < 0:
                raise SequenceFormatError(f"negative term {t}")
            if t > limit:
                raise LimitExceededError(f"term {t} lies beyond limit {limit}")
            if parity is Parity.ODD and t % 2 == 0:
                raise ParityMismatchError(f"even term {t} in an odd sequence")
            if parity is Parity.EVEN and t % 2 == 1:
                raise ParityMismatchError(f"odd term {t} in an even sequence")
            prev = t
        self.terms = tuple(terms)
        self.parity = parity
        self.limit = limit
        self.term_array = np.asarray(terms, dtype=np.int64)
        indicator = np.zeros(limit + 1, dtype=np.int32)
        if terms:
            indicator[self.term_array] = 1
        self.count_table = np.cumsum(indicator, dtype=np.int32)

    def counting(self, x: int) -> int:
        """Number of terms <= x.  Defined for x <= limit; negative x count 0."""
        if x < 0:
            return 0
        if x > self.limit:
            raise LimitExceededError(f"counting({x}) beyond limit {self.limit}")
        return int(self.count_table[x])

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.limit:
            raise LimitExceededError(f"membership of {x} unknown beyond {self.limit}")
        before = int(self.count_table[x - 1]) if x > 0 else 0
        return int(self.count_table[x]) > before

    __contains__ = contains

    def is_subset_of(self, other: "ParitySequence") -> bool:
        if self.limit > other.limit:
            raise LimitMismatchError(
                "subset scan needs the other sequence known at least as far"
            )
        return all(other.contains(t) for t in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParitySequence):
            return NotImplemented
        return (
            self.parity is other.parity
            and self.limit == other.limit
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.parity, self.limit, self.terms))

    def __repr__(self) -> str:
        head = ", ".join(str(t) for t in self.terms[:6])
        tail = ", ..." if len(self.terms) > 6 else ""
        return (
            f"ParitySequence([{head}{tail}] ({len(self.terms)} terms), "
            f"{self.parity.value}, limit={self.limit})"
        )


class SieveTables:
    """Prime flags, prefix counts for pi(x), and the materialized primes."""

    __slots__ = ("limit", "prime_flags", "pi_prefix", "primes")

    def __init__(self, limit, prime_flags, pi_prefix, primes):
        self.limit = limit
        self.prime_flags = prime_flags
        self.pi_prefix = pi_prefix
        self.primes = primes

    def pi(self, x: int) -> int:
        """pi(x), the number of primes <= x."""
        if x < 0:
            return 0
        if x > self.limit:
            raise LimitExceededError(f"pi({x}) beyond sieve limit {self.limit}")
        return int(self.pi_prefix[x])

    def pi_odd(self, x: int) -> int:
        """Number of odd primes <= x."""
        return self.pi(x) - (1 if x >= 2 else 0)


def build_sieve(limit: int, cap: int = DEFAULT_TABLE_CAP) -> SieveTables:
    """Sieve of Eratosthenes plus prefix counts, exact up to ``limit``."""
    if limit < 0:
        raise ValueError("sieve limit must be nonnegative")
    if limit > cap:
        raise ResourceBudgetError(f"sieve limit {limit} exceeds the cap {cap}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    pi_prefix = np.cumsum(flags, dtype=np.int32)
    primes = np.flatnonzero(flags).astype(np.int64)
    return SieveTables(limit, flags, pi_prefix, primes)


def pi_hardy_wright(n: int) -> int:
    """pi(n) from the explicit factorial formula, for 4 <= n <= 40.

    pi(n) = -1 + sum_{j=3..n} ((j-2)! - j*floor((j-2)!/j)), evaluated in
    exact integer arithmetic.  A verification curiosity, not a production
    prime counter: (n-2)! grows far too fast.
    """
    if not 4 <= n <= HARDY_WRIGHT_CAP:
        raise ValueError(f"n must be in 4..{HARDY_WRIGHT_CAP}, got {n}")
    total = -1
    for j in range(3, n + 1):
        f = math.factorial(j - 2)
        total += f - j * (f // j)
    return total


def semiprime_count(x: int, tables: SieveTables) -> int:
    """Number of semiprimes p*q <= x (p <= q, both prime)."""
    return _semiprime_count(x, tables, smallest=2)


def odd_semiprime_count(x: int, tables: SieveTables) -> int:
    """Number of odd semiprimes p*q <= x (3 <= p <= q, both prime)."""
    return _semiprime_count(x, tables, smallest=3)


def _semiprime_count(x: int, tables: SieveTables, smallest: int) -> int:
    # Each prime p <= sqrt(x) contributes the primes q with p <= q <= x/p,
    # which is pi(x // p) - pi(p) + 1; the tie p*p = x is included.
    if x < 0:
        return 0
    if x > tables.limit:
        raise LimitExceededError(f"semiprime count at {x} beyond {tables.limit}")
    lo = int(np.searchsorted(tables.primes, smallest, side="left"))
    hi = int(np.searchsorted(tables.primes, math.isqrt(x), side="right"))
    ps = tables.primes[lo:hi]
    if ps.size == 0:
        return 0
    counts = tables.pi_prefix[x // ps] - tables.pi_prefix[ps] + 1
    return int(counts.sum(dtype=np.int64))


def odd_semiprime_flags(tables: SieveTables, limit: int | None = None) -> np.ndarray:
    """Boolean table marking the odd semiprimes up to ``limit``."""
    if limit is None:
        limit = tables.limit
    elif limit > tables.limit:
        raise LimitExceededError(f"need a sieve up to {limit}, have {tables.limit}")
    flags = np.zeros(limit + 1, dtype=bool)
    primes = tables.primes
    small = primes[(primes >= 3) & (primes * primes <= limit)]
    for p in small.tolist():
        qs = primes[(primes >= p) & (primes <= limit // p)]
        flags[p * qs] = True
    return flags


def odd_square_count(x: int) -> int:
    """#{odd k >= 1 : k*k <= x} = floor((isqrt(x)+1)/2)."""
    return 0 if x < 0 else (math.isqrt(x) + 1) // 2


def even_square_count(x: int) -> int:
    """#{even k >= 0 : k*k <= x} = floor(isqrt(x)/2) + 1; counts 0."""
    return 0 if x < 0 else math.isqrt(x) // 2 + 1


def pronic_count(x: int) -> int:
    """#{j >= 0 : j*(j+1) <= x} = floor((1+isqrt(4x+1))/2); counts 0."""
    return 0 if x < 0 else (1 + math.isqrt(4 * x + 1)) // 2


def make_sequence(
    kind: SequenceKind,
    limit: int,
    *,
    terms=None,
    parity: Parity | None = None,
    tables: SieveTables | None = None,
) -> ParitySequence:
    """Materialize one of the built-in sequence kinds up to ``limit``.

    ``terms`` (plus ``parity`` when the list is empty) applies only to
    CUSTOM.  Prime-backed kinds accept shared SieveTables via ``tables``;
    otherwise a sieve is built on the fly.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if kind is SequenceKind.CUSTOM:
        if terms is None:
            raise SequenceFormatError("a custom sequence needs an explicit term list")
        return _custom_sequence(list(terms), parity, limit)
    if terms is not None:
        raise SequenceFormatError(f"terms are only accepted for CUSTOM, not {kind.value}")

    if kind is SequenceKind.ALL_ODD:
        return ParitySequence(range(1, limit + 1, 2), Parity.ODD, limit)
    if kind is SequenceKind.ALL_EVEN:
        return ParitySequence(range(0, limit + 1, 2), Parity.EVEN, limit)
    if kind is SequenceKind.ODD_SQUARES:
        return ParitySequence(squares_upto(limit, start=1), Parity.ODD, limit)
    if kind is SequenceKind.EVEN_SQUARES:
        return ParitySequence(squares_upto(limit, start=0), Parity.EVEN, limit)
    if kind is SequenceKind.PRONIC:
        return ParitySequence(pronics_upto(limit), Parity.EVEN, limit)

    tables = ensure_tables(tables, limit)
    primes = tables.primes[tables.primes <= limit]
    if kind is SequenceKind.ODD_PRIMES:
        return ParitySequence(primes[primes != 2].tolist(), Parity.ODD, limit)
    if kind is SequenceKind.PRIMES:
        return ParitySequence(primes.tolist(), Parity.MIXED, limit)
    if kind is SequenceKind.DOUBLED_PRIMES:
        doubled = 2 * tables.primes[tables.primes <= limit // 2]
        return ParitySequence(doubled.tolist(), Parity.EVEN, limit)
    if kind is SequenceKind.PRIME_OR_ODD_SEMIPRIME:
        flags = odd_semiprime_flags(tables, limit)
        odd_primes = primes[primes != 2]
        if odd_primes.size:
            flags = flags.copy()
            flags[odd_primes] = True
        return ParitySequence(np.flatnonzero(flags).tolist(), Parity.ODD, limit)
    raise ValueError(f"unknown sequence kind {kind!r}")


def ensure_tables(tables: SieveTables | None, limit: int) -> SieveTables:
    """Return sieve tables covering ``limit``, building them if needed."""
    if tables is None:
        return build_sieve(limit)
    if tables.limit < limit:
        raise LimitExceededError(
            f"tables cover {tables.limit} but {limit} is required"
        )
    return tables


def squares_upto(limit: int, start: int) -> np.ndarray:
    """The squares k*k <= limit for k = start, start+2, ... (int64)."""
    roots = np.arange(start, math.isqrt(limit) + 1, 2, dtype=np.int64)
    return roots * roots


def pronics_upto(limit: int) -> np.ndarray:
    """The pronic numbers j*(j+1) <= limit for j >= 0 (int64)."""
    j = np.arange(pronic_count(limit), dtype=np.int64)
    return j * (j + 1)


def _custom_sequence(terms: list[int], parity: Parity | None, limit: int) -> ParitySequence:
    inferred = {t % 2 for t in terms}
    if len(inferred) > 1:
        raise SequenceFormatError("custom sequence mixes odd and even terms")
    if terms:
        term_parity = Parity.ODD if inferred.pop() == 1 else Parity.EVEN
        if parity is not None and parity is not term_parity:
            raise ParityMismatchError(
                f"terms are {term_parity.value} but parity {parity.value} was declared"
            )
        parity = term_parity
    elif parity is None:
        raise SequenceFormatError("an empty custom sequence needs an explicit parity")
    return ParitySequence(terms, parity, limit)


def intersect(a: ParitySequence, b: ParitySequence) -> ParitySequence:
    """Merge-intersection of two sequences of the same parity and limit."""
    if a.parity is not b.parity:
        raise ParityMismatchError(
            f"cannot intersect {a.parity.value} with {b.parity.value}"
        )
    if a.limit != b.limit:
        raise LimitMismatchError(f"limits differ: {a.limit} vs {b.limit}")
    common = np.intersect1d(a.term_array, b.term_array)
    return ParitySequence(common.tolist(), a.parity, a.limit)


def load_sequence(path, limit: int | None = None) -> ParitySequence:
    """Load a sequence from a text file.

    Format: a header line ``parity: odd`` or ``parity: even``, then one
    integer per line in strictly increasing order.  Blank lines and lines
    starting with ``#`` are ignored.  When ``limit`` is given, terms beyond
    it are dropped; otherwise the limit is the last term.
    """
    path = Path(path)
    parity = None
    terms: list[int] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if parity is None:
            key, _, value = line.partition(":")
            if key.strip().lower() != "parity":
                raise SequenceFormatError(
                    f"{path}:{lineno}: expected 'parity: odd|even' header"
                )
            value = value.strip().lower()
            if value not in ("odd", "even"):
                raise SequenceFormatError(f"{path}:{lineno}: bad parity {value!r}")
            parity = Parity(value)
            continue
        try:
            terms.append(int(line))
        except ValueError:
            raise SequenceFormatError(
                f"{path}:{lineno}: not an integer: {line!r}"
            ) from None
    if parity is None:
        raise SequenceFormatError(f"{path}: missing 'parity:' header")
    if limit is None:
        limit = terms[-1] if terms else 0
    else:
        terms = [t for t in terms if t <= limit]
    return ParitySequence(terms, parity, limit)
