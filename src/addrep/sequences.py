"""Increasing integer sequences with exact counting functions.

A ParitySequence materializes every term of a sequence up to a stated
limit and answers counting queries S(x) = #{terms <= x} by binary search
over its terms.  The ``terms`` are its only data: one read-only int64
array, validated with numpy when the sequence is built.  The built-in
kinds cover everything the bundled counting problems need (odd primes,
primes together with odd semiprimes, all primes, doubled primes, odd and
even squares, pronic numbers, the full parity classes); arbitrary
sequences can be passed as explicit term lists or arrays, or loaded from
a small text format.

SieveTables holds the sorted primes up to its limit and answers the
prime counting function pi(x) by binary search; semiprime counting
helpers sit on top of it.  Dense prefix tables of S(x) are built only by
the recursion, the one reader that needs them (``recursion.py``).

All objects here are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
import warnings
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

# The recursion's tables hold int32 counts over 0..limit, so limits stay below 2**31.
COUNT_TABLE_LIMIT = 2**31

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

    ``terms`` is the only store of the terms: one read-only int64 array.
    An int64 array passed in is kept as a read-only view, not copied.
    Counting and membership are binary searches over it.
    """

    __slots__ = ("terms", "parity", "limit")

    def __init__(self, terms, parity: Parity, limit: int):
        _check_table_limit(limit)
        terms = _term_array(terms)
        _check_terms(terms, parity, limit)
        self.terms = terms.astype(np.int64, copy=False).view()
        self.terms.flags.writeable = False
        self.parity = parity
        self.limit = limit

    def counting(self, x: int) -> int:
        """Number of terms <= x.  Defined for x <= limit; negative x count 0."""
        if x < 0:
            return 0
        if x > self.limit:
            raise LimitExceededError(f"counting({x}) beyond limit {self.limit}")
        return int(self.terms.searchsorted(x, side="right"))

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.limit:
            raise LimitExceededError(f"membership of {x} unknown beyond {self.limit}")
        i = int(self.terms.searchsorted(x))
        return i < len(self.terms) and int(self.terms[i]) == x

    __contains__ = contains

    def is_subset_of(self, other: "ParitySequence") -> bool:
        if self.limit > other.limit:
            raise LimitMismatchError(
                "subset scan needs the other sequence known at least as far"
            )
        return bool(np.isin(self.terms, other.terms, assume_unique=True).all())

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParitySequence):
            return NotImplemented
        return (
            self.parity is other.parity
            and self.limit == other.limit
            and np.array_equal(self.terms, other.terms)
        )

    def __hash__(self):
        return hash((self.parity, self.limit, self.terms.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(map(str, self.terms[:6].tolist()))
        tail = ", ..." if len(self.terms) > 6 else ""
        return (
            f"ParitySequence([{head}{tail}] ({len(self.terms)} terms), "
            f"{self.parity.value}, limit={self.limit})"
        )


def _check_table_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit >= COUNT_TABLE_LIMIT:
        raise ResourceBudgetError(
            f"limit {limit} does not fit int32 count tables (< {COUNT_TABLE_LIMIT})"
        )


def _term_array(terms) -> np.ndarray:
    """The terms as a one-dimensional integer array; arrays pass through."""
    if not isinstance(terms, np.ndarray):
        terms = np.fromiter(terms, dtype=np.int64)
    if terms.ndim != 1 or terms.dtype.kind not in "iu":
        raise SequenceFormatError("terms must be a flat sequence of integers")
    return terms


def _check_terms(terms: np.ndarray, parity: Parity, limit: int) -> None:
    """Raise for the first term that breaks the ParitySequence contract."""
    bad = (terms < 0) | (terms > limit)
    bad[1:] |= terms[1:] <= terms[:-1]
    if parity is not Parity.MIXED:
        bad |= terms % 2 != (1 if parity is Parity.ODD else 0)
    if not bad.any():
        return
    i = int(bad.argmax())
    t = int(terms[i])
    if t < 0:
        raise SequenceFormatError(f"negative term {t}")
    if i and t <= terms[i - 1]:
        raise SequenceFormatError(
            f"terms must be strictly increasing, got {t} after {int(terms[i - 1])}"
        )
    if t > limit:
        raise LimitExceededError(f"term {t} lies beyond limit {limit}")
    other = "even" if parity is Parity.ODD else "odd"
    raise ParityMismatchError(f"{other} term {t} in an {parity.value} sequence")


class SieveTables:
    """The primes up to ``limit``, one sorted read-only int64 array; no table."""

    __slots__ = ("limit", "primes")

    def __init__(self, limit, primes):
        self.limit = limit
        self.primes = primes

    def pi(self, x: int) -> int:
        """pi(x), the number of primes <= x."""
        if x < 0:
            return 0
        if x > self.limit:
            raise LimitExceededError(f"pi({x}) beyond sieve limit {self.limit}")
        return int(self.primes.searchsorted(x, side="right"))

    def pi_odd(self, x: int) -> int:
        """Number of odd primes <= x."""
        return self.pi(x) - (1 if x >= 2 else 0)


def build_sieve(limit: int, cap: int = DEFAULT_TABLE_CAP) -> SieveTables:
    """Sieve of Eratosthenes: the primes up to ``limit``."""
    if limit > cap:
        raise ResourceBudgetError(f"sieve limit {limit} exceeds the cap {cap}")
    _check_table_limit(limit)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    # flatnonzero already gives int64 on 64-bit hosts: no second copy.
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes.flags.writeable = False  # prime sequences keep views of primes
    return SieveTables(limit, primes)


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
    # which is pi(x // p) - pi(p) + 1; the tie p*p = x is included.  With
    # p = primes[i], pi(p) = i + 1, so that is pi(x // p) - i.
    if x < 0:
        return 0
    if x > tables.limit:
        raise LimitExceededError(f"semiprime count at {x} beyond {tables.limit}")
    primes = tables.primes
    lo = int(primes.searchsorted(smallest))
    hi = int(primes.searchsorted(math.isqrt(x), side="right"))
    counts = primes.searchsorted(x // primes[lo:hi], side="right") - np.arange(lo, hi)
    return int(counts.sum(dtype=np.int64))


def odd_semiprime_flags(tables: SieveTables, limit: int | None = None) -> np.ndarray:
    """Boolean table marking the odd semiprimes up to ``limit``."""
    if limit is None:
        limit = tables.limit
    elif limit > tables.limit:
        raise LimitExceededError(f"need a sieve up to {limit}, have {tables.limit}")
    flags = np.zeros(limit + 1, dtype=bool)
    primes = tables.primes
    # p runs over the odd primes up to sqrt(limit), q over primes[i:end],
    # the primes from p up to limit // p.
    lo = int(np.searchsorted(primes, 3))
    hi = int(np.searchsorted(primes, math.isqrt(limit), side="right"))
    ends = np.searchsorted(primes, limit // primes[lo:hi], side="right")
    for i, (p, end) in enumerate(zip(primes[lo:hi].tolist(), ends.tolist()), lo):
        flags[p * primes[i:end]] = True
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
        return _custom_sequence(terms, parity, limit)
    if terms is not None:
        raise SequenceFormatError(f"terms are only accepted for CUSTOM, not {kind.value}")

    if kind is SequenceKind.ALL_ODD:
        return ParitySequence(np.arange(1, limit + 1, 2), Parity.ODD, limit)
    if kind is SequenceKind.ALL_EVEN:
        return ParitySequence(np.arange(0, limit + 1, 2), Parity.EVEN, limit)
    if kind is SequenceKind.ODD_SQUARES:
        return ParitySequence(squares_upto(limit, start=1), Parity.ODD, limit)
    if kind is SequenceKind.EVEN_SQUARES:
        return ParitySequence(squares_upto(limit, start=0), Parity.EVEN, limit)
    if kind is SequenceKind.PRONIC:
        return ParitySequence(pronics_upto(limit), Parity.EVEN, limit)

    tables = ensure_tables(tables, limit)
    primes = tables.primes[: np.searchsorted(tables.primes, limit, side="right")]
    odd_primes = primes[1:]  # primes[0] is 2 whenever any prime exists
    if kind is SequenceKind.ODD_PRIMES:
        return ParitySequence(odd_primes, Parity.ODD, limit)
    if kind is SequenceKind.PRIMES:
        return ParitySequence(primes, Parity.MIXED, limit)
    if kind is SequenceKind.DOUBLED_PRIMES:
        halves = primes[: np.searchsorted(primes, limit // 2, side="right")]
        return ParitySequence(2 * halves, Parity.EVEN, limit)
    if kind is SequenceKind.PRIME_OR_ODD_SEMIPRIME:
        flags = odd_semiprime_flags(tables, limit)
        flags[odd_primes] = True
        return ParitySequence(np.flatnonzero(flags), Parity.ODD, limit)
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


def _custom_sequence(terms, parity: Parity | None, limit: int) -> ParitySequence:
    terms = _term_array(terms)
    if terms.size:
        odd = terms % 2 == 1
        if (odd != odd[0]).any():
            raise SequenceFormatError("custom sequence mixes odd and even terms")
        term_parity = Parity.ODD if odd[0] else Parity.EVEN
        if parity is not None and parity is not term_parity:
            raise ParityMismatchError(
                f"terms are {term_parity.value} but parity {parity.value} was declared"
            )
        parity = term_parity
    elif parity is None:
        raise SequenceFormatError("an empty custom sequence needs an explicit parity")
    return ParitySequence(terms, parity, limit)


def intersect(a: ParitySequence, b: ParitySequence) -> ParitySequence:
    """The terms two sequences of the same parity and limit share."""
    if a.parity is not b.parity:
        raise ParityMismatchError(
            f"cannot intersect {a.parity.value} with {b.parity.value}"
        )
    if a.limit != b.limit:
        raise LimitMismatchError(f"limits differ: {a.limit} vs {b.limit}")
    # np.isin rather than np.intersect1d, which imports numpy.ma.
    common = a.terms[np.isin(a.terms, b.terms, assume_unique=True)]
    return ParitySequence(common, a.parity, a.limit)


def load_sequence(path, limit: int | None = None) -> ParitySequence:
    """Load a sequence from a text file.

    Format: a header line ``parity: odd`` or ``parity: even``, then one
    integer per line in strictly increasing order.  Blank lines and text
    after ``#`` are ignored.  When ``limit`` is given, terms beyond it are
    dropped; otherwise the limit is the last term.
    """
    path = Path(path)
    with path.open() as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                break
        else:
            raise SequenceFormatError(f"{path}: missing 'parity:' header")
        key, _, value = line.partition(":")
        if key.strip().lower() != "parity":
            raise SequenceFormatError(
                f"{path}:{lineno}: expected 'parity: odd|even' header"
            )
        value = value.strip().lower()
        if value not in ("odd", "even"):
            raise SequenceFormatError(f"{path}:{lineno}: bad parity {value!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no terms
            try:
                rows = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
            except ValueError:
                rows = None
    if rows is None or rows.shape[1] != 1:
        raise _bad_term_line(path, lineno)
    terms = rows.ravel()
    if limit is None:
        limit = int(terms[-1]) if terms.size else 0
    else:
        terms = terms[terms <= limit]
    return ParitySequence(terms, Parity(value), limit)


def _bad_term_line(path: Path, header_lineno: int) -> SequenceFormatError:
    """The error naming the first line after the header that is not one integer."""
    lines = path.read_text().splitlines()[header_lineno:]
    for lineno, raw in enumerate(lines, header_lineno + 1):
        line = raw.partition("#")[0].strip()
        try:
            int(line or 0)
        except ValueError:
            return SequenceFormatError(f"{path}:{lineno}: not an integer: {line!r}")
    return SequenceFormatError(f"{path}: expected one int64 integer per line")
