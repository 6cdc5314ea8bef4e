"""Increasing integer sequences with exact counting functions.

A ParitySequence materializes every term of a sequence up to a stated
limit and answers counting queries S(x) = #{terms <= x} by binary search
over its terms.  The ``terms`` are its only data: one read-only int64
array, validated when the sequence is built by exact numpy comparisons
over each block of terms.  The built-in kinds cover everything the
bundled counting problems need (odd primes, primes together with odd
semiprimes, all primes, doubled primes, odd and even squares, pronic
numbers, the full parity classes); arbitrary sequences can be passed as
explicit term lists or arrays, or loaded from a small text format.  A file
whose body is plain, one term of 1 to 18 ASCII digits per ``\n``-ended
line, is parsed as fixed-width digit blocks from the byte its header ends
at; every other form goes through numpy's parser, with the same errors.

SieveTables holds the sorted primes up to its limit and answers the
prime counting function pi(x) by binary search; semiprime counting
helpers sit on top of it.  build_sieve finds the primes with one byte of
scratch flags per odd number up to the limit, cleared one cache-sized
block at a time, which it drops once the primes are listed; the primes
together with the odd semiprimes are marked in flags of the same shape.
Dense prefix tables of S(x) are built only by the recursion, the one
reader that needs them (``recursion.py``).

All objects here are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import enum
import math
import operator
import re
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

# The default of the one table limit, the CLI's --limit (see check_table_budget).
# Sequences store only their terms, so they take any limit.
DEFAULT_TABLE_CAP = 50_000_000

# Terms are validated this many at a time (see _check_terms).
_CHECK_BLOCK = 1 << 16

# A plain sequence file is read at most this many bytes at a time, at least
# one whole line, and its lines hold at most this many digits, which any int64
# holds (see _plain_terms).
_PARSE_BLOCK = 1 << 18
_PLAIN_DIGITS = 18

# The sieve clears this many flags (512 kB) at a time, a block that stays in
# a core's L2 cache (see _odd_prime_flags).
_SIEVE_BLOCK = 1 << 19

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
        _check_limit(limit)
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


def check_table_budget(needed: int, cap: int) -> None:
    """Raise ResourceBudgetError when tables up to ``needed`` pass ``cap``.

    The one table budget, checked before anything is allocated: by
    build_sieve for its limit, and by the CLI under ``--limit`` for each
    run's last target (a custom pair's before either file is read).
    """
    if needed > cap:
        raise ResourceBudgetError(
            f"run needs tables up to {needed}, above the --limit cap {cap}"
        )


def _check_limit(limit) -> None:
    if not isinstance(limit, (int, np.integer)) or limit < 0:
        raise ValueError(f"limit must be a nonnegative integer, got {limit!r}")


def _term_array(terms) -> np.ndarray:
    """The terms as a one-dimensional integer array; arrays pass through."""
    if not isinstance(terms, np.ndarray):
        try:  # operator.index refuses what np.fromiter would truncate, 1.5 say
            terms = np.fromiter(map(operator.index, terms), dtype=np.int64)
        except (TypeError, OverflowError):
            raise SequenceFormatError("terms must be a flat sequence of int64 integers") from None
    if terms.ndim != 1 or terms.dtype.kind not in "iu":
        raise SequenceFormatError("terms must be a flat sequence of integers")
    return terms


def _check_terms(terms: np.ndarray, parity: Parity, limit: int) -> None:
    """Raise for the first term that breaks the ParitySequence contract.

    The terms are checked a block of _CHECK_BLOCK at a time, each block
    starting one term early so that its comparisons include the pair
    across the boundary.  A block is sound when 0 <= its first term, its
    last term <= min(limit, int64 max), each term is greater than the one
    before and, for an odd or even sequence, the bitwise and (odd) or or
    (even) of its terms has the right low bit.  The tests compare terms in
    their own dtype and subtract none, so none can wrap.  Only a block that
    fails is scanned term by term, so the error names the first bad term
    whatever the block size.  The temporaries stay a few hundred kB.
    """
    top = min(limit, np.iinfo(np.int64).max)  # terms are kept as int64
    want = None if parity is Parity.MIXED else int(parity is Parity.ODD)
    reduce = np.bitwise_and.reduce if want else np.bitwise_or.reduce
    for start in range(0, len(terms), _CHECK_BLOCK):
        lo = max(start - 1, 0)
        block = terms[lo : start + _CHECK_BLOCK]
        if (0 <= int(block[0]) and int(block[-1]) <= top and (block[1:] > block[:-1]).all()
                and (want is None or int(reduce(block)) & 1 == want)):
            continue
        bad = (block < 0) | (block > top)
        bad[1:] |= block[1:] <= block[:-1]
        if want is not None:
            bad |= (block & 1) != want
        i = lo + int(bad.argmax())
        break
    else:
        return
    t = int(terms[i])
    if t < 0:
        raise SequenceFormatError(f"negative term {t}")
    if i and t <= terms[i - 1]:
        raise SequenceFormatError(
            f"terms must be strictly increasing, got {t} after {int(terms[i - 1])}"
        )
    if t > limit:
        raise LimitExceededError(f"term {t} lies beyond limit {limit}")
    if t > top:
        raise SequenceFormatError(f"term {t} beyond int64")
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
    """Sieve of Eratosthenes over the odd numbers: the primes up to ``limit``.

    The scratch flags hold one byte per odd number, (limit + 1) // 2 in
    all, and are dropped once the primes are listed (see _odd_prime_flags).
    The flag of 1, which is no prime, stands in for 2.
    """
    check_table_budget(limit, cap)
    _check_limit(limit)
    flags = _odd_prime_flags(limit)
    flags[:1] = limit >= 2
    primes = _flagged_odd_numbers(flags)
    primes[:1] = 2
    primes.flags.writeable = False  # prime sequences keep views of primes
    return SieveTables(limit, primes)


def _odd_prime_flags(limit: int) -> np.ndarray:
    """flags[i] is True when 2i + 1 <= limit is an odd prime.

    The odd primes p up to sqrt(limit) come from the same sieve run to
    sqrt(limit).  They clear their odd multiples, a stride of p in the
    flags from p*p on, one block of _SIEVE_BLOCK flags at a time, so the
    flags a block clears stay in cache while every p passes over them.
    """
    flags = np.ones((limit + 1) // 2, dtype=bool)
    flags[:1] = False
    root = math.isqrt(limit)
    base = _flagged_odd_numbers(_odd_prime_flags(root)).tolist() if root >= 3 else []
    for lo in range(0, len(flags), _SIEVE_BLOCK):
        hi = lo + _SIEVE_BLOCK
        for p in base:
            first = p * p // 2
            if first >= hi:
                break
            # The odd multiples of p sit at the flags i with i % p == p // 2.
            flags[max(first, lo + (p // 2 - lo) % p) : hi : p] = False
    return flags


def _flagged_odd_numbers(flags: np.ndarray) -> np.ndarray:
    """2i + 1 for every set flags[i], as a fresh int64 array."""
    # flatnonzero gives a fresh array, int64 on 64-bit hosts: map it in place.
    odd = np.flatnonzero(flags).astype(np.int64, copy=False)
    odd *= 2
    odd += 1
    return odd


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
    if x < 0:
        return 0
    if x > tables.limit:
        raise LimitExceededError(f"semiprime count at {x} beyond {tables.limit}")
    _, starts, ends = _semiprime_ranges(tables.primes, x, smallest)
    return int((ends - starts).sum(dtype=np.int64))


def _semiprime_ranges(
    primes: np.ndarray, x: int, smallest: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The semiprimes p*q <= x with smallest <= p <= q, both prime, by p.

    Returns (ps, starts, ends): each prime p in ps, from ``smallest`` up to
    sqrt(x), pairs with the primes q in primes[start:end], those from p up
    to x // p; the tie p*p = x is included.  With p = primes[i], start is
    i, so end - start is pi(x // p) - pi(p) + 1.  ``primes`` must hold
    every prime up to x // smallest.
    """
    lo = int(primes.searchsorted(smallest))
    hi = int(primes.searchsorted(math.isqrt(x), side="right"))
    ps = primes[lo:hi]
    return ps, np.arange(lo, hi), primes.searchsorted(x // ps, side="right")


def _mark_odd_semiprimes(halves: np.ndarray, tables: SieveTables, limit: int) -> None:
    """Set halves[t // 2] for every odd semiprime t <= limit.

    ``halves`` holds one flag per odd number up to ``limit``, (limit + 1)
    // 2 in all.  The tables must cover ``limit``.
    """
    primes = tables.primes
    ps, starts, ends = _semiprime_ranges(primes, limit, 3)
    for p, start, end in zip(ps.tolist(), starts.tolist(), ends.tolist()):
        halves[(p * primes[start:end]) >> 1] = True


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
    if not isinstance(kind, SequenceKind):
        raise ValueError(f"unknown sequence kind {kind!r}")
    _check_limit(limit)
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
    halves = np.zeros((limit + 1) // 2, dtype=bool)  # PRIME_OR_ODD_SEMIPRIME
    _mark_odd_semiprimes(halves, tables, limit)
    halves[odd_primes >> 1] = True
    return ParitySequence(_flagged_odd_numbers(halves), Parity.ODD, limit)


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
    if not terms.size:
        if parity is None:
            raise SequenceFormatError("an empty custom sequence needs an explicit parity")
        return ParitySequence(terms, parity, limit)
    # The first term sets the parity; the term check holds the rest to it.
    term_parity = Parity.ODD if terms[0] % 2 else Parity.EVEN
    try:
        seq = ParitySequence(terms, term_parity, limit)
    except ParityMismatchError:
        raise SequenceFormatError("custom sequence mixes odd and even terms") from None
    if parity is not None and parity is not term_parity:
        raise ParityMismatchError(
            f"terms are {term_parity.value} but parity {parity.value} was declared"
        )
    return seq


def shared_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The terms of sorted ``a`` that sorted ``b`` holds too: ``a`` or ``b``
    itself, not a copy, when it lies in the other, so callers can tell by identity."""
    # np.isin rather than np.intersect1d, which imports numpy.ma.
    held = np.isin(a, b, assume_unique=True)
    return a if held.all() else b if np.count_nonzero(held) == len(b) else a[held]


def intersect(a: ParitySequence, b: ParitySequence) -> ParitySequence:
    """The terms two sequences of the same parity and limit share: ``a`` or
    ``b`` itself when it lies in the other, else a new sequence."""
    if a.parity is not b.parity:
        raise ParityMismatchError(
            f"cannot intersect {a.parity.value} with {b.parity.value}"
        )
    if a.limit != b.limit:
        raise LimitMismatchError(f"limits differ: {a.limit} vs {b.limit}")
    common = shared_terms(a.terms, b.terms)
    if common is b.terms:
        return b
    return a if common is a.terms else ParitySequence(common, a.parity, a.limit)


def load_sequence(path, limit: int | None = None) -> ParitySequence:
    """Load a sequence from a text file.

    Format: a header line ``parity: odd`` or ``parity: even``, then one
    integer per line in strictly increasing order.  Blank lines and text
    after ``#`` are ignored.  When ``limit`` is given, terms beyond it are
    dropped once every term of the file has passed the order and parity
    checks; otherwise the limit is the largest term (0 when no term is
    positive).

    A plain body, every line after the header 1 to 18 ASCII digits ending
    in ``\n``, is parsed in blocks straight from the file's bytes (see
    _plain_terms), whatever ends the header's lines.  Any other body
    (comments, blank lines, spaces or tabs, CR, signs, 19 or more digits,
    no final newline) is read by ``np.loadtxt``; both give the same terms,
    and the same error for a bad line.
    """
    path = Path(path)
    # Lines end at \n, \r\n or a lone \r, as in np.loadtxt, and keep their ends,
    # so their bytes sum to the body's offset (text-mode tell() gives none).
    start = 0
    with path.open(newline="") as fh:
        for lineno, raw in enumerate(fh, 1):
            start += len(raw.encode(fh.encoding))
            line = raw.partition("#")[0].strip()
            if line:
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
    terms = _plain_terms(path, start)
    if terms is None:
        terms = _loadtxt_terms(path, lineno)
    parity = Parity(value)
    if limit is None:
        limit = max(int(terms.max()), 0) if terms.size else 0
    else:
        # Each term is checked once, so a fault past the limit is not hidden:
        # the kept prefix by the constructor, the dropped rest, with the pair
        # across the cut, here.  A binary search gives terms[k - 1] <= limit
        # < terms[k] in any array, so a kept term past the limit means an
        # order fault before the cut, which a check without a limit names.
        k = int(terms.searchsorted(limit, side="right"))
        try:
            seq = ParitySequence(terms[:k], parity, limit)
        except LimitExceededError:
            _check_terms(terms[:k], parity, np.iinfo(np.int64).max)
            raise
        _check_terms(terms[max(k - 1, 0):], parity, np.iinfo(np.int64).max)
        return seq
    return ParitySequence(terms, parity, limit)


def _plain_terms(path: Path, start: int) -> np.ndarray | None:
    """The terms of a plain body, or None when the body is in any other form.

    The body starts at byte ``start``.  It is plain when every line is 1 to
    _PLAIN_DIGITS ASCII digits ending in ``\n``.  The body is read twice
    into one reused buffer of its own size, kept between one whole line and
    _PARSE_BLOCK bytes: once to count its newlines, which sizes the result,
    and once to parse it.  Consecutive lines of one width w make a run, an
    (m, w + 1) uint8 view of the buffer; sorted terms without leading zeros
    make at most _PLAIN_DIGITS runs in a block, and a block with more sends
    the body to the general parser.  A run's bytes less ord("0") go into one
    reused scratch buffer, with each row's last value set to 0 once its byte
    is checked to be a newline.  The rows count up to the first one without
    its newline or with a value of 10 or more, and their digit columns are
    summed by Horner's rule straight into the result.  A bad row ends the
    run and starts the next one.  The part of a line left at a block's end
    moves to the buffer's front, and the next block is read after it.
    """
    with path.open("rb") as fh:
        fh.seek(start)
        block = min(max(path.stat().st_size - start, _PLAIN_DIGITS + 2), _PARSE_BLOCK)
        buf = bytearray(block)
        data = np.frombuffer(buf, dtype=np.uint8)
        scratch = np.empty(block, dtype=np.uint8)
        newlines = 0
        while size := fh.readinto(buf):
            newlines += np.count_nonzero(np.equal(data[:size], 10, out=scratch[:size].view(bool)))
        terms = np.empty(newlines, dtype=np.int64)
        fh.seek(start)
        held = row = 0  # bytes of a part line at the front of the buffer; terms parsed
        while True:
            size = fh.readinto(memoryview(buf)[held:])
            end, pos = held + size, 0
            for _ in range(_PLAIN_DIGITS + 1):  # the last pass finds no whole line
                width = buf.find(b"\n", pos, end) - pos  # negative when none is left
                if width < 0:
                    break
                if not 0 < width <= _PLAIN_DIGITS:
                    return None
                m = (end - pos) // (width + 1)
                lines = data[pos : pos + m * (width + 1)].reshape(m, width + 1)
                values = np.subtract(lines, 48, out=scratch[: lines.size].reshape(lines.shape))
                ends = _first(lines[:, width] != 10)
                values[:, width] = 0
                sound = min(ends, _first(values.ravel() >= 10) // (width + 1))
                if not sound:
                    return None
                out = terms[row : row + sound]
                np.copyto(out, values[:sound, 0])
                for column in range(1, width):
                    out *= 10
                    out += values[:sound, column]
                row += sound
                pos += sound * (width + 1)
            else:
                return None
            held = end - pos  # a body ends with a whole line, and no line is longer
            if not size or held > _PLAIN_DIGITS:
                return None if held else terms
            data[:held] = data[pos:end]


def _first(flags: np.ndarray) -> int:
    """The index of the first True in ``flags``, or its length when none is."""
    i = int(flags.argmax())
    return i if flags[i] else len(flags)


def _loadtxt_terms(path: Path, header_lineno: int) -> np.ndarray:
    """The terms of any body by numpy's text parser; raises for a bad line."""
    # Given the path rather than the open handle, numpy parses the file in C;
    # it skips the same lines the header scan read.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file with no terms
        try:
            rows = np.loadtxt(
                path, dtype=np.int64, comments="#", ndmin=2, skiprows=header_lineno
            )
        except ValueError:
            rows = None
    if rows is None or rows.shape[1] != 1:
        raise _bad_term_line(path, header_lineno)
    return rows.ravel()


def _bad_term_line(path: Path, header_lineno: int) -> SequenceFormatError:
    """The error naming the first line after the header that is not one integer.

    A line is judged as numpy's parser reads it: after its comment and the
    whitespace around it are stripped, it must be empty or an optional
    sign and ASCII digits, of a value in int64's range.  Lines end where
    text mode ends them.
    """
    lines = path.read_text().split("\n")[header_lineno:]
    for lineno, raw in enumerate(lines, header_lineno + 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if not re.fullmatch(r"[+-]?[0-9]+", line):
            return SequenceFormatError(f"{path}:{lineno}: not an integer: {line!r}")
        # The magnitude's length first: int() refuses very long digit strings.
        magnitude = line.lstrip("+-").lstrip("0") or "0"
        bound = 2**63 + 1 if line[0] == "-" else 2**63
        if len(magnitude) > 19 or int(magnitude) >= bound:
            return SequenceFormatError(f"{path}:{lineno}: beyond int64: {line!r}")
    return SequenceFormatError(f"{path}: expected one int64 integer per line")
