import bisect
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from addrep import sequences
from addrep.errors import (
    AddrepError,
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
    ResourceBudgetError,
    SequenceFormatError,
)
from addrep.sequences import (
    HARDY_WRIGHT_CAP,
    Parity,
    ParitySequence,
    SequenceKind,
    SieveTables,
    build_sieve,
    even_square_count,
    intersect,
    load_sequence,
    make_sequence,
    odd_semiprime_count,
    odd_square_count,
    pi_hardy_wright,
    pronic_count,
    semiprime_count,
)
from conftest import (
    BOM_FILE,
    STRAY_BYTE_FILES,
    factor_count,
    trial_division_is_prime,
    trial_division_pi,
)


# --- sieve and pi ---------------------------------------------------------

def test_sieve_small_values():
    tables = build_sieve(10)
    assert tables.pi(10) == 4
    assert tables.pi(0) == 0
    assert tables.pi(-1) == 0
    assert build_sieve(0).pi(0) == 0


@pytest.mark.parametrize(
    "limit", [0, 1, 2, 3, 4, 9, 10, 24, 25, 26, 48, 49, 120, 121, 168, 169, 500]
)
def test_sieve_matches_trial_division(limit):
    # Limits 0..4 leave no prime, one prime or two: binary searches over
    # such arrays are where an off-by-one would show.  The others sit at
    # and next to the odd prime squares 9 ... 169, where a prime's first
    # cleared multiple p*p falls on, or just past, the last flag.
    tables = build_sieve(limit)
    semis = [n for n in range(limit + 1) if factor_count(n) == 2]
    for x in range(limit + 1):
        assert tables.pi(x) == trial_division_pi(x)
        assert tables.pi_odd(x) == trial_division_pi(x) - (x >= 2)
        assert semiprime_count(x, tables) == sum(1 for s in semis if s <= x)
        assert odd_semiprime_count(x, tables) == sum(1 for s in semis if s <= x and s % 2)
    for count in (tables.pi, tables.pi_odd):
        with pytest.raises(LimitExceededError):
            count(limit + 1)
    for count in (semiprime_count, odd_semiprime_count):
        with pytest.raises(LimitExceededError):
            count(limit + 1, tables)


def _plain_sieve(limit):
    """The primes up to limit from flags over every integer 0..limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def test_sieve_matches_a_plain_sieve():
    for limit in [*range(200), 10**6]:
        primes = build_sieve(limit).primes
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert np.array_equal(primes, _plain_sieve(limit)), limit
    assert len(primes) == 78_498


# Limits at and next to p*p for the first base primes: where a prime's
# first cleared multiple falls on, or just past, the last flag.
_SQUARE_LIMITS = [p * p + d for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for d in (-1, 0, 1)]


@pytest.mark.parametrize("block", [1, 2, 3, 64])
def test_blocked_sieve_matches_a_plain_sieve(monkeypatch, block):
    # Blocks this small make most base primes start past the first block,
    # and put p*p at many offsets within a block.
    monkeypatch.setattr(sequences, "_SIEVE_BLOCK", block)
    for limit in [*range(401), *_SQUARE_LIMITS]:
        assert np.array_equal(build_sieve(limit).primes, _plain_sieve(limit)), limit


def test_sieve_counts_the_primes_below_ten_million():
    assert len(build_sieve(10**7).primes) == 664_579


def test_sieve_keeps_only_its_primes():
    tracemalloc.start()
    try:
        tables = build_sieve(10**6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 78,498 int64 primes take 0.6 MB; flags or a pi table to 10^6 would
    # add 1 MB or 4 MB more.
    assert held < 2**20
    assert SieveTables.__slots__ == ("limit", "primes")
    assert len(tables.primes) == tables.pi(10**6) == 78_498


def test_pi_odd():
    tables = build_sieve(100)
    assert tables.pi_odd(100) == 24
    assert tables.pi_odd(2) == 0
    assert tables.pi_odd(3) == 1


def test_sieve_budget():
    with pytest.raises(ResourceBudgetError):
        build_sieve(1000, cap=100)


def test_pi_beyond_limit_raises():
    tables = build_sieve(10)
    with pytest.raises(LimitExceededError):
        tables.pi(11)


# --- Hardy-Wright formula -------------------------------------------------

def test_hardy_wright_small():
    tables = build_sieve(HARDY_WRIGHT_CAP)
    assert pi_hardy_wright(4) == tables.pi(4) == 2
    assert pi_hardy_wright(5) == tables.pi(5) == 3
    assert pi_hardy_wright(20) == tables.pi(20) == 8


def test_hardy_wright_full_range():
    tables = build_sieve(HARDY_WRIGHT_CAP)
    for n in range(4, HARDY_WRIGHT_CAP + 1):
        assert pi_hardy_wright(n) == tables.pi(n)


@pytest.mark.parametrize("n", [3, 0, HARDY_WRIGHT_CAP + 1])
def test_hardy_wright_out_of_range(n):
    with pytest.raises(ValueError):
        pi_hardy_wright(n)


# --- semiprime counting ---------------------------------------------------

def test_semiprime_count_examples():
    tables = build_sieve(100)
    assert semiprime_count(10, tables) == 4  # 4, 6, 9, 10
    assert semiprime_count(3, tables) == 0
    assert semiprime_count(-1, tables) == 0
    assert semiprime_count(100, tables) == 34


def test_odd_semiprime_count_examples():
    tables = build_sieve(100)
    assert odd_semiprime_count(15, tables) == 2  # 9, 15
    assert odd_semiprime_count(8, tables) == 0
    # 9, 15, 21, 25, 33, 35, 39, 49
    assert odd_semiprime_count(50, tables) == 8


def test_semiprime_counts_match_factorization():
    limit = 2000
    tables = build_sieve(limit)
    semis = [n for n in range(limit + 1) if factor_count(n) == 2]
    odd_semis = [n for n in semis if n % 2 == 1]
    for x in range(limit + 1):
        expect_all = sum(1 for s in semis if s <= x)
        expect_odd = sum(1 for s in odd_semis if s <= x)
        assert semiprime_count(x, tables) == expect_all
        assert odd_semiprime_count(x, tables) == expect_odd


def _odd_semiprimes(limit, tables):
    """The PRIME_OR_ODD_SEMIPRIME terms up to limit that are not prime."""
    seq = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, limit, tables=tables)
    return np.setdiff1d(seq.terms, tables.primes, assume_unique=True)


def test_odd_semiprime_terms_match_count():
    tables = build_sieve(3000)
    odd_semiprimes = _odd_semiprimes(3000, tables)
    for x in (0, 8, 9, 100, 1499, 3000):
        assert int(odd_semiprimes.searchsorted(x, side="right")) == odd_semiprime_count(x, tables)


@pytest.mark.parametrize("limit", [0, 9, 15, 25, 45, 49, 3000])
def test_odd_semiprime_terms_match_factorization(limit):
    # 9 = 3*3 and 25 = 5*5 sit on p*p == limit; at 15 and 45, limit // 3
    # is the prime 5 (and 15 = 3*5 itself); 49 = 7*7 needs the last small p.
    odd_semiprimes = _odd_semiprimes(limit, build_sieve(limit))
    expected = [n for n in range(limit + 1) if n % 2 == 1 and factor_count(n) == 2]
    assert odd_semiprimes.tolist() == expected


def test_prime_or_odd_semiprime_matches_factorization():
    top = 5000
    expected = [n for n in range(top + 1) if n % 2 and factor_count(n) in (1, 2)]
    shared = build_sieve(top)
    for limit in range(top + 1):
        want = expected[: bisect.bisect_right(expected, limit)]
        for tables in (None, shared):
            seq = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, limit, tables=tables)
            assert seq.terms.tolist() == want, limit


def test_prime_or_odd_semiprime_matches_an_omega_sieve():
    # Omega(n), the prime factors of n with multiplicity, counted by adding 1
    # at every multiple of every odd prime power; odd n have no factor 2.
    limit = 10**6
    tables = build_sieve(limit)
    omega = np.zeros(limit + 1, dtype=np.int8)
    for p in tables.primes[1:].tolist():
        power = p
        while power <= limit:
            omega[power::power] += 1
            power *= p
    odd = np.arange(1, limit + 1, 2)
    want = odd[(omega[odd] == 1) | (omega[odd] == 2)]
    seq = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, limit, tables=tables)
    assert np.array_equal(seq.terms, want)
    assert odd_semiprime_count(limit, tables) == np.count_nonzero(omega[want] == 2)


# --- ParitySequence basics ------------------------------------------------

def test_counting_and_membership():
    seq = ParitySequence([1, 5, 9], Parity.ODD, 10)
    assert [seq.counting(x) for x in (0, 1, 4, 5, 9, 10)] == [0, 1, 1, 2, 3, 3]
    assert 5 in seq and 3 not in seq
    assert seq.counting(-3) == 0
    assert not seq.contains(-1)
    assert (seq == 5) is False and seq != 5
    with pytest.raises(LimitExceededError):
        seq.counting(11)
    with pytest.raises(LimitExceededError):
        seq.contains(11)


def test_constructor_validation():
    with pytest.raises(SequenceFormatError):
        ParitySequence([3, 3], Parity.ODD, 10)  # duplicate
    with pytest.raises(SequenceFormatError):
        ParitySequence([5, 3], Parity.ODD, 10)  # decreasing
    with pytest.raises(ParityMismatchError):
        ParitySequence([2], Parity.ODD, 10)
    with pytest.raises(ParityMismatchError):
        ParitySequence([0], Parity.ODD, 10)  # zero counts as even
    with pytest.raises(LimitExceededError):
        ParitySequence([11], Parity.ODD, 10)
    assert ParitySequence([0], Parity.EVEN, 4).contains(0)


def _gen(values):
    yield from values


@pytest.mark.parametrize(
    "terms",
    [[1, 5, 9], range(1, 10, 4), _gen([1, 5, 9]), np.array([1, 5, 9]),
     np.array([1, 5, 9], dtype=np.uint16), (np.int64(1), 5, np.int32(9))],
    ids=["list", "range", "generator", "int64", "uint16", "mixed"],
)
def test_term_inputs_give_equal_sequences(terms):
    seq = ParitySequence(terms, Parity.ODD, 10)
    reference = ParitySequence([1, 5, 9], Parity.ODD, 10)
    assert seq == reference
    assert hash(seq) == hash(reference)
    assert seq.terms.dtype == np.int64
    assert seq.terms.tolist() == [1, 5, 9]


def test_terms_are_one_read_only_array():
    source = np.array([0, 4, 8])
    seq = ParitySequence(source, Parity.EVEN, 8)
    assert ParitySequence.__slots__ == ("terms", "parity", "limit")
    with pytest.raises(ValueError):
        seq.terms[0] = 2
    source[0] = 2  # the caller's array stays writable
    assert seq != ParitySequence([0, 4, 8], Parity.EVEN, 8)
    assert ParitySequence([], Parity.ODD, 5) != ParitySequence([], Parity.EVEN, 5)
    assert hash(ParitySequence([], Parity.ODD, 5)) == hash(
        ParitySequence(range(0), Parity.ODD, 5)
    )
    # Prime sequences are views of the sieve's primes, which stay read-only.
    tables = build_sieve(30)
    odd_primes = make_sequence(SequenceKind.ODD_PRIMES, 30, tables=tables)
    with pytest.raises(ValueError):
        tables.primes[1] = 4
    assert odd_primes.terms[0] == 3


@pytest.mark.parametrize(
    "terms, parity, limit, error, message",
    [
        ([-3, 1], Parity.ODD, 10, SequenceFormatError, "negative term -3"),
        ([1, 3, -1], Parity.ODD, 10, SequenceFormatError, "negative term -1"),
        ([1, 7, 5, 4], Parity.ODD, 10, SequenceFormatError, "got 5 after 7"),
        ([1, 3, 3], Parity.ODD, 10, SequenceFormatError, "got 3 after 3"),
        ([1, 13, 12], Parity.ODD, 10, LimitExceededError, "term 13 lies beyond"),
        ([1, 4, 6], Parity.ODD, 10, ParityMismatchError, "even term 4"),
        ([0, 2, 5, 7], Parity.EVEN, 10, ParityMismatchError, "odd term 5"),
        ([2, 3, 3], Parity.MIXED, 10, SequenceFormatError, "got 3 after 3"),
        (np.array([[1, 3]]), Parity.ODD, 10, SequenceFormatError, "flat sequence"),
        (np.array([1.0, 3.0]), Parity.ODD, 10, SequenceFormatError, "integers"),
        (np.array([2, 2**63], dtype=np.uint64), Parity.EVEN, 2**63, SequenceFormatError,
         "term 9223372036854775808 beyond int64"),
        # Small gaps: the block passes every test but the int64 bound.
        (np.array([2**63 + 1, 2**63 + 3], dtype=np.uint64), Parity.ODD, 2**64,
         SequenceFormatError, "term 9223372036854775809 beyond int64"),
        # Iterables: a float is refused, not truncated; a term past int64 is
        # a format error; and so is a limit that is no integer.
        ([1.5, 3.7], Parity.ODD, 10, SequenceFormatError, "int64 integers"),
        ([2, 2**63], Parity.EVEN, 2**63, SequenceFormatError, "int64 integers"),
        ([1, 3], Parity.ODD, 5.5, ValueError, "nonnegative integer, got 5.5"),
    ],
)
def test_validation_names_the_first_bad_term(terms, parity, limit, error, message):
    with pytest.raises(error, match=message):
        ParitySequence(terms, parity, limit)


@pytest.mark.parametrize(
    "terms, parity, error, message",
    [
        ([1, 3, 7, 5, 9, 11, 13], Parity.ODD, SequenceFormatError, "got 5 after 7"),
        ([1, 3, 5, 7, 9, 11, 13, 14], Parity.ODD, ParityMismatchError, "even term 14"),
        ([0, 2, 4, 6, 8, 10, 13], Parity.EVEN, ParityMismatchError, "odd term 13"),
        ([2, 4, 6], Parity.ODD, ParityMismatchError, "even term 2"),
        ([-1, 3, 5, 7], Parity.ODD, SequenceFormatError, "negative term -1"),
        ([1, 3, 5, 7, 9, 11, 21], Parity.ODD, LimitExceededError, "term 21 lies beyond"),
        ([2, 3, 5, 7, 11, 13, 17, 17], Parity.MIXED, SequenceFormatError, "got 17 after 17"),
        ([1, 23, 25, 27, 29, 31, 33, 5], Parity.ODD, LimitExceededError, "term 23 lies beyond"),
        ([1, 3, 5, 8, 10, 12], Parity.ODD, ParityMismatchError, "even term 8"),
        ([0, 2, 4, 7, 9, 11], Parity.EVEN, ParityMismatchError, "odd term 7"),
        (np.array([1, 3, 7, 5, 9], dtype=np.uint16), Parity.ODD, SequenceFormatError,
         "got 5 after 7"),
        ([1, 3 * 2**61 + 1, -(2**62) + 1, 3], Parity.ODD, LimitExceededError,
         f"term {3 * 2**61 + 1} lies beyond"),
        ([2**63 - 3, -(2**63) + 1], Parity.ODD, LimitExceededError,
         f"term {2**63 - 3} lies beyond"),
        (np.array([2**64 - 3, 1], dtype=np.uint64), Parity.ODD, LimitExceededError,
         f"term {2**64 - 3} lies beyond"),
    ],
    ids=["straddling-pair", "odd-last-block", "even-last-block", "index-0-parity",
         "index-0-negative", "beyond-limit", "mixed-duplicate", "beyond-limit-then-decrease",
         "odd-block-first-term", "even-block-first-term", "uint16-straddling-pair",
         "wrapping-gaps", "one-wrapping-gap", "uint64-wrapping-gap"],
)
def test_validation_in_blocks_names_the_first_bad_term(
    monkeypatch, terms, parity, error, message
):
    # With blocks of 3, blocks start at indices 0, 3 and 6: the first case's
    # decreasing pair sits at indices 2 and 3, across a block boundary.
    for block in (sequences._CHECK_BLOCK, 3):
        monkeypatch.setattr(sequences, "_CHECK_BLOCK", block)
        with pytest.raises(error, match=message):
            ParitySequence(np.array(terms), parity, 20)


def _mask_scan(terms, parity, limit, block):
    """The reference check: a per-term mask over each block, no fast test."""
    top = min(limit, 2**63 - 1)
    want = None if parity is Parity.MIXED else int(parity is Parity.ODD)
    for start in range(0, len(terms), block):
        lo = max(start - 1, 0)
        chunk = terms[lo : start + block]
        bad = (chunk < 0) | (chunk > top)
        bad[1:] |= chunk[1:] <= chunk[:-1]
        if want is not None:
            bad |= (chunk & 1) != want
        if bad.any():
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


def _outcome(check, *args):
    try:
        check(*args)
    except (SequenceFormatError, LimitExceededError, ParityMismatchError) as exc:
        return type(exc), str(exc)
    return None


def _faulty_terms(rng, parity, limit, signed):
    """A short valid sequence, then at most one injected fault."""
    step = 1 if parity is Parity.MIXED else 2
    start = 1 if parity is Parity.ODD else 0
    pool = range(start, limit + 1, step)
    terms = sorted(rng.sample(pool, rng.randint(0, 12)))
    faults = ["none", "repeat", "decrease", "beyond", "parity"] + ["negative"] * signed
    fault = rng.choice(faults)
    if not terms or fault == "none":
        return terms
    j = rng.randrange(len(terms))
    if fault == "negative":
        terms[j] = -rng.randint(1, 9)
    elif fault == "repeat" and j:
        terms[j] = terms[j - 1]
    elif fault == "decrease" and j:
        terms[j] = max(terms[j - 1] - step * rng.randint(1, 3), 0)
    elif fault == "beyond":
        terms[j] = limit + rng.randint(1, 4)
    elif fault == "parity":
        terms[j] += 1
    return terms


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
def test_validation_matches_a_per_term_mask_scan(monkeypatch, block, dtype):
    monkeypatch.setattr(sequences, "_CHECK_BLOCK", block)
    rng = random.Random(block)
    signed = np.dtype(dtype).kind == "i"
    for _ in range(400):
        parity = rng.choice(list(Parity))
        terms = np.array(_faulty_terms(rng, parity, 40, signed), dtype=dtype)
        expected = _outcome(_mask_scan, terms, parity, 40, block)
        assert _outcome(sequences._check_terms, terms, parity, 40) == expected, (
            terms, parity)


_EXTREMES = (-(2**63), -(2**63) + 1, -(2**63) + 2, -3, -1, 0, 1, 2, 3,
             2**63 - 3, 2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, 2**63 + 3,
             2**64 - 3, 2**64 - 2, 2**64 - 1)


def _extreme_terms(rng, dtype, parity):
    """Up to 8 terms near dtype's ends, near 2^63, near 0 or anywhere in
    its range, negative ones in some draws only; sorted or not, and with the
    parity forced or not."""
    info = np.iinfo(dtype)
    lowest = info.min if rng.random() < 0.4 else 0
    pool = [v for v in _EXTREMES if lowest <= v <= info.max]
    terms = [
        rng.choice(pool) if rng.random() < 0.5
        else rng.randint(0, 40) if rng.random() < 0.8
        else rng.randint(lowest, info.max)
        for _ in range(rng.randint(0, 8))
    ]
    if parity is not Parity.MIXED and rng.random() < 0.7:
        terms = [t | 1 if parity is Parity.ODD else t & ~1 for t in terms]
    if rng.random() < 0.7:
        terms = sorted(set(terms) if rng.random() < 0.7 else terms)
    return np.array(terms, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, sequences._CHECK_BLOCK])
def test_validation_matches_a_per_term_mask_scan_at_the_int64_extremes(
    monkeypatch, block, dtype
):
    # Terms whose differences wrap in int64 or uint64, under limits on both
    # sides of int64's maximum.
    monkeypatch.setattr(sequences, "_CHECK_BLOCK", block)
    rng = random.Random(f"{block}{np.dtype(dtype).name}")
    for _ in range(600):
        parity = rng.choice(list(Parity))
        limit = rng.choice([40, 2**63 - 1, 2**63 + 2, 2**64])
        terms = _extreme_terms(rng, dtype, parity)
        expected = _outcome(_mask_scan, terms, parity, limit, block)
        assert _outcome(sequences._check_terms, terms, parity, limit) == expected, (
            terms, parity, limit)


def test_validation_allocates_no_full_size_temporaries():
    terms = np.arange(1, 10**7 + 1, 2)
    tracemalloc.start()
    try:
        seq = ParitySequence(terms, Parity.ODD, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one int64 or bool temporary over all terms is 40 or 5 MB
    assert len(seq) == 5 * 10**6


def test_empty_sequences_are_valid():
    for parity in Parity:
        seq = ParitySequence([], parity, 6)
        assert len(seq) == 0 and seq.counting(6) == 0
        assert seq.terms.dtype == np.int64
    with pytest.raises(SequenceFormatError, match="explicit parity"):
        make_sequence(SequenceKind.CUSTOM, 6, terms=np.array([], dtype=np.int64))


def test_sequences_take_limits_past_int32(tmp_path):
    # A sequence stores only its terms, so no limit is refused but a negative one.
    big = 2**31 + 1
    seq = ParitySequence([1, 3, big], Parity.ODD, big)
    assert (seq.counting(big), seq.counting(big - 2), seq.contains(big)) == (3, 2, True)
    assert not seq.contains(big - 2)
    path = tmp_path / "f.txt"
    path.write_text(f"parity: odd\n1\n3\n{big}\n{2**32 + 1}\n")
    loaded = load_sequence(path, limit=big)
    assert loaded == seq and loaded.counting(big) == 3 and big in loaded
    with pytest.raises(ValueError, match="nonnegative"):
        ParitySequence([], Parity.ODD, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        build_sieve(-1)


def test_sieve_past_its_cap_is_refused_before_allocating(monkeypatch):
    def no_flags(limit):
        raise AssertionError("the sieve allocated its flags")

    monkeypatch.setattr(sequences, "_odd_prime_flags", no_flags)
    with pytest.raises(ResourceBudgetError, match="up to 2147483648, above the --limit cap"):
        build_sieve(2**31, cap=2**31 - 1)
    with pytest.raises(ResourceBudgetError, match="cap 50000000$"):
        build_sieve(sequences.DEFAULT_TABLE_CAP + 1)


def test_queries_build_no_table():
    tracemalloc.start()
    try:
        seq = ParitySequence([1, 3], Parity.ODD, 10**7)
        answers = (seq.counting(10**7), seq.contains(3), seq.contains(5), seq.counting(-1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == (2, True, False, 0)
    assert peak < 2**20  # a table to 10^7 would take 40 MB


def test_custom_sequence_checks_its_terms_once():
    terms = np.arange(1, 10**7 + 1, 2)
    tracemalloc.start()
    try:
        seq = make_sequence(SequenceKind.CUSTOM, 10**7, terms=terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # terms % 2 == 1 over all terms takes 40 MB, then 5 MB
    assert seq.parity is Parity.ODD and len(seq) == 5 * 10**6


@pytest.mark.parametrize("terms, parity, error, match", [
    (list(range(1, 2 * 10**5, 2)) + [2 * 10**5], None, SequenceFormatError, "mixes"),
    ([0, 2, 5], Parity.EVEN, SequenceFormatError, "mixes"),
    ([1, 2], Parity.EVEN, SequenceFormatError, "mixes"),
    ([1, 3], Parity.EVEN, ParityMismatchError, "terms are odd but parity even"),
    ([], None, SequenceFormatError, "explicit parity"),
    ([1.5, 3.7], None, SequenceFormatError, "int64 integers"),
])
def test_custom_sequence_errors(terms, parity, error, match):
    with pytest.raises(error, match=match):
        make_sequence(SequenceKind.CUSTOM, 2 * 10**5, terms=terms, parity=parity)


def test_custom_sequence_via_make_sequence():
    seq = make_sequence(SequenceKind.CUSTOM, 10, terms=[1, 3, 9])
    assert seq.parity is Parity.ODD
    with pytest.raises(SequenceFormatError):
        make_sequence(SequenceKind.CUSTOM, 10, terms=[1, 2])
    with pytest.raises(SequenceFormatError):
        make_sequence(SequenceKind.CUSTOM, 10)  # no terms
    empty = make_sequence(SequenceKind.CUSTOM, 10, terms=[], parity=Parity.EVEN)
    assert len(empty) == 0


@pytest.mark.parametrize("limit, terms", [(100, None), (10**9, None), (100, [1, 3])])
def test_make_sequence_refuses_an_unknown_kind_before_sieving(monkeypatch, limit, terms):
    sieves = []
    monkeypatch.setattr(sequences, "build_sieve", lambda *args: sieves.append(args))
    with pytest.raises(ValueError, match="unknown sequence kind 'odd-primes'"):
        make_sequence("odd-primes", limit, terms=terms)
    assert sieves == []


# --- built-in kinds -------------------------------------------------------

def _kind_predicate(kind, tables):
    semis = {n for n in range(tables.limit + 1) if factor_count(n) == 2}
    preds = {
        SequenceKind.ODD_PRIMES: lambda n: n % 2 == 1 and trial_division_is_prime(n),
        SequenceKind.PRIMES: trial_division_is_prime,
        SequenceKind.DOUBLED_PRIMES: lambda n: n % 2 == 0 and trial_division_is_prime(n // 2),
        SequenceKind.PRIME_OR_ODD_SEMIPRIME: lambda n: n % 2 == 1
        and (trial_division_is_prime(n) or n in semis),
        SequenceKind.ODD_SQUARES: lambda n: n % 2 == 1 and math.isqrt(n) ** 2 == n,
        SequenceKind.EVEN_SQUARES: lambda n: n % 2 == 0 and math.isqrt(n) ** 2 == n,
        SequenceKind.PRONIC: lambda n: any(j * (j + 1) == n for j in range(math.isqrt(n) + 2)),
        SequenceKind.ALL_ODD: lambda n: n % 2 == 1,
        SequenceKind.ALL_EVEN: lambda n: n % 2 == 0,
    }
    return preds[kind]


@pytest.mark.parametrize("kind", [k for k in SequenceKind if k is not SequenceKind.CUSTOM])
def test_builtin_kind_counting_matches_brute_force(kind):
    limit = 600
    tables = build_sieve(limit)
    seq = make_sequence(kind, limit, tables=tables)
    pred = _kind_predicate(kind, tables)
    expected_terms = [n for n in range(limit + 1) if pred(n)]
    assert list(seq.terms) == expected_terms
    running = 0
    it = iter(expected_terms)
    nxt = next(it, None)
    for x in range(limit + 1):
        while nxt is not None and nxt <= x:
            running += 1
            nxt = next(it, None)
        assert seq.counting(x) == running


def test_square_and_pronic_examples():
    odd_sq = make_sequence(SequenceKind.ODD_SQUARES, 30)
    assert list(odd_sq.terms) == [1, 9, 25]
    assert odd_sq.counting(30) == 3 == odd_square_count(30)
    even_sq = make_sequence(SequenceKind.EVEN_SQUARES, 30)
    assert list(even_sq.terms) == [0, 4, 16]
    assert even_sq.counting(30) == 3 == even_square_count(30)
    pronic = make_sequence(SequenceKind.PRONIC, 25)
    assert list(pronic.terms) == [0, 2, 6, 12, 20]
    assert pronic.counting(25) == 5 == pronic_count(25)
    assert pronic_count(25) == (1 + math.isqrt(101)) // 2


_PRONIC_MILLION = make_sequence(SequenceKind.PRONIC, 10**6)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pronic_closed_form_matches_table(x):
    assert pronic_count(x) == _PRONIC_MILLION.counting(x)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_square_counts_closed_forms(x):
    root = math.isqrt(x)
    odd = sum(1 for k in range(1, root + 1, 2) if k * k <= x)
    even = sum(1 for k in range(0, root + 1, 2) if k * k <= x)
    assert odd_square_count(x) == odd
    assert even_square_count(x) == even


# --- intersect -------------------------------------------------------------

def test_intersect_examples():
    s = ParitySequence([3, 5, 7], Parity.ODD, 10)
    t = ParitySequence([5, 7, 9], Parity.ODD, 10)
    assert list(intersect(s, t).terms) == [5, 7]
    assert intersect(s, s) == s
    # A contained sequence is its own intersection, not a copy.
    within = ParitySequence([5, 7], Parity.ODD, 10)
    assert intersect(within, t) is within
    assert intersect(t, within) is within


def test_intersect_odd_primes_odd_squares_empty():
    limit = 100
    a = make_sequence(SequenceKind.ODD_PRIMES, limit)
    b = make_sequence(SequenceKind.ODD_SQUARES, limit)
    brute = set(a.terms) & set(b.terms)
    assert brute == set()
    assert len(intersect(a, b)) == 0


def test_intersect_properties():
    a = ParitySequence([0, 4, 8, 12], Parity.EVEN, 20)
    b = ParitySequence([0, 2, 8, 14], Parity.EVEN, 20)
    c = ParitySequence([0, 8, 14, 18], Parity.EVEN, 20)
    assert intersect(a, b) == intersect(b, a)
    assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
    w = intersect(a, b)
    for x in range(21):
        assert w.counting(x) <= min(a.counting(x), b.counting(x))


def test_intersect_errors():
    odd = ParitySequence([1, 3], Parity.ODD, 10)
    even = ParitySequence([0, 2], Parity.EVEN, 10)
    with pytest.raises(ParityMismatchError):
        intersect(odd, even)
    with pytest.raises(LimitMismatchError):
        intersect(odd, ParitySequence([1, 3], Parity.ODD, 12))


# --- file loading ----------------------------------------------------------

def test_load_sequence_roundtrip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# comment\nparity: odd\n1\n3\n\n9\n")
    seq = load_sequence(path)
    assert list(seq.terms) == [1, 3, 9]
    assert seq.parity is Parity.ODD
    assert seq.limit == 9
    truncated = load_sequence(path, limit=5)
    assert list(truncated.terms) == [1, 3]
    assert truncated.limit == 5


def test_load_sequence_errors(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("3\n5\n")
    with pytest.raises(SequenceFormatError):
        load_sequence(bad_header)

    bad_parity = tmp_path / "b.txt"
    bad_parity.write_text("parity: odd\n2\n")
    with pytest.raises(ParityMismatchError):
        load_sequence(bad_parity)

    duplicate = tmp_path / "c.txt"
    duplicate.write_text("parity: odd\n3\n3\n")
    with pytest.raises(SequenceFormatError):
        load_sequence(duplicate)

    not_int = tmp_path / "d.txt"
    not_int.write_text("parity: even\n2\nx\n")
    with pytest.raises(SequenceFormatError):
        load_sequence(not_int)

    empty = tmp_path / "e.txt"
    empty.write_text("")
    with pytest.raises(SequenceFormatError):
        load_sequence(empty)


@pytest.mark.parametrize(
    "line",
    ["x", "5 7", "1.5", "99999999999999999999", "1_001", "\u0663", "5\x0c7",
     "9223372036854775808", "-9223372036854775809"],
)
def test_load_sequence_names_the_bad_line(tmp_path, line):
    path = tmp_path / "f.txt"
    path.write_text(f"# comment\nparity: odd\n1\n\n{line}\n9\n")
    with pytest.raises(SequenceFormatError, match=r"f\.txt:5: "):
        load_sequence(path)


@pytest.mark.parametrize(
    "line, message",
    [("9223372036854775807", "strictly increasing, got 9 after 9223372036854775807"),
     ("-9223372036854775808", "negative term -9223372036854775808"),
     ("0" * 5000 + "3", "strictly increasing, got 3 after 3")],
)
def test_load_sequence_reads_terms_at_the_int64_bounds(tmp_path, line, message):
    # These lines parse; their files then fail the order or sign check, and
    # with a bad line after them, that line is the one named.
    path = tmp_path / "f.txt"
    path.write_text(f"# comment\nparity: odd\n3\n\n{line}\n9\n")
    with pytest.raises(SequenceFormatError, match=message):
        load_sequence(path, limit=100)
    path.write_text(f"# comment\nparity: odd\n3\n\n{line}\n9\nx\n")
    with pytest.raises(SequenceFormatError, match=r"f\.txt:7: not an integer"):
        load_sequence(path, limit=100)


def _load_outcome(path, limit=None):
    """load_sequence's terms, parity and limit, or its error's type and text."""
    try:
        seq = load_sequence(path, limit=limit)
    except (AddrepError, ValueError, MemoryError) as exc:
        return type(exc), str(exc)
    return seq.terms.tolist(), seq.parity, seq.limit


def _loadtxt_outcome(path, limit=None):
    """The same load with every body read by numpy's text parser."""
    with mock.patch.object(sequences, "_plain_terms", return_value=None):
        return _load_outcome(path, limit)


# Sorted terms of every width from 1 to 19 digits, the last 2**63 - 1.
_EVERY_WIDTH = "".join(f"{int('1' * w)}\n" for w in range(1, 19)) + f"{2**63 - 1}\n"


@pytest.mark.parametrize("limit", [None, 11_111])
@pytest.mark.parametrize(
    "body",
    [_EVERY_WIDTH, "1\n3\n11\n", "001\n003\n0011\n", "1\n3", "1\r\n3\r\n",
     "1\n# three\n3\n", "1\n\n3\n", "+1\n3\n", "-1\n3\n", "1\n\t3\n", "3\n1\n",
     "1\n2\n", "1\n30\n5\n", "", "\n", "1\nx\n"],
)
def test_block_parser_matches_loadtxt_on_each_form(tmp_path, body, limit):
    path = tmp_path / "f.txt"
    path.write_bytes(f"parity: odd\n{body}".encode())
    assert _load_outcome(path, limit) == _loadtxt_outcome(path, limit)


# Sorted odd terms of every width from 1 to 18 digits, a few of each.
_MIXED_WIDTHS = "".join(f"{t}\n" for t in sorted({3 ** k + 2 * j for k in range(38) for j in range(4)}))


@pytest.mark.parametrize("block", [19, 20, 23, 64])
@pytest.mark.parametrize(
    "body",
    [_EVERY_WIDTH, _MIXED_WIDTHS, _MIXED_WIDTHS[:-1], _MIXED_WIDTHS + "5\n",
     _MIXED_WIDTHS.replace("\n59049\n", "\n59x49\n"), _MIXED_WIDTHS + "1" * 19 + "\n"],
)
def test_block_parser_matches_loadtxt_across_block_edges(tmp_path, monkeypatch, block, body):
    # Small blocks put block edges inside lines, runs and bad rows alike.
    path = tmp_path / "f.txt"
    path.write_bytes(f"# head\nparity: odd\n{body}".encode())
    monkeypatch.setattr(sequences, "_PARSE_BLOCK", block)
    if body == _MIXED_WIDTHS:
        start = len(b"# head\nparity: odd\n")
        assert sequences._plain_terms(path, start).tolist() == list(map(int, body.split()))
    assert _load_outcome(path) == _loadtxt_outcome(path)


@st.composite
def _sequence_files(draw):
    parity = draw(st.sampled_from(["odd", "even"]))
    if draw(st.booleans()):  # sorted terms of the declared parity: loads that succeed
        halves = draw(st.sets(st.integers(0, 18).flatmap(lambda e: st.integers(0, 10**e))))
        lines = [str(2 * t + (parity == "odd")) for t in sorted(halves)]
    else:
        line = st.integers(1, 19).flatmap(lambda w: st.text("0123456789", min_size=w, max_size=w))
        lines = draw(st.lists(line, max_size=30))
    head = draw(st.sampled_from(["", "# made by hand\n", "# made by hand\r"]))
    if draw(st.booleans()):  # a plain body
        eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        return f"{head}parity: {parity}{eol}" + "".join(line + "\n" for line in lines)
    for _ in range(draw(st.integers(0, 2))):
        other = draw(st.sampled_from(["", "# note", "5 # five", "+7", "-3", "\t9", " 11 "]))
        lines.insert(draw(st.integers(0, len(lines))), other)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    head = draw(st.sampled_from([head, "# made by hand\r\n"]))
    tail = draw(st.sampled_from([eol, ""]))
    return f"{head}parity: {parity}{eol}" + eol.join(lines) + tail


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_sequence_files(), st.one_of(st.none(), st.integers(0, 2**31 - 1)))
def test_block_parser_matches_loadtxt(tmp_path, text, limit):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode())
    assert _load_outcome(path, limit) == _loadtxt_outcome(path, limit)


@pytest.mark.parametrize(
    "head",
    ["# made by hand\nparity: odd\n", "# made by hand\r\nparity: odd\r\n",
     "# made by hand\rparity: odd\r",
     # The header ends past the text reader's first 8192-byte chunk.
     "#" + "x" * 8189 + "\rparity: odd\r"],
    ids=["lf", "crlf", "cr", "cr-past-8192"],
)
def test_plain_bodies_take_the_block_parser(tmp_path, monkeypatch, head):
    path = tmp_path / "f.txt"
    path.write_bytes((head + _EVERY_WIDTH.replace(f"{2**63 - 1}\n", "")).encode())
    monkeypatch.setattr(sequences, "_loadtxt_terms", None)
    seq = load_sequence(path, limit=10**9)
    assert seq.terms.tolist() == [int("1" * w) for w in range(1, 10)]


def test_widths_that_change_every_line_take_loadtxt(tmp_path, monkeypatch):
    # The block parser takes at most _PLAIN_DIGITS (18) runs of one width in
    # a block. With 0, 1 or 2 leading zeros in turn, each of the 40 lines is
    # a run, so numpy parses the body.
    path = tmp_path / "f.txt"
    lines = ("0" * (i % 3) + f"{t}\n" for i, t in enumerate(range(1, 80, 2)))
    path.write_text("parity: odd\n" + "".join(lines))
    assert sequences._plain_terms(path, len(b"parity: odd\n")) is None
    parsed = []
    loadtxt_terms = sequences._loadtxt_terms
    monkeypatch.setattr(sequences, "_loadtxt_terms",
                        lambda *args: parsed.append(args) or loadtxt_terms(*args))
    for limit in (None, 100):
        assert load_sequence(path, limit).terms.tolist() == list(range(1, 80, 2))
    assert len(parsed) == 2


def test_plain_load_holds_no_full_size_temporaries(tmp_path):
    terms = np.arange(1, 2 * 10**6, 2)
    path = tmp_path / "f.txt"
    path.write_text("parity: odd\n" + "\n".join(map(str, terms.tolist())) + "\n")
    tracemalloc.start()
    try:
        seq = load_sequence(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(seq.terms, terms)
    # The int64 terms (8 MB) and three block-sized buffers, with no term for
    # the file's 7.9 MB; a bool or uint8 temporary over every term would add 1 MB.
    assert peak < terms.nbytes + 4 * sequences._PARSE_BLOCK


def test_small_plain_load_sizes_its_buffers_to_the_body(tmp_path):
    # The odd primes to 2*10^4, a 12 KB body: its buffer and scratch take the
    # body's size, not _PARSE_BLOCK's 256 KB each (69 KB traced, 557 KB with
    # full-size buffers).
    terms = make_sequence(SequenceKind.ODD_PRIMES, 20_000).terms
    path = tmp_path / "f.txt"
    path.write_text("parity: odd\n" + "".join(f"{t}\n" for t in terms.tolist()))
    tracemalloc.start()
    try:
        seq = load_sequence(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(seq.terms, terms)
    assert peak < 128 * 1024, peak


def test_load_sequence_comments_blanks_and_crlf(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(
        b"\r\n# made by hand\r\n   \r\n#\r\nparity: even\r\n"
        b"0 # zero\r\n\r\n4#four\r\n# between\r\n  10  \r\n"
    )
    seq = load_sequence(path)
    assert seq.terms.tolist() == [0, 4, 10]
    assert seq.parity is Parity.EVEN and seq.limit == 10
    path.write_bytes(b"# x\r\n\r\nparity: odd\r\n1\r\n\r\nfive # 5\r\n")
    with pytest.raises(SequenceFormatError, match=r"f\.txt:6: not an integer: 'five'"):
        load_sequence(path)


@pytest.mark.parametrize(
    "body, message",
    [("3\n1\n", "strictly increasing, got 1 after 3"), ("-1\n", "negative term -1")],
)
def test_load_sequence_without_limit_names_the_fault(tmp_path, body, message):
    # The default limit is the largest term, so a fault is never reported
    # as a term beyond it.
    path = tmp_path / "f.txt"
    path.write_text("parity: odd\n" + body)
    with pytest.raises(SequenceFormatError, match=message):
        load_sequence(path)


@pytest.mark.parametrize("limit", [None, 6, 50])
@pytest.mark.parametrize(
    "body, error, message",
    [("1\n9\n3\n5\n", SequenceFormatError, "strictly increasing, got 3 after 9"),
     # a cut by binary search keeps 1, 101, 3, 5: the fault is the order,
     # not 101 past the limit
     ("1\n101\n3\n5\n61\n71\n", SequenceFormatError, "strictly increasing, got 3 after 101"),
     ("1\n3\n8\n", ParityMismatchError, "even term 8 in an odd sequence")],
)
def test_load_sequence_checks_terms_past_the_limit(tmp_path, limit, body, error, message):
    # Terms past the limit are dropped only once the whole file is sound.
    path = tmp_path / "f.txt"
    path.write_text("parity: odd\n" + body)
    with pytest.raises(error, match=message):
        load_sequence(path, limit=limit)


@pytest.mark.parametrize("limit", [None, 0, 40, 100, 1000])
def test_load_sequence_checks_each_term_once(tmp_path, monkeypatch, limit):
    path = tmp_path / "f.txt"
    path.write_text("parity: odd\n" + "".join(f"{t}\n" for t in range(1, 200, 2)))
    checked = []
    check = sequences._check_terms
    monkeypatch.setattr(sequences, "_check_terms",
                        lambda terms, *rest: checked.append(len(terms)) or check(terms, *rest))
    seq = load_sequence(path, limit=limit)
    assert seq.terms.tolist() == [t for t in range(1, 200, 2) if limit is None or t <= limit]
    # the pair across the cut shares its kept term
    assert 100 <= sum(checked) <= 101


def test_load_sequence_without_terms(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("parity: even\n# nothing yet\n")
    seq = load_sequence(path)
    assert len(seq) == 0 and seq.limit == 0 and seq.parity is Parity.EVEN


def test_load_sequence_header_comment_is_ignored(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# made by hand\nparity: even # note\n0\n4\n")
    seq = load_sequence(path)
    assert seq.parity is Parity.EVEN and seq.terms.tolist() == [0, 4]


def test_load_sequence_header_comment_right_after_the_colon(tmp_path):
    # The comment is not the value: the header names no parity.
    path = tmp_path / "f.txt"
    path.write_text("parity:# even\n0\n4\n")
    with pytest.raises(SequenceFormatError, match=r"f\.txt:1: bad parity ''"):
        load_sequence(path)


# --- the text rule: UTF-8 whatever the locale, past a leading BOM -------------

@pytest.mark.parametrize(
    "data",
    [BOM_FILE, b"\xef\xbb\xbf# made by hand\r\nparity: odd\r\n1\r\n3\r\n",
     b"\xef\xbb\xbf\nparity: odd\n1\n3 # three\n"],
    ids=["header", "comment-crlf", "blank-loadtxt"],
)
def test_a_leading_bom_is_skipped(tmp_path, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    seq = load_sequence(path)
    assert seq.terms.tolist() == [1, 3] and seq.parity is Parity.ODD


def test_a_bom_past_the_first_byte_is_text(tmp_path):
    # U+FEFF anywhere else is a character like any other, as before the rule.
    path = tmp_path / "f.txt"
    path.write_bytes(b"# made by hand\n\xef\xbb\xbfparity: odd\n1\n")
    with pytest.raises(SequenceFormatError, match=r"f\.txt:2: expected 'parity: odd\|even'"):
        load_sequence(path)


@pytest.mark.parametrize("limit", [None, 4])
@pytest.mark.parametrize("case", sorted(STRAY_BYTE_FILES))
def test_a_byte_that_is_not_utf8_is_named_with_its_line(tmp_path, case, limit):
    data, lineno = STRAY_BYTE_FILES[case]
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(SequenceFormatError) as exc:
        load_sequence(path, limit=limit)
    assert str(exc.value) == f"{path}:{lineno}: byte 0xff is not UTF-8"


def test_the_text_rule_holds_under_the_c_locale(tmp_path):
    # Under the C locale without UTF-8 mode, Python's default text codec is
    # ASCII; the reader must not use it.
    files = {"bom": BOM_FILE, "cafe": "# café\nparity: odd\n1\n3\n".encode(),
             **{case: data for case, (data, _) in STRAY_BYTE_FILES.items()}}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    script = (
        "import json, sys\n"
        "from addrep.sequences import load_sequence\n"
        "out = {}\n"
        "for path in sys.argv[1:]:\n"
        "    try:\n"
        "        out[path] = load_sequence(path).terms.tolist()\n"
        "    except Exception as exc:\n"
        "        out[path] = [type(exc).__name__, str(exc)]\n"
        "print(json.dumps(out))\n"
    )
    paths = [str(tmp_path / name) for name in files]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    done = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    for path in paths:
        want = _load_outcome(path)  # (terms, parity, limit) or (error type, message)
        want = want[0] if isinstance(want[0], list) else [want[0].__name__, want[1]]
        assert got[path] == want, path
    assert got[paths[0]] == got[paths[1]] == [1, 3]
