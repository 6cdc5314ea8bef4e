import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrep.errors import (
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
    odd_semiprime_flags,
    odd_square_count,
    pi_hardy_wright,
    pronic_count,
    semiprime_count,
)
from conftest import factor_count, trial_division_is_prime, trial_division_pi


# --- sieve and pi ---------------------------------------------------------

def test_sieve_small_values():
    tables = build_sieve(10)
    assert tables.pi(10) == 4
    assert tables.pi(0) == 0
    assert build_sieve(0).pi(0) == 0


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 500])
def test_sieve_matches_trial_division(limit):
    # Limits 0..4 leave no prime, one prime or two: binary searches over
    # such arrays are where an off-by-one would show.
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


def test_odd_semiprime_flags_match_count():
    tables = build_sieve(3000)
    flags = odd_semiprime_flags(tables)
    prefix = np.cumsum(flags)
    for x in (0, 8, 9, 100, 1499, 3000):
        assert int(prefix[x]) == odd_semiprime_count(x, tables)


@pytest.mark.parametrize("limit", [0, 9, 15, 25, 45, 49, 3000])
def test_odd_semiprime_flags_match_factorization(limit):
    # 9 = 3*3 and 25 = 5*5 sit on p*p == limit; at 15 and 45, limit // 3
    # is the prime 5 (and 15 = 3*5 itself); 49 = 7*7 needs the last small p.
    flags = odd_semiprime_flags(build_sieve(limit))
    expected = [n for n in range(limit + 1) if n % 2 == 1 and factor_count(n) == 2]
    assert np.flatnonzero(flags).tolist() == expected


# --- ParitySequence basics ------------------------------------------------

def test_counting_and_membership():
    seq = ParitySequence([1, 5, 9], Parity.ODD, 10)
    assert [seq.counting(x) for x in (0, 1, 4, 5, 9, 10)] == [0, 1, 1, 2, 3, 3]
    assert 5 in seq and 3 not in seq
    assert seq.counting(-3) == 0
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
    ],
)
def test_validation_names_the_first_bad_term(terms, parity, limit, error, message):
    with pytest.raises(error, match=message):
        ParitySequence(terms, parity, limit)


def test_empty_sequences_are_valid():
    for parity in Parity:
        seq = ParitySequence([], parity, 6)
        assert len(seq) == 0 and seq.counting(6) == 0
        assert seq.terms.dtype == np.int64
    with pytest.raises(SequenceFormatError, match="explicit parity"):
        make_sequence(SequenceKind.CUSTOM, 6, terms=np.array([], dtype=np.int64))


def test_tables_beyond_int32_are_refused_before_allocating():
    # Each check runs before any table is allocated, so this costs nothing.
    with pytest.raises(ResourceBudgetError, match="int32"):
        ParitySequence([], Parity.ODD, 2**31)
    with pytest.raises(ResourceBudgetError, match="int32"):
        build_sieve(2**31, cap=2**40)
    with pytest.raises(ResourceBudgetError, match="cap"):
        build_sieve(2**31)


def test_prefix_table_is_built_on_first_use():
    import tracemalloc

    tracemalloc.start()
    try:
        seq = ParitySequence([1, 3], Parity.ODD, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # a table to 10^7 would take 40 MB
    assert seq.counting(10**7) == 2
    assert seq.contains(3)


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


def test_custom_sequence_via_make_sequence():
    seq = make_sequence(SequenceKind.CUSTOM, 10, terms=[1, 3, 9])
    assert seq.parity is Parity.ODD
    with pytest.raises(SequenceFormatError):
        make_sequence(SequenceKind.CUSTOM, 10, terms=[1, 2])
    with pytest.raises(SequenceFormatError):
        make_sequence(SequenceKind.CUSTOM, 10)  # no terms
    empty = make_sequence(SequenceKind.CUSTOM, 10, terms=[], parity=Parity.EVEN)
    assert len(empty) == 0


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


@pytest.mark.parametrize("line", ["x", "5 7", "1.5", "99999999999999999999"])
def test_load_sequence_names_the_bad_line(tmp_path, line):
    path = tmp_path / "f.txt"
    path.write_text(f"# comment\nparity: odd\n1\n\n{line}\n9\n")
    message = r"f\.txt: expected one int64" if line.startswith("9") else r"f\.txt:5: "
    with pytest.raises(SequenceFormatError, match=message):
        load_sequence(path)


def test_load_sequence_without_terms(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("parity: even\n# nothing yet\n")
    seq = load_sequence(path)
    assert len(seq) == 0 and seq.limit == 0 and seq.parity is Parity.EVEN
