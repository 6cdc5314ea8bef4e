import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrep.applications import PROBLEMS
from addrep.errors import LimitExceededError, SequenceFormatError
from addrep.oracle import (
    brute_count,
    brute_count_series,
    count_two_squares,
    count_two_triangular,
    square_to_triangular,
    triangular_number,
    triangular_to_square,
    verify_remark_identity,
)
from addrep.sequences import Parity, ParitySequence, SequenceKind, make_sequence
from conftest import random_pair
from addrep.recursion import EvaluatorKind, RecursionEvaluator


# --- brute_count -------------------------------------------------------------

def test_odd_primes_pairs_for_10():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 10)
    result = brute_count(seq, seq, 10)
    assert result.pairs == ((3, 7), (5, 5))
    assert result.count == 2


def test_below_smallest_terms_is_empty():
    a = ParitySequence([5, 7], Parity.ODD, 20)
    b = ParitySequence([9, 11], Parity.ODD, 20)
    assert brute_count(a, b, 12).count == 0


def test_doubled_primes_vs_primes_role_tagged():
    u = make_sequence(SequenceKind.DOUBLED_PRIMES, 20)
    v = make_sequence(SequenceKind.PRIMES, 20)
    result = brute_count(u, v, 9, role_tagged=True)
    assert result.pairs == ((4, 5), (6, 3))
    assert result.count == 2


def test_unordered_mixed_assignments_counted_once():
    a = ParitySequence([3, 5], Parity.ODD, 10)
    b = ParitySequence([5], Parity.ODD, 10)
    # 8 = 3 + 5 works with 3 in a, 5 in b; the reverse assignment fails,
    # still one pair.
    assert brute_count(a, b, 8).pairs == ((3, 5),)


def test_brute_count_symmetry():
    rng = random.Random(31)
    for kind in (EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN):
        a, b = random_pair(rng, kind, 200)
        for x in range(0 if kind is EvaluatorKind.EVEN_EVEN else 2, 201, 2):
            assert brute_count(a, b, x).count == brute_count(b, a, x).count


def test_brute_count_limit_check():
    seq = make_sequence(SequenceKind.ALL_ODD, 10)
    with pytest.raises(LimitExceededError):
        brute_count(seq, seq, 12)


def test_brute_series_matches_per_target():
    rng = random.Random(33)
    a, b = random_pair(rng, EvaluatorKind.EVEN_ODD, 150)
    series = brute_count_series(a, b, 149, role_tagged=True)
    for x, v in series.items():
        assert v == brute_count(a, b, x, role_tagged=True).count


def test_brute_series_base_inference_needs_pure_parity():
    u = make_sequence(SequenceKind.DOUBLED_PRIMES, 20)
    v = make_sequence(SequenceKind.PRIMES, 20)
    with pytest.raises(ValueError):
        brute_count_series(u, v, 19)  # mixed parity, unordered, no base
    assert brute_count_series(u, v, 19, role_tagged=True).base == 1


def _assert_series_is_per_target(a, b, x_max, role_tagged, base):
    values = brute_count_series(a, b, x_max, role_tagged, base).values
    assert all(type(v) is int for v in values)
    assert values == [
        brute_count(a, b, x, role_tagged).count for x in range(base, x_max + 1, 2)
    ]


@pytest.mark.parametrize("kind", list(EvaluatorKind))
@pytest.mark.parametrize("seed", range(8))
def test_brute_series_equals_brute_count_random(kind, seed):
    # Odd and even limits; x_max at or below the limit, so terms past
    # x_max occur; a wide range of pool sizes.
    rng = random.Random(1000 * seed + len(kind.value))
    base = kind.base
    limit = rng.randint(base, 400)
    a, b = random_pair(rng, kind, limit)
    x_max = base + 2 * ((rng.randint(base, limit) - base) // 2)
    _assert_series_is_per_target(a, b, x_max, kind is EvaluatorKind.EVEN_ODD, base)


@pytest.mark.parametrize("role_tagged", [False, True])
@pytest.mark.parametrize("base", [0, 1, 2])
def test_brute_series_equals_brute_count_mixed(role_tagged, base):
    rng = random.Random(7 + base)
    terms = [t for t in range(120) if rng.random() < 0.4]
    a = ParitySequence(terms, Parity.MIXED, 121)
    b = ParitySequence(terms[::2], Parity.MIXED, 121)
    _assert_series_is_per_target(a, b, base + 118, role_tagged, base)


@pytest.mark.parametrize("kind", list(EvaluatorKind))
@pytest.mark.parametrize("shape", ["empty", "single", "at_base", "past_x_max"])
def test_brute_series_edge_cases(kind, shape):
    pa, pb = kind.parities
    base = kind.base
    first = {Parity.ODD: 1, Parity.EVEN: 0}
    limit, x_max = base + 10, base + 6
    terms_a = list(range(first[pa], limit + 1, 2))
    terms_b = list(range(first[pb], limit + 1, 2))
    if shape == "empty":
        terms_a, terms_b = [], []
    elif shape == "single":
        terms_a, terms_b = terms_a[1:2], terms_b[-3:-2]
    elif shape == "at_base":
        x_max = base
    # "past_x_max": full sequences up to limit > x_max.
    a = ParitySequence(terms_a, pa, limit)
    b = ParitySequence(terms_b, pb, limit)
    _assert_series_is_per_target(a, b, x_max, kind is EvaluatorKind.EVEN_ODD, base)


@pytest.mark.parametrize(
    "problem, part",
    [(name, i) for name, spec in PROBLEMS.items() for i in range(len(spec.parts))],
)
def test_brute_series_equals_brute_count_on_oracle_pairs(problem, part):
    # Includes lemoine-levy's doubled primes with all (MIXED) primes,
    # role-tagged, and chen-total's even part {2} with {2} u 2P, base 0.
    kind, make_a, make_b, make_oracle_b = PROBLEMS[problem].parts[part]
    limit = 301
    a = make_a(limit, None)
    b = (make_oracle_b or make_b)(limit, None)
    base = kind.base
    x_max = base + 2 * ((limit - base) // 2)
    _assert_series_is_per_target(a, b, x_max, kind is EvaluatorKind.EVEN_ODD, base)


@st.composite
def _series_cases(draw, role_tagged):
    """A pair of sequences of any parities, with a base and an x_max.

    Terms reach past x_max up to the limit; even and mixed sequences may
    hold 0, and any sequence may be empty.
    """
    base = draw(st.sampled_from([0, 1, 2]))
    limit = draw(st.integers(base, 70))
    x_max = base + 2 * draw(st.integers(0, (limit - base) // 2))

    def sequence():
        parity = draw(st.sampled_from(list(Parity)))
        allowed = [
            t for t in range(limit + 1)
            if parity is Parity.MIXED or t % 2 == (parity is Parity.ODD)
        ]
        terms = draw(st.sets(st.sampled_from(allowed))) if allowed else set()
        return ParitySequence(sorted(terms), parity, limit)

    return sequence(), sequence(), x_max, role_tagged, base


# The loop picks each candidate's partner set by role: seq_b when
# role-tagged, else the side opposite the candidate's own.
@pytest.mark.parametrize("role_tagged", [False, True])
@settings(max_examples=225, deadline=None)
@given(data=st.data())
def test_brute_series_equals_brute_count_on_any_pair(role_tagged, data):
    case = data.draw(_series_cases(role_tagged))
    _assert_series_is_per_target(*case)


def test_brute_series_partner_side_follows_membership():
    # 3 is only in a, 7 only in b, 5 in both: 3 + 3 and 7 + 7 have no
    # pair across the sides, 5 + 5 has one.
    a = ParitySequence([3, 5], Parity.ODD, 14)
    b = ParitySequence([5, 7], Parity.ODD, 14)
    series = brute_count_series(a, b, 14)
    assert series.values == [0, 0, 0, 1, 2, 1, 0]
    _assert_series_is_per_target(a, b, 14, False, 2)


def test_brute_series_working_set_is_bounded():
    # A grid of every target against every candidate would take about
    # 27 MB here; the series needs only the flags and the counts, near
    # 0.3 MB.
    seq = make_sequence(SequenceKind.ODD_PRIMES, 20_000)
    tracemalloc.start()
    try:
        brute_count_series(seq, seq, 20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- triangular / square bijection -------------------------------------------

def test_bijection_examples():
    n, pair = triangular_to_square(1, 2)
    assert (n, pair) == (4, (4, 1))
    assert 4 * n + 1 == pair[0] ** 2 + pair[1] ** 2 == 17

    assert triangular_to_square(0, 0) == (0, (1, 0))

    n, pair = triangular_to_square(3, 3)
    assert (n, pair) == (12, (7, 0))
    assert square_to_triangular(7, 0) == (12, (3, 3))


def test_inverse_precondition():
    with pytest.raises(ValueError):
        square_to_triangular(2, 2)  # 8 is 0 mod 4
    with pytest.raises(ValueError):
        square_to_triangular(-1, 2)


_ODDS = make_sequence(SequenceKind.ALL_ODD, 10)
_ODD_1 = ParitySequence([1], Parity.ODD, 1)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: brute_count(_ODDS, _ODDS, -1), ValueError, "nonnegative",
                 id="brute_count-negative-x"),
    pytest.param(lambda: brute_count_series(_ODDS, _ODDS, 5), ValueError,
                 "not on the argument lattice of 2", id="brute_series-off-lattice"),
    pytest.param(lambda: brute_count_series(_ODDS, _ODDS, 12), LimitExceededError,
                 "beyond limits 10/10", id="brute_series-past-limits"),
    pytest.param(lambda: triangular_to_square(-1, 0), ValueError, "nonnegative",
                 id="triangular_to_square-negative"),
    pytest.param(lambda: verify_remark_identity(0), ValueError, "positive",
                 id="remark_identity-zero"),
    pytest.param(lambda: RecursionEvaluator(EvaluatorKind.ODD_ODD, _ODD_1, _ODD_1),
                 LimitExceededError, "limit 1 is below the base argument 2",
                 id="recursion-limit-below-base"),
    pytest.param(lambda: make_sequence(SequenceKind.ODD_PRIMES, 10, terms=[1]),
                 SequenceFormatError, "only accepted for CUSTOM", id="built-in-kind-given-terms"),
])
def test_arguments_out_of_range_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=2000))
def test_bijection_round_trip(x, y):
    hi, lo = (x, y) if x >= y else (y, x)
    n, (a, b) = triangular_to_square(hi, lo)
    assert a * a + b * b == 4 * n + 1
    n2, (x2, y2) = square_to_triangular(a, b)
    assert n2 == n
    assert (x2, y2) == (hi, lo)


def test_bijection_counts_match_up_to_10000():
    for n in range(10_001):
        assert count_two_triangular(n) == count_two_squares(4 * n + 1)


def test_pair_counters_against_sequences():
    limit = 400
    pronic = make_sequence(SequenceKind.PRONIC, 2 * limit)
    series = brute_count_series(pronic, pronic, 2 * limit)
    for n in range(limit + 1):
        assert series.value_at(2 * n) == count_two_triangular(n)


# --- the squared-identity check ----------------------------------------------

@pytest.mark.parametrize("x", [1, 5, 100])
def test_remark_identity_examples(x):
    assert verify_remark_identity(x)
    assert triangular_number(x) + triangular_number(x - 1) == x * x


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_remark_identity_property(x):
    assert verify_remark_identity(x)
