import math
import random

import numpy as np
import pytest

from addrep import recursion
from addrep.convolution import count_series
from addrep.errors import (
    ContainmentError,
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
)
from addrep.oracle import brute_count_series
from addrep.recursion import (
    _BASES,
    CountSeries,
    EvaluatorKind,
    Formula,
    RecursionEvaluator,
    _capped_sum,
)
from addrep.sequences import Parity, ParitySequence, SequenceKind, intersect, make_sequence
from conftest import random_pair, random_subset_pair


def _all_odd(limit):
    return make_sequence(SequenceKind.ALL_ODD, limit)


def _evens(limit, with_zero):
    start = 0 if with_zero else 2
    return ParitySequence(range(start, limit + 1, 2), Parity.EVEN, limit)


# --- seeds -----------------------------------------------------------------

def test_seed_odd_primes():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 10)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    assert ev.computed.items() == [(2, 0)]


def test_seed_even_odd():
    ev = RecursionEvaluator(EvaluatorKind.EVEN_ODD, _evens(10, True), _all_odd(10))
    assert ev.computed.items() == [(1, 1)]


def test_seed_pronic():
    pronic = make_sequence(SequenceKind.PRONIC, 10)
    ev = RecursionEvaluator(EvaluatorKind.EVEN_EVEN, pronic, pronic)
    assert ev.computed.items() == [(0, 1)]


# --- single steps ----------------------------------------------------------

def test_all_odd_g10():
    seq = _all_odd(10)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    series = ev.run_to(10)
    assert series.value_at(10) == 3  # (1,9), (3,7), (5,5)


def test_positive_evens_e10():
    seq = _evens(10, with_zero=False)
    ev = RecursionEvaluator(EvaluatorKind.EVEN_EVEN, seq, seq)
    assert ev.run_to(10).value_at(10) == 2  # (2,8), (4,6)


def test_even_odd_h5():
    ev = RecursionEvaluator(EvaluatorKind.EVEN_ODD, _evens(10, True), _all_odd(10))
    assert ev.run_to(5).value_at(5) == 3  # 0+5, 2+3, 4+1


def test_odd_primes_g6():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 10)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    assert ev.run_to(6).value_at(6) == 1


# --- run_to ----------------------------------------------------------------

def test_run_to_goldbach_golden_values():
    from conftest import GOLDBACH_30

    seq = make_sequence(SequenceKind.ODD_PRIMES, 60)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    assert ev.run_to(60).values == GOLDBACH_30


def test_run_to_pronic_golden_values():
    from conftest import TWO_TRIANGULAR_26

    pronic = make_sequence(SequenceKind.PRONIC, 50)
    ev = RecursionEvaluator(EvaluatorKind.EVEN_EVEN, pronic, pronic)
    assert ev.run_to(50).values == TWO_TRIANGULAR_26


def test_run_to_base_is_single_value():
    seq = _all_odd(8)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    series = ev.run_to(2)
    assert len(series) == 1


def test_run_to_idempotent():
    seq = _all_odd(20)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    first = list(ev.run_to(20).values)
    again = list(ev.run_to(20).values)
    assert first == again
    assert list(ev.run_to(10).values) == first  # shorter request changes nothing


def test_run_to_validation():
    seq = _all_odd(20)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    with pytest.raises(ValueError):
        ev.run_to(0)
    with pytest.raises(ValueError):
        ev.run_to(7)  # off the even lattice
    with pytest.raises(LimitExceededError):
        ev.run_to(22)


def test_run_to_past_the_limit_keeps_every_value_up_to_it():
    rng = random.Random(33)
    a, b = random_pair(rng, EvaluatorKind.EVEN_ODD, 41)
    ev = RecursionEvaluator(EvaluatorKind.EVEN_ODD, a, b)
    with pytest.raises(LimitExceededError, match="argument 43 beyond the materialized limit 41"):
        ev.run_to(45)
    want = RecursionEvaluator(EvaluatorKind.EVEN_ODD, a, b).run_to(41)
    assert ev.computed.values == want.values
    assert ev.last_argument == 41
    assert ev.tail_sum == sum(want.values)
    with pytest.raises(LimitExceededError, match="argument 43 beyond"):
        ev.next()
    assert ev.computed.values == want.values


def _evaluator_cases():
    """One seeded pair for every kind and each formula it admits."""
    rng = random.Random(4242)
    for kind in EvaluatorKind:
        a, b = random_pair(rng, kind, 120)
        pairs = {Formula.GENERAL: (a, b)}
        if kind is not EvaluatorKind.EVEN_ODD:
            pairs[Formula.SUBSET] = random_subset_pair(rng, kind, 120)
            pairs[Formula.EQUAL] = (a, a)
        for formula, pair in pairs.items():
            yield pytest.param(kind, formula, *pair, id=f"{kind.value}-{formula.value}")


@pytest.mark.parametrize("kind, formula, a, b", list(_evaluator_cases()))
def test_next_steps_agree_with_run_to(kind, formula, a, b):
    stepped = RecursionEvaluator(kind, a, b, formula)
    base = stepped.computed.base
    pairs = [stepped.next() for _ in range(30)]
    ran = RecursionEvaluator(kind, a, b, formula)
    ran.run_to(base + 2 * 30)
    assert pairs == ran.computed.items()[1:]
    assert stepped.computed.values == ran.computed.values
    assert stepped.tail_sum == ran.tail_sum == sum(ran.computed.values)


# --- capped sums -----------------------------------------------------------

def _plain_capped_sum(counts, terms, cap, x):
    return sum(int(counts[x - t]) for t in terms.tolist() if t <= cap)


def test_capped_sum_matches_a_plain_sum():
    rng = random.Random(808)
    for _ in range(20):
        limit = rng.randrange(10, 300)
        counts = np.cumsum(
            np.array([rng.random() < 0.5 for _ in range(limit + 1)], dtype=np.int32)
        )
        terms = np.array(sorted(rng.sample(range(limit + 1), rng.randrange(1, limit // 2))),
                         dtype=np.int64)
        x = rng.randrange(int(terms[-1]), limit + 1)
        cases = [
            (int(terms[0]) - 1, x),  # no term is under the cap
            (x // 2, x),
            (x + 5, x),  # the cap is past the last term
            (int(terms[-1]), int(terms[-1])),  # a term equal to x
            (limit, limit),  # x is the table's last index
        ]
        for cap, x in cases:
            want = _plain_capped_sum(counts, terms, cap, x)
            assert _capped_sum(counts, terms, cap, x) == want, (cap, x)


def test_capped_sum_refuses_x_past_the_table():
    # A reversed view from such an x would clamp it and shift every index.
    counts = np.arange(11, dtype=np.int32)
    terms = np.array([1, 3, 5], dtype=np.int64)
    assert _capped_sum(counts, terms, 5, 10) == 9 + 7 + 5
    for x in (-1, 11, 12, 40):
        with pytest.raises(LimitExceededError):
            _capped_sum(counts, terms, 5, x)


# --- constructor errors ----------------------------------------------------

def test_parity_mismatch_rejected():
    with pytest.raises(ParityMismatchError):
        RecursionEvaluator(EvaluatorKind.ODD_ODD, _all_odd(10), _evens(10, True))
    with pytest.raises(ParityMismatchError):
        RecursionEvaluator(EvaluatorKind.EVEN_ODD, _all_odd(10), _all_odd(10))


def test_mixed_parity_rejected():
    primes = make_sequence(SequenceKind.PRIMES, 10)
    with pytest.raises(ParityMismatchError):
        RecursionEvaluator(EvaluatorKind.EVEN_ODD, _evens(10, True), primes)


def test_limit_mismatch_rejected():
    with pytest.raises(LimitMismatchError):
        RecursionEvaluator(EvaluatorKind.ODD_ODD, _all_odd(10), _all_odd(12))


# --- specialized formulas ---------------------------------------------------

def test_subset_violation_and_equal_violation():
    s = ParitySequence([1, 5], Parity.ODD, 10)
    t = ParitySequence([3, 5], Parity.ODD, 10)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, s, t)
    with pytest.raises(ContainmentError):
        ev.specialized_subset()
    with pytest.raises(ContainmentError):
        ev.specialized_equal()


def test_even_odd_has_no_specialized_forms():
    ev = RecursionEvaluator(EvaluatorKind.EVEN_ODD, _evens(10, True), _all_odd(10))
    with pytest.raises(ContainmentError):
        ev.specialized_subset()


def test_subset_small_example():
    s = ParitySequence([3], Parity.ODD, 10)
    t = ParitySequence([3, 5], Parity.ODD, 10)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, s, t, Formula.SUBSET)
    assert ev.run_to(8).value_at(8) == 1  # 3 + 5


def test_chen_subset_example():
    limit = 24
    s = make_sequence(SequenceKind.ODD_PRIMES, limit)
    t = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, limit)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, s, t).specialized_subset()
    assert ev.run_to(12).value_at(12) == 2


def test_equal_formula_examples():
    primes = make_sequence(SequenceKind.ODD_PRIMES, 10)
    assert RecursionEvaluator(
        EvaluatorKind.ODD_ODD, primes, primes, Formula.EQUAL
    ).run_to(10).value_at(10) == 2

    pronic = make_sequence(SequenceKind.PRONIC, 12)
    assert RecursionEvaluator(
        EvaluatorKind.EVEN_EVEN, pronic, pronic, Formula.EQUAL
    ).run_to(12).value_at(12) == 2  # t(6) = 2

    odds = _all_odd(4)
    assert RecursionEvaluator(
        EvaluatorKind.ODD_ODD, odds, odds, Formula.EQUAL
    ).run_to(4).value_at(4) == 1


def test_equal_pair_subset_form_matches_equal_form():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 200)
    general = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    subset = general.specialized_subset()
    equal = general.specialized_equal()
    want = general.run_to(200).values
    assert subset.run_to(200).values == want
    assert equal.run_to(200).values == want


def test_one_prefix_table_per_distinct_sequence():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 200)
    copy = ParitySequence(seq.terms.copy(), Parity.ODD, 200)
    chen = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, 200)
    evaluators = {
        "self": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq),
        "copy": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, copy),
        "equal": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, copy, Formula.EQUAL),
        "subset": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, chen, Formula.SUBSET),
    }
    tables = {
        name: len({id(ev._a[1]), id(ev._b[1]), id(ev._w[1])})
        for name, ev in evaluators.items()
    }
    assert tables == {"self": 1, "copy": 3, "equal": 1, "subset": 2}
    want = evaluators["copy"].run_to(200).values
    assert evaluators["self"].run_to(200).values == want
    assert evaluators["equal"].run_to(200).values == want


def test_specializations_reuse_the_held_tables(monkeypatch):
    seq = make_sequence(SequenceKind.ODD_PRIMES, 200)
    chen = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, 200)
    contained = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, chen)
    same = RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq)
    built = []
    build = recursion._prefix_table
    monkeypatch.setattr(recursion, "_prefix_table", lambda s: built.append(s) or build(s))
    subset = contained.specialized_subset()
    equal = same.specialized_equal()
    equal_subset = equal.specialized_subset()
    assert built == []
    assert subset._a is contained._a and subset._b is contained._b
    assert equal._a is equal._b is same._a
    assert subset.run_to(200).values == contained.run_to(200).values
    want = same.run_to(200).values
    assert equal.run_to(200).values == equal_subset.run_to(200).values == want


def test_corollary_consistency_random():
    rng = random.Random(99)
    for kind in (EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN):
        for _ in range(8):
            limit = rng.randrange(60, 400)
            small, big = random_subset_pair(rng, kind, limit)
            general = RecursionEvaluator(kind, small, big)
            subset = general.specialized_subset()
            base = general.computed.base
            x_last = base + 2 * ((limit - base) // 2)
            assert general.run_to(x_last).values == subset.run_to(x_last).values


# --- oracle equivalence and invariants --------------------------------------

@pytest.mark.parametrize("kind", list(EvaluatorKind))
def test_matches_oracle_randomized(kind):
    rng = random.Random(hash(kind.value) & 0xFFFF)
    for _ in range(12):
        limit = rng.randrange(40, 500)
        a, b = random_pair(rng, kind, limit)
        ev = RecursionEvaluator(kind, a, b)
        base = ev.computed.base
        x_last = base + 2 * ((limit - base) // 2)
        got = ev.run_to(x_last)
        want = brute_count_series(
            a, b, x_last, role_tagged=kind is EvaluatorKind.EVEN_ODD, base=base
        )
        assert got.values == want.values
        assert all(v >= 0 for v in got.values)
        assert ev.tail_sum == sum(got.values)


@pytest.mark.parametrize("kind", list(EvaluatorKind))
def test_matches_engine_at_the_custom_benchmark_size(kind):
    rng = random.Random(20_000 + _BASES[kind])
    a, b = random_pair(rng, kind, 20_000)
    base = _BASES[kind]
    x_last = base + 2 * ((20_000 - base) // 2)
    got = RecursionEvaluator(kind, a, b).run_to(x_last).values
    assert got == count_series(kind, x_last, a.terms, b.terms).tolist()


def test_swap_symmetry_unordered_kinds():
    rng = random.Random(7)
    for kind in (EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN):
        limit = 300
        a, b = random_pair(rng, kind, limit)
        base = 2 if kind is EvaluatorKind.ODD_ODD else 0
        x_last = base + 2 * ((limit - base) // 2)
        fwd = RecursionEvaluator(kind, a, b).run_to(x_last).values
        rev = RecursionEvaluator(kind, b, a).run_to(x_last).values
        assert fwd == rev


def test_counts_bounded_by_counting_product():
    rng = random.Random(21)
    a, b = random_pair(rng, EvaluatorKind.ODD_ODD, 240)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, a, b)
    series = ev.run_to(240)
    for x, v in series.items():
        assert v <= a.counting(x) * b.counting(x)


def test_empty_sequences_give_zero_counts():
    empty = ParitySequence([], Parity.ODD, 50)
    other = _all_odd(50)
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, empty, other)
    assert all(v == 0 for v in ev.run_to(50).values)


# --- the incremental identity ------------------------------------------------

def _direct_unordered_functional(a, b, w, x):
    """The one-shot (non-incremental) form of the odd-odd/even-even step."""
    half = x // 2
    s1 = sum(a.counting(x - t) for t in b.terms if t <= half)
    s2 = sum(b.counting(x - s) for s in a.terms if s <= half)
    s3 = sum(w.counting(x - u) for u in w.terms if u <= half)
    return (
        s1 + s2 - s3
        - a.counting(half) * b.counting(half)
        + math.comb(w.counting(half) + 1, 2)
    )


def _direct_role_functional(u, v, x):
    """The one-shot form of the even-odd step."""
    half = (x + 1) // 2
    s1 = sum(u.counting(x - t) for t in v.terms if t <= half)
    s2 = sum(v.counting(x - s) for s in u.terms if s <= half)
    return s1 + s2 - u.counting(half) * v.counting(half)


def test_incremental_identity_odd_odd():
    rng = random.Random(5150)
    for _ in range(6):
        limit = rng.randrange(60, 260)
        a, b = random_pair(rng, EvaluatorKind.ODD_ODD, limit)
        w = intersect(a, b)
        x_last = 2 + 2 * ((limit - 2) // 2)
        oracle = brute_count_series(a, b, x_last, base=2)
        for x in range(2, x_last - 1, 2):
            delta = _direct_unordered_functional(a, b, w, x + 2) - _direct_unordered_functional(a, b, w, x)
            assert delta == oracle.value_at(x + 2)


def test_incremental_identity_even_odd():
    rng = random.Random(5151)
    for _ in range(6):
        limit = rng.randrange(60, 260)
        a, b = random_pair(rng, EvaluatorKind.EVEN_ODD, limit)
        x_last = 1 + 2 * ((limit - 1) // 2)
        oracle = brute_count_series(a, b, x_last, role_tagged=True, base=1)
        for x in range(1, x_last - 1, 2):
            delta = _direct_role_functional(a, b, x + 2) - _direct_role_functional(a, b, x)
            assert delta == oracle.value_at(x + 2)


# --- CountSeries -------------------------------------------------------------

def test_count_series_accessors():
    s = CountSeries(2, [5, 6, 7])
    assert list(s.arguments()) == [2, 4, 6]
    assert s.value_at(4) == 6
    assert s.items() == [(2, 5), (4, 6), (6, 7)]
    with pytest.raises(KeyError):
        s.value_at(3)
    with pytest.raises(KeyError):
        s.value_at(8)
