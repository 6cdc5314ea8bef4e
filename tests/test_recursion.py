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
    CountSeries,
    EvaluatorKind,
    Formula,
    RecursionEvaluator,
    _capped_sum,
)
from addrep.sequences import Parity, ParitySequence, SequenceKind, intersect, make_sequence
from conftest import (
    direct_role_functional,
    direct_unordered_functional,
    random_pair,
    random_subset_pair,
)


def _all_odd(limit):
    return make_sequence(SequenceKind.ALL_ODD, limit)


def _evens(limit, with_zero):
    start = 0 if with_zero else 2
    return ParitySequence(range(start, limit + 1, 2), Parity.EVEN, limit)


# --- kinds -----------------------------------------------------------------

@pytest.mark.parametrize("parities, expected", [
    ((Parity.ODD, Parity.ODD), EvaluatorKind.ODD_ODD),
    ((Parity.EVEN, Parity.EVEN), EvaluatorKind.EVEN_EVEN),
    ((Parity.EVEN, Parity.ODD), EvaluatorKind.EVEN_ODD),
    ((Parity.ODD, Parity.EVEN), None),  # roles in order: the even sequence first
])
def test_kind_of_a_pair_of_parities(parities, expected):
    kind = EvaluatorKind.of(*parities)
    assert kind is expected
    if kind is not None:
        assert kind.parities == parities
        assert EvaluatorKind(kind.value) is kind
        # The base is the least sum of the two lattices' first terms, 1 or 0.
        first = {Parity.ODD: 1, Parity.EVEN: 0}
        assert kind.base == first[parities[0]] + first[parities[1]]


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
        pairs = {"general": (a, b)}
        if kind is not EvaluatorKind.EVEN_ODD:
            pairs["subset"] = random_subset_pair(rng, kind, 120)
            pairs["equal"] = (a, a)
        for formula, pair in pairs.items():
            yield pytest.param(kind, formula, *pair, id=f"{kind.value}-{formula}")


def _evaluator(kind, formula, a, b):
    """A fresh evaluator of the pair: the general one, or its
    ``specialized_subset()`` or ``specialized_equal()``."""
    general = RecursionEvaluator(kind, a, b)
    if formula == "subset":
        return general.specialized_subset()
    if formula == "equal":
        return general.specialized_equal()
    return general


@pytest.mark.parametrize("kind, formula, a, b", list(_evaluator_cases()))
def test_next_steps_agree_with_run_to(kind, formula, a, b):
    stepped = _evaluator(kind, formula, a, b)
    base = stepped.computed.base
    pairs = [stepped.next() for _ in range(30)]
    ran = _evaluator(kind, formula, a, b)
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


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_capped_sum_past_2_to_31_is_exact(dtype):
    counts = np.full(11, 2**31 - 1, dtype=dtype)
    terms = np.arange(0, 11, 2)  # six terms, each reading 2^31 - 1
    assert _capped_sum(counts, terms, 10, 10) == 6 * (2**31 - 1)
    assert _capped_sum(counts, terms, 5, 10) == 3 * (2**31 - 1)


def test_prefix_table_is_int64():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 100)
    table = recursion._prefix_table(seq)
    assert table.dtype == np.int64
    assert table.tolist() == [seq.counting(x) for x in range(101)]


def _summed_sets(ev):
    """The term sets each step's capped sums run over, in call order."""
    a, b, w = ev.seq_a, ev.seq_b, ev.seq_w
    if ev.formula is Formula.EQUAL:
        return [a]
    return [b, a] if w is None else [b, a, w]


@pytest.mark.parametrize("kind, formula, a, b", list(_evaluator_cases()))
def test_each_capped_sum_gets_exactly_the_terms_up_to_half(kind, formula, a, b, monkeypatch):
    calls = []
    kernel = recursion._capped_sum

    def recording(counts, terms, cap, x):
        calls.append((x, cap, np.array(terms)))
        return kernel(counts, terms, cap, x)

    monkeypatch.setattr(recursion, "_capped_sum", recording)
    ev = _evaluator(kind, formula, a, b)
    sets = _summed_sets(ev)
    x_last = ev.computed.base + 2 * ((a.limit - ev.computed.base) // 2)
    ev.run_to(x_last)
    targets = list(ev.computed.arguments())[1:]
    assert len(calls) == len(sets) * len(targets)
    for i, x in enumerate(targets):
        half = (x + 1) // 2
        for (got_x, cap, terms), seq in zip(calls[i * len(sets):(i + 1) * len(sets)], sets):
            assert (got_x, cap) == (x, half)
            assert not len(terms) or terms[-1] <= cap, (x, cap)
            want = seq.terms[:np.searchsorted(seq.terms, half, side="right")]
            np.testing.assert_array_equal(terms, want, err_msg=f"x = {x}")


@pytest.mark.parametrize("kind, formula, a, b", list(_evaluator_cases()))
def test_functional_past_the_tables_raises(kind, formula, a, b):
    ev = _evaluator(kind, formula, a, b)
    base, limit = ev.computed.base, a.limit
    inside = base + 2 * ((limit - base) // 2)
    assert ev._functional(inside) == sum(ev.run_to(inside).values)
    # half <= limit < x: the target itself is past the tables.
    with pytest.raises(LimitExceededError):
        ev._functional(inside + 2)
    # half > limit: so is the midpoint each table is read at.
    with pytest.raises(LimitExceededError):
        ev._functional(base + 2 * (limit + 1))


@pytest.mark.parametrize("kind, formula, a, b", list(_evaluator_cases()))
def test_functional_off_the_lattice_sums_the_counts_up_to_x(kind, formula, a, b):
    # At every x, on the target lattice or off it, the functional is the
    # sum of the counts at targets <= x: each step's cap is exact there.
    ev = _evaluator(kind, formula, a, b)
    base, limit = ev.computed.base, a.limit
    counts = dict(ev.run_to(base + 2 * ((limit - base) // 2)).items())
    running = 0
    for x in range(limit + 1):
        running += counts.get(x, 0)
        assert ev._functional(x) == running, x


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
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, s, t).specialized_subset()
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


def test_a_disjoint_pair_sums_over_a_and_b_alone(monkeypatch):
    # 1 mod 4 against 3 mod 4 share no term: no W, so two prefix tables and
    # two capped sums a step, with the oracle's counts.  An empty side lies
    # within the other and stays W, so its subset form still runs.
    limit = 200
    a = ParitySequence(range(1, limit + 1, 4), Parity.ODD, limit)
    b = ParitySequence(range(3, limit + 1, 4), Parity.ODD, limit)
    tables, sums = [], []
    table, kernel = recursion._prefix_table, recursion._capped_sum
    monkeypatch.setattr(recursion, "_prefix_table", lambda seq: tables.append(seq) or table(seq))
    monkeypatch.setattr(recursion, "_capped_sum", lambda *args: sums.append(args) or kernel(*args))
    ev = RecursionEvaluator(EvaluatorKind.ODD_ODD, a, b)
    assert ev.seq_w is None and tables == [a, b]
    values = ev.run_to(limit).values
    assert len(sums) == 2 * (len(values) - 1)
    assert values == brute_count_series(a, b, limit, base=2).values
    empty = ParitySequence([], Parity.ODD, limit)
    assert RecursionEvaluator(EvaluatorKind.ODD_ODD, a, empty).seq_w is empty
    subset = RecursionEvaluator(EvaluatorKind.ODD_ODD, empty, b).specialized_subset()
    assert subset.seq_w is empty and subset.run_to(limit).values == [0] * len(values)


def test_one_prefix_table_per_distinct_sequence():
    seq = make_sequence(SequenceKind.ODD_PRIMES, 200)
    copy = ParitySequence(seq.terms.copy(), Parity.ODD, 200)
    chen = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, 200)
    evaluators = {
        "self": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, seq),
        "copy": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, copy),
        "equal": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, copy, Formula.EQUAL),
        "subset": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, chen).specialized_subset(),
        "contained": RecursionEvaluator(EvaluatorKind.ODD_ODD, seq, chen),
        "reversed": RecursionEvaluator(EvaluatorKind.ODD_ODD, chen, seq),
    }
    tables = {
        name: len({id(ev._a[1]), id(ev._b[1]), id(ev._w[1])})
        for name, ev in evaluators.items()
    }
    assert tables == {
        "self": 1, "copy": 1, "equal": 1, "subset": 2, "contained": 2, "reversed": 2
    }
    assert evaluators["contained"].seq_w is evaluators["contained"].seq_a
    assert evaluators["reversed"].seq_w is evaluators["reversed"].seq_b
    want = evaluators["copy"].run_to(200).values
    assert evaluators["self"].run_to(200).values == want
    assert evaluators["equal"].run_to(200).values == want
    oracle = brute_count_series(chen, seq, 200, base=2).values
    assert evaluators["reversed"].run_to(200).values == oracle
    assert count_series(EvaluatorKind.ODD_ODD, 200, chen.terms, seq.terms).tolist() == oracle


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
    rng = random.Random(20_000 + kind.base)
    a, b = random_pair(rng, kind, 20_000)
    base = kind.base
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

def test_incremental_identity_odd_odd():
    rng = random.Random(5150)
    for _ in range(6):
        limit = rng.randrange(60, 260)
        a, b = random_pair(rng, EvaluatorKind.ODD_ODD, limit)
        w = intersect(a, b)
        x_last = 2 + 2 * ((limit - 2) // 2)
        oracle = brute_count_series(a, b, x_last, base=2)
        for x in range(2, x_last - 1, 2):
            delta = direct_unordered_functional(a, b, w, x + 2) - direct_unordered_functional(a, b, w, x)
            assert delta == oracle.value_at(x + 2)


def test_incremental_identity_even_odd():
    rng = random.Random(5151)
    for _ in range(6):
        limit = rng.randrange(60, 260)
        a, b = random_pair(rng, EvaluatorKind.EVEN_ODD, limit)
        x_last = 1 + 2 * ((limit - 1) // 2)
        oracle = brute_count_series(a, b, x_last, role_tagged=True, base=1)
        for x in range(1, x_last - 1, 2):
            delta = direct_role_functional(a, b, x + 2) - direct_role_functional(a, b, x)
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
