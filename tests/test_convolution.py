import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addrep import convolution
from addrep.convolution import count_series, exact_counts, fast_length
from addrep.errors import ResourceBudgetError
from addrep.oracle import brute_count_series
from addrep.recursion import _BASES, EvaluatorKind, Formula, RecursionEvaluator
from addrep.sequences import Parity, ParitySequence, SequenceKind, build_sieve, make_sequence
from conftest import KIND_PARITIES


def _first_term(parity: Parity) -> int:
    return 1 if parity is Parity.ODD else 0


def _sequence(parity: Parity, limit: int, slots) -> ParitySequence:
    start = _first_term(parity)
    return ParitySequence([start + 2 * i for i in sorted(slots)], parity, limit)


def _forced_routes(kind, x_last, a_terms, b_terms):
    """The engine's counts by its shifted adds and by its transform route,
    that route with the subset route left to itself, forced off and, where
    A is within B, forced on; equal sequences also run as a pair."""
    size = (x_last - _BASES[kind]) // 2 + 1
    length = fast_length(2 * size - 1)
    a_terms = a_terms[a_terms < 2 * size]  # the terms count_series keeps
    b_terms = None if b_terms is None else b_terms[b_terms < 2 * size]
    routes = [convolution._by_shifts(kind, size, a_terms, b_terms)]
    for b in [b_terms] if b_terms is not None else [None, a_terms]:
        subsets = [None, False]
        if b is not None and np.isin(a_terms, b).all():
            subsets.append(True)
        for subset in subsets:
            routes.append(convolution._by_fft(kind, size, length, a_terms, b, subset))
    return [counts.tolist() for counts in routes]


def _check_three_routes(kind, a, b, relation):
    """Engine (by any of its routes) == every applicable recursion
    formula == brute force."""
    base = _BASES[kind]
    x_last = base + 2 * ((a.limit - base) // 2)
    b_terms = None if relation == "equal" else b.terms
    engine = count_series(kind, x_last, a.terms, b_terms).tolist()
    for counts in _forced_routes(kind, x_last, a.terms, b_terms):
        assert counts == engine
    formulas = [Formula.GENERAL]
    if kind is not EvaluatorKind.EVEN_ODD and relation in ("subset", "equal"):
        formulas.append(Formula.SUBSET)
        if relation == "equal":
            formulas.append(Formula.EQUAL)
    for formula in formulas:
        recursion = RecursionEvaluator(kind, a, b, formula).run_to(x_last).values
        assert engine == recursion, formula
    oracle = brute_count_series(
        a, b, x_last, role_tagged=kind is EvaluatorKind.EVEN_ODD, base=base
    ).values
    assert engine == oracle


@st.composite
def sequence_pairs(draw):
    kind = draw(st.sampled_from(list(EvaluatorKind)))
    pa, pb = KIND_PARITIES[kind]
    limit = draw(st.integers(_BASES[kind], 150))  # odd and even limits
    relation = "independent"
    if kind is not EvaluatorKind.EVEN_ODD:
        relation = draw(st.sampled_from(
            ["independent", "subset", "equal", "overlapping", "disjoint"]))
    slots_a = range((limit - _first_term(pa)) // 2 + 1)
    slots_b = range((limit - _first_term(pb)) // 2 + 1)
    b_slots = draw(st.sets(st.sampled_from(slots_b)) if slots_b else st.just(set()))
    if relation == "equal":
        a_slots = b_slots
    elif relation == "subset":
        a_slots = {s for s in b_slots if draw(st.booleans())}
    elif relation == "overlapping":  # some terms shared, some not
        outside = [s for s in slots_a if s not in b_slots]
        assume(b_slots and outside)
        a_slots = (draw(st.sets(st.sampled_from(sorted(b_slots)), min_size=1))
                   | draw(st.sets(st.sampled_from(outside), min_size=1)))
    else:
        a_slots = draw(st.sets(st.sampled_from(slots_a)) if slots_a else st.just(set()))
        if relation == "disjoint":
            a_slots -= b_slots
    a = _sequence(pa, limit, a_slots)
    b = _sequence(pb, limit, b_slots)
    return kind, a, b, relation


@settings(max_examples=300, deadline=None)
@given(sequence_pairs())
def test_engine_equals_recursion_and_oracle(case):
    _check_three_routes(*case)


@pytest.mark.parametrize("kind", list(EvaluatorKind))
@pytest.mark.parametrize("limit_offset", [0, 1, 2, 7])
@pytest.mark.parametrize("shape", ["empty", "single", "first", "full"])
def test_engine_edge_cases(kind, limit_offset, shape):
    # Limits equal to the base and just past it; empty and one-term
    # sequences; the first lattice term, which is 0 in even sequences.
    pa, pb = KIND_PARITIES[kind]
    limit = _BASES[kind] + limit_offset
    slots_b = range((limit - _first_term(pb)) // 2 + 1)
    chosen = {
        "empty": set(),
        "single": {len(slots_b) - 1} if slots_b else set(),
        "first": {0} if slots_b else set(),
        "full": set(slots_b),
    }[shape]
    b = _sequence(pb, limit, chosen)
    a = _sequence(pa, limit, chosen if pa is pb else {0})
    relation = "independent" if kind is EvaluatorKind.EVEN_ODD else "equal"
    _check_three_routes(kind, a, b, relation)


@pytest.mark.parametrize("kind", list(EvaluatorKind))
@pytest.mark.parametrize("short_terms", [0, 1, 2, 3])
@pytest.mark.parametrize("short_side", ["a", "b"])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("limit", [40, 151])
def test_short_side_against_a_long_one(kind, short_terms, short_side, shared, limit):
    # Sides of 0-3 terms, the shape the shifted adds are for; their terms
    # drawn from the long side (shared) or anywhere on the lattice.
    rng = random.Random(f"{kind.value}{short_terms}{short_side}{shared}{limit}")
    long_parity, short_parity = KIND_PARITIES[kind][::-1 if short_side == "a" else 1]
    long_slots = {s for s in range((limit - _first_term(long_parity)) // 2 + 1)
                  if rng.random() < 0.6}
    pool = sorted(long_slots) if shared and long_parity is short_parity else range(
        (limit - _first_term(short_parity)) // 2 + 1)
    short_slots = rng.sample(pool, min(short_terms, len(pool)))
    long_seq = _sequence(long_parity, limit, long_slots)
    short_seq = _sequence(short_parity, limit, short_slots)
    a, b = (short_seq, long_seq) if short_side == "a" else (long_seq, short_seq)
    relation = "subset" if shared and kind is not EvaluatorKind.EVEN_ODD else "independent"
    if relation == "subset" and short_side == "b":
        relation = "independent"  # the subset formulas need the smaller side first
    _check_three_routes(kind, a, b, relation)


@pytest.mark.parametrize("kind", [EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN])
@pytest.mark.parametrize("slots", [(), (0,), (0, 3), (1, 2, 7)])
def test_short_equal_sequences(kind, slots):
    seq = _sequence(KIND_PARITIES[kind][0], 30, slots)
    _check_three_routes(kind, seq, seq, "equal")


@pytest.mark.parametrize("kind", [EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN])
@pytest.mark.parametrize("relation", ["equal", "subset", "overlapping"])
def test_shared_term_on_the_last_target(kind, relation):
    # The last target is twice the shared slot 3 (x = 14 = 7 + 7 for odd
    # terms, 12 = 6 + 6 for even ones): the delta correction's last entry.
    slots_a = {"equal": (0, 1, 3), "subset": (1, 3), "overlapping": (0, 3)}[relation]
    slots_b = (1, 2, 3) if relation == "overlapping" else (0, 1, 3)
    parity = KIND_PARITIES[kind][0]
    limit = 2 * (2 * 3 + _first_term(parity))
    a, b = _sequence(parity, limit, slots_a), _sequence(parity, limit, slots_b)
    _check_three_routes(kind, a, b, relation)


def test_chen_contained_pair_takes_two_transforms(monkeypatch):
    # The odd primes lie within the primes and odd semiprimes, so W = A and
    # the spectrum fa (2 fb - fa) takes two forward transforms, not three.
    x_max = 2 * 10**4
    tables = build_sieve(x_max)
    a = make_sequence(SequenceKind.ODD_PRIMES, x_max, tables=tables).terms
    b = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, x_max, tables=tables).terms
    rfft, calls = np.fft.rfft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    counts = count_series(EvaluatorKind.ODD_ODD, x_max, a, b)
    assert len(calls) == 2
    size = x_max // 2
    assert counts.tolist() == convolution._by_shifts(EvaluatorKind.ODD_ODD, size, a, b).tolist()


def test_a_one_term_side_runs_no_transform(monkeypatch):
    # Chen-total's even-even part: {2} against {2} and the doubled primes.
    def no_transform(*args, **kwargs):
        raise AssertionError("transform on a one-term side")

    x_max = 2 * 10**6
    b = np.concatenate(([2], 2 * build_sieve(x_max // 2).primes))
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    counts = count_series(EvaluatorKind.EVEN_EVEN, x_max, np.array([2]), b)
    assert counts[:6].tolist() == [0, 0, 1, 1, 1, 0]  # 4 = 2+2, 6 = 2+4, 8 = 2+6; not 10
    assert counts.sum() == len(b)


def test_terms_past_x_max_are_ignored():
    terms = np.arange(1, 101, 2, dtype=np.int64)
    assert count_series(EvaluatorKind.ODD_ODD, 20, terms).tolist() == (
        count_series(EvaluatorKind.ODD_ODD, 20, terms[terms <= 20]).tolist()
    )


def test_rejects_x_max_below_base():
    with pytest.raises(ValueError):
        count_series(EvaluatorKind.ODD_ODD, 1, np.array([1], dtype=np.int64))


def test_rounding_guard_raises_off_integer_values():
    assert exact_counts(np.array([0.0, 1.2499, 2.7501])).tolist() == [0, 1, 3]
    for off in (0.25, 0.5, -0.3, np.nan, np.inf, -np.inf):
        with pytest.raises(ResourceBudgetError):
            exact_counts(np.array([1.0, 4.0 + off, 2.0]))


@pytest.mark.parametrize("shape", ["goldbach", "chen", "lemoine-levy"])
def test_transform_route_peak_memory_per_target(shape):
    # One float64 indicator (8 B per target) and the spectra of length
    # L / 2 + 1 = K + 1 (16 B per target each): a pair holds the indicator
    # and two spectra at its second transform, an equal pair one spectrum
    # and the inverse transform's output.
    n = 10**5
    tables = build_sieve(2 * n)
    odd_primes = make_sequence(SequenceKind.ODD_PRIMES, 2 * n, tables=tables).terms
    kind, x_max, a, b, bound = {
        "goldbach": (EvaluatorKind.ODD_ODD, 2 * n, odd_primes, None, 33),
        "chen": (EvaluatorKind.ODD_ODD, 2 * n, odd_primes, make_sequence(
            SequenceKind.PRIME_OR_ODD_SEMIPRIME, 2 * n, tables=tables).terms, 41),
        "lemoine-levy": (EvaluatorKind.EVEN_ODD, 2 * n - 1, make_sequence(
            SequenceKind.DOUBLED_PRIMES, 2 * n, tables=tables).terms, odd_primes, 41),
    }[shape]
    count_series(kind, x_max, a, b)  # numpy's plan for this length, made once
    tracemalloc.start()
    try:
        counts = count_series(kind, x_max, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == n
    assert peak < bound * n  # 70-107 B per target with full-length temporaries


def test_fast_length_is_smallest_5_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        want = next(m for m in range(n, 2 * n + 1) if smooth(m))
        assert fast_length(n) == want
    assert fast_length(2 * 10**6 - 1) == 2 * 10**6
