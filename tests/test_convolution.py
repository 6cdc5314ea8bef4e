import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addrep.convolution import count_series, exact_counts, fast_length
from addrep.errors import ResourceBudgetError
from addrep.oracle import brute_count_series
from addrep.recursion import _BASES, EvaluatorKind, Formula, RecursionEvaluator
from addrep.sequences import Parity, ParitySequence
from conftest import KIND_PARITIES


def _first_term(parity: Parity) -> int:
    return 1 if parity is Parity.ODD else 0


def _sequence(parity: Parity, limit: int, slots) -> ParitySequence:
    start = _first_term(parity)
    return ParitySequence([start + 2 * i for i in sorted(slots)], parity, limit)


def _check_three_routes(kind, a, b, relation):
    """Engine == every applicable recursion formula == brute force."""
    base = _BASES[kind]
    x_last = base + 2 * ((a.limit - base) // 2)
    engine = count_series(
        kind, x_last, a.terms, None if relation == "equal" else b.terms
    ).tolist()
    formulas = [Formula.GENERAL]
    if kind is not EvaluatorKind.EVEN_ODD and relation != "independent":
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
        relation = draw(st.sampled_from(["independent", "subset", "equal"]))
    slots_a = range((limit - _first_term(pa)) // 2 + 1)
    slots_b = range((limit - _first_term(pb)) // 2 + 1)
    b_slots = draw(st.sets(st.sampled_from(slots_b)) if slots_b else st.just(set()))
    if relation == "equal":
        a_slots = b_slots
    elif relation == "subset":
        a_slots = {s for s in b_slots if draw(st.booleans())}
    else:
        a_slots = draw(st.sets(st.sampled_from(slots_a)) if slots_a else st.just(set()))
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
    for off in (0.25, 0.5, -0.3):
        with pytest.raises(ResourceBudgetError):
            exact_counts(np.array([1.0, 4.0 + off, 2.0]))


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
