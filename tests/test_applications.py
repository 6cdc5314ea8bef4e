import random

import pytest

from addrep import applications
from addrep.applications import PROBLEMS, custom_problem, problem_series
from addrep.errors import LimitExceededError, ParityMismatchError
from addrep.recursion import EvaluatorKind
from addrep.sequences import (
    Parity,
    ParitySequence,
    SequenceKind,
    build_sieve,
    make_sequence,
)
from conftest import (
    CHEN_ODD_ODD_21,
    CHEN_TOTAL_21,
    GOLDBACH_30,
    LEMOINE_26,
    TWO_TRIANGULAR_26,
    random_pair,
)


# --- golden first terms -------------------------------------------------------

def test_goldbach_first_terms():
    series = applications.goldbach(30)
    assert series.values == GOLDBACH_30
    assert series.value_at(2) == 0
    assert series.value_at(6) == 1
    assert series.value_at(60) == 6


def test_chen_odd_odd_first_terms():
    series = applications.chen_odd_odd(21)
    assert series.values == CHEN_ODD_ODD_21
    assert series.values[2] == 1   # n = 3
    assert series.values[12] == 6  # n = 13
    assert series.values[20] == 7  # n = 21


def test_chen_total_first_terms():
    series = applications.chen_total(21)
    assert series.values == CHEN_TOTAL_21
    assert series.values[0] == 0   # n = 1
    assert series.values[1] == 1   # n = 2
    assert series.values[13] == 7  # n = 14


def test_lemoine_levy_first_terms():
    series = applications.lemoine_levy(26)
    assert series.values == LEMOINE_26
    assert series.value_at(7) == 1    # n = 4
    assert series.value_at(17) == 4   # n = 9
    assert series.value_at(51) == 7   # n = 26


def test_two_triangular_first_terms():
    series = applications.two_triangular(25)
    assert series.values == TWO_TRIANGULAR_26
    assert series.value_at(0) == 1
    assert series.value_at(12) == 2   # t(6)
    assert series.value_at(50) == 1   # t(25)


def test_two_squares_first_terms():
    series = applications.two_squares(6)
    assert series.values == [1, 1, 1, 1, 1, 0, 2]
    assert series.value_at(1) == 1
    assert series.value_at(21) == 0
    assert series.value_at(25) == 2


# --- argument conventions -------------------------------------------------------

def test_series_bases_and_steps():
    assert applications.goldbach(3).base == 2
    assert applications.lemoine_levy(3).base == 1
    assert applications.two_squares(3).step == 4
    assert applications.two_triangular(3).base == 0


def test_x_of_n():
    assert PROBLEMS["goldbach"].x_of_n(30) == 60
    assert PROBLEMS["lemoine-levy"].x_of_n(26) == 51
    assert PROBLEMS["two-squares"].x_of_n(5) == 21
    assert PROBLEMS["two-triangular"].x_of_n(7) == 14


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_rejects_too_small_n(name):
    spec = PROBLEMS[name]
    with pytest.raises(ValueError):
        spec.compute(spec.n_start - 1)


# --- three-way equality: recursion, generic evaluator, brute force ---------------

def _custom_problems():
    """Seeded random pairs of every parity shape, an even-odd pair given
    odd first, and a one-term even sequence, as custom problems."""
    rng = random.Random(2009)
    pairs = {f"custom-{kind.value}": random_pair(rng, kind, 242) for kind in EvaluatorKind}
    even, odd = random_pair(rng, EvaluatorKind.EVEN_ODD, 242)
    pairs["custom-odd-first"] = (odd, even)
    pairs["custom-one-term"] = (ParitySequence([2], Parity.EVEN, 242), even)
    return {name: custom_problem(a, b) for name, (a, b) in pairs.items()}


SPECS = {**PROBLEMS, **_custom_problems()}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_recursion_equals_evaluator_and_oracle(name):
    spec = SPECS[name]
    n_max = 120
    fast = problem_series(spec, n_max, "engine")
    assert fast == spec.compute(n_max).values
    assert fast == spec.evaluator_series(n_max)
    assert fast == spec.oracle_series(n_max)


def test_custom_problem_rejects_mixed_parity():
    primes = make_sequence(SequenceKind.PRIMES, 50)  # 2 and the odd primes
    with pytest.raises(ParityMismatchError):
        custom_problem(primes, primes)


@pytest.mark.parametrize("route", ["engine", "recursion", "oracle"])
def test_custom_routes_refuse_targets_past_the_sequences(route):
    odd = make_sequence(SequenceKind.ODD_PRIMES, 50)
    spec = custom_problem(odd, odd)
    assert problem_series(spec, 24, route) == problem_series(spec, 24, "oracle")
    with pytest.raises(LimitExceededError):
        problem_series(spec, 25, route)  # target 52


@pytest.mark.parametrize("offset", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_first_terms_agree_on_every_route(name, offset):
    spec = PROBLEMS[name]
    n_max = spec.n_start + offset
    fast = spec.compute(n_max).values
    assert fast == spec.evaluator_series(n_max) == spec.oracle_series(n_max)
    assert spec.run(n_max).values == fast


def test_shared_tables_are_accepted():
    tables = build_sieve(400)
    assert applications.goldbach(120, tables).values == applications.goldbach(120).values
    assert applications.chen_total(100, tables).values == applications.chen_total(100).values


@pytest.mark.parametrize("name", sorted(n for n, s in PROBLEMS.items() if s.sieved))
def test_shared_tables_must_reach_the_last_target(name):
    spec = PROBLEMS[name]
    x_max = spec.x_of_n(50)  # lemoine-levy stops at the odd 2n - 1
    with pytest.raises(LimitExceededError):
        spec.compute(50, build_sieve(x_max - 1))
    assert spec.compute(50, build_sieve(x_max)).values == spec.compute(50).values


# --- the two-squares / two-triangular link ---------------------------------------

def test_two_squares_equals_two_triangular():
    n = 1000
    assert applications.two_squares(n).values == applications.two_triangular(n).values


def test_two_squares_skipped_targets_are_zero():
    # Targets 3 mod 4 admit no decomposition; the evaluator route sees them.
    u_v_series = applications.two_squares(50)
    from addrep.recursion import EvaluatorKind, RecursionEvaluator
    from addrep.sequences import SequenceKind, make_sequence

    limit = 4 * 50 + 1
    u = make_sequence(SequenceKind.EVEN_SQUARES, limit)
    v = make_sequence(SequenceKind.ODD_SQUARES, limit)
    all_odd_targets = RecursionEvaluator(EvaluatorKind.EVEN_ODD, u, v).run_to(limit)
    for x, value in all_odd_targets.items():
        if x % 4 == 3:
            assert value == 0
        else:
            assert value == u_v_series.value_at(x)
