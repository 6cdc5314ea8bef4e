import math
import random

import numpy as np
import pytest

from addrep import applications, convolution, recursion
from addrep.applications import PROBLEMS, custom_problem
from addrep.cli import DEFAULT_ORACLE_CAP
from addrep.errors import LimitExceededError, ParityMismatchError
from addrep.oracle import count_two_squares
from addrep.recursion import EvaluatorKind, Formula, RecursionEvaluator
from addrep.sequences import (
    Parity,
    ParitySequence,
    SequenceKind,
    build_sieve,
    load_sequence,
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
    fast = spec.counts(n_max).tolist()
    assert fast == spec.compute(n_max).values
    assert fast == spec.counts(n_max, "recursion").tolist()
    assert fast == spec.counts(n_max, "oracle").tolist()


def _record_capped_sums(monkeypatch):
    """The target of every ``_capped_sum`` call, in call order."""
    calls = []
    kernel = recursion._capped_sum

    def recording(counts, terms, cap, x):
        calls.append(x)
        return kernel(counts, terms, cap, x)

    monkeypatch.setattr(recursion, "_capped_sum", recording)
    return calls


def _targets_per_part(spec, n_max, sums_per_step):
    """Each part's targets past its base, one entry per capped sum."""
    x_max = spec.x_of_n(n_max)
    return [x for (kind, *_), k in zip(spec.parts, sums_per_step)
            for x in range(kind.base + 2, x_max + 1, 2) for _ in range(k)]


# A part that pairs a sequence with itself takes the equal formula (one
# sum per step); Chen's parts pair distinct sequences (three), and the
# even-odd parts two.
@pytest.mark.parametrize("name, sums_per_step", [
    ("goldbach", [1]),
    ("two-triangular", [1]),
    ("chen-odd-odd", [3]),
    ("chen-total", [3, 3]),
    ("lemoine-levy", [2]),
    ("two-squares", [2]),
])
def test_recursion_route_sums_per_step(name, sums_per_step, monkeypatch):
    spec = PROBLEMS[name]
    calls = _record_capped_sums(monkeypatch)
    spec.counts(40, "recursion")
    assert calls == _targets_per_part(spec, 40, sums_per_step)


def test_custom_pair_of_equal_files_keeps_the_general_formula(tmp_path, monkeypatch):
    path = tmp_path / "odd.txt"
    path.write_text("parity: odd\n" + "\n".join(str(t) for t in range(1, 100, 4)) + "\n")
    seq_a, seq_b = load_sequence(path, limit=100), load_sequence(path, limit=100)
    assert seq_a == seq_b
    spec = custom_problem(seq_a, seq_b)
    calls = _record_capped_sums(monkeypatch)
    got = spec.counts(49, "recursion")
    assert calls == _targets_per_part(spec, 49, [3])
    assert got.tolist() == spec.counts(49).tolist()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_recursion_equals_engine_past_the_oracle_cap(name):
    # The whole series, its last targets past verify's default --oracle-cap.
    spec = PROBLEMS[name]
    assert spec.x_of_n(10**4) > DEFAULT_ORACLE_CAP
    assert spec.counts(10**4, "recursion").tolist() == spec.counts(10**4).tolist()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_engine_running_sums_are_the_recursion_functional(name):
    # The recursion's one-shot functional F(x) is the sum of the counts up
    # to x, so each F call checks the engine series' running sum there,
    # far past the oracle's cap.  A part that pairs a sequence with itself
    # takes the equal formula, any other the general one.
    spec = PROBLEMS[name]
    n_max = 10**5 if name == "two-squares" else 2 * 10**5
    x_max, tables = spec.x_of_n(n_max), spec.sieve(n_max)
    for kind, make_a, make_b, _ in spec.parts:
        seq_a = make_a(x_max, tables)
        seq_b = seq_a if make_b is make_a else make_b(x_max, tables)
        b_terms = None if seq_b is seq_a else seq_b.terms
        running = np.cumsum(convolution.count_series(kind, x_max, seq_a.terms, b_terms))
        formula = Formula.EQUAL if seq_b is seq_a else Formula.GENERAL
        evaluator = RecursionEvaluator(kind, seq_a, seq_b, formula)
        for i in np.linspace(0, len(running) - 1, 10).astype(int).tolist():
            x = kind.base + 2 * i
            assert evaluator._functional(x) == running[i], (kind, x)


def test_custom_problem_rejects_mixed_parity():
    primes = make_sequence(SequenceKind.PRIMES, 50)  # 2 and the odd primes
    with pytest.raises(ParityMismatchError):
        custom_problem(primes, primes)


@pytest.mark.parametrize("route", ["engine", "recursion", "oracle"])
def test_custom_routes_refuse_targets_past_the_sequences(route):
    odd = make_sequence(SequenceKind.ODD_PRIMES, 50)
    spec = custom_problem(odd, odd)
    assert spec.counts(24, route).tolist() == spec.counts(24, "oracle").tolist()
    with pytest.raises(LimitExceededError):
        spec.counts(25, route)  # target 52


def test_an_unknown_route_fails_before_any_table(monkeypatch):
    built = []
    ensure_tables = applications.ensure_tables
    monkeypatch.setattr(applications, "ensure_tables",
                        lambda *args: built.append(args) or ensure_tables(*args))
    with pytest.raises(ValueError, match="unknown route 'typo'"):
        PROBLEMS["chen-total"].counts(10**4, "typo")
    assert built == []


@pytest.mark.parametrize("offset", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_first_terms_agree_on_every_route(name, offset):
    spec = PROBLEMS[name]
    n_max = spec.n_start + offset
    fast = spec.compute(n_max).values
    assert fast == spec.counts(n_max, "recursion").tolist() == spec.counts(n_max, "oracle").tolist()
    assert spec.counts(n_max).tolist() == fast


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


def _jacobi_h(n_max):
    """h(4n + 1) for n = 0..n_max by Jacobi's two-square theorem (Hardy &
    Wright, Thm 278): h(m) = (d1(m) - d3(m) + [m is a square]) / 2 for
    m = 1 mod 4, with d_i(m) the number of divisors of m that are i mod 4.

    Each divisor d <= sqrt(m) of such an m pairs with its cofactor e >= d,
    and e = d mod 4, so the pair adds 2 chi(d) to d1 - d3 (chi(d) once when
    e = d); one array operation per odd d covers all of its cofactors."""
    x_max = 4 * n_max + 1
    root = math.isqrt(x_max)
    diff = np.zeros(n_max + 1, dtype=np.int64)  # d1 - d3 at m = 4n + 1
    for d in range(1, root + 1, 2):
        chi = 1 if d % 4 == 1 else -1
        m = d * np.arange(d, x_max // d + 1, 4)
        diff[(m - 1) // 4] += 2 * chi
        diff[(d * d - 1) // 4] -= chi
    odd_roots = np.arange(1, root + 1, 2)  # every odd square is 1 mod 4
    diff[(odd_roots * odd_roots - 1) // 4] += 1
    assert not (diff & 1).any() and (diff >= 0).all()
    return diff // 2


def test_jacobi_h_small_terms_match_direct_enumeration():
    assert _jacobi_h(300).tolist() == [count_two_squares(4 * n + 1) for n in range(301)]


def test_two_squares_and_two_triangular_match_jacobi_over_the_whole_range():
    # An exact closed form with no oracle cap: every n <= 2 * 10^5, and
    # t(n) = h(4n + 1) by the paper's remark.
    n_max = 2 * 10**5
    want = _jacobi_h(n_max)
    np.testing.assert_array_equal(PROBLEMS["two-squares"].counts(n_max), want)
    np.testing.assert_array_equal(PROBLEMS["two-triangular"].counts(n_max), want)


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
