"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All comparisons are exact; the stated wall-clock budgets are
asserted where a criterion carries one.
"""

import math
import random
import time

from addrep import applications
from addrep.oracle import brute_count_series
from addrep.recursion import EvaluatorKind, RecursionEvaluator
from addrep.sequences import (
    HARDY_WRIGHT_CAP,
    build_sieve,
    intersect,
    odd_semiprime_count,
    pi_hardy_wright,
    semiprime_count,
)
from conftest import (
    CHEN_ODD_ODD_21,
    CHEN_TOTAL_21,
    GOLDBACH_30,
    LEMOINE_26,
    TWO_TRIANGULAR_26,
    direct_role_functional,
    direct_unordered_functional,
    factor_count,
    random_pair,
    random_subset_pair,
)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def test_criterion_1_goldbach_golden():
    t0 = time.perf_counter()
    values = applications.goldbach(30).values
    elapsed = time.perf_counter() - t0
    ok = values == GOLDBACH_30 and elapsed < 1.0
    _report(1, "goldbach first 30 terms, exact, under 1s", ok,
            f"elapsed {elapsed:.3f}s")


def test_criterion_2_chen_golden():
    t0 = time.perf_counter()
    odd_odd = applications.chen_odd_odd(21).values
    total = applications.chen_total(21).values
    elapsed = time.perf_counter() - t0
    ok = odd_odd == CHEN_ODD_ODD_21 and total == CHEN_TOTAL_21 and elapsed < 1.0
    _report(2, "chen odd-odd and total first 21 terms, exact, under 1s", ok,
            f"elapsed {elapsed:.3f}s")


def test_criterion_3_lemoine_levy_golden():
    values = applications.lemoine_levy(26).values
    _report(3, "lemoine-levy first 26 terms, exact", values == LEMOINE_26)


def test_criterion_4_two_triangular_golden_and_square_link():
    t0 = time.perf_counter()
    first = applications.two_triangular(25).values
    squares = applications.two_squares(1000).values
    triangulars = applications.two_triangular(1000).values
    elapsed = time.perf_counter() - t0
    ok = first == TWO_TRIANGULAR_26 and squares == triangulars and elapsed < 5.0
    _report(4, "two-triangular golden terms and two-squares link to n=1000", ok,
            f"elapsed {elapsed:.3f}s")


def test_criterion_5_recursion_equals_oracle_randomized():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    detail = ""
    for kind in EvaluatorKind:
        rng = random.Random(f"acceptance-5-{kind.value}")
        # a handful of large limits, the rest drawn log-uniformly below 1000
        limits = [4000, 3000, 2000, 1500, 1100, 1000]
        limits += [
            int(math.exp(rng.uniform(math.log(60), math.log(1000))))
            for _ in range(194)
        ]
        for limit in limits:
            a, b = random_pair(rng, kind, limit)
            ev = RecursionEvaluator(kind, a, b)
            base = ev.computed.base
            x_last = base + 2 * ((limit - base) // 2)
            got = ev.run_to(x_last).values
            want = brute_count_series(
                a, b, x_last,
                role_tagged=kind is EvaluatorKind.EVEN_ODD,
                base=base,
            ).values
            checked += 1
            if got != want:
                ok = False
                detail = f"{kind.value} limit={limit}"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(5, "200 random pairs per kind match brute force, under 60s", ok,
            detail or f"{checked} pairs, elapsed {elapsed:.1f}s")


def test_criterion_6_corollary_consistency():
    ok = True
    detail = ""
    for kind in (EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN):
        rng = random.Random(f"acceptance-6-{kind.value}")
        for i in range(50):
            limit = rng.randrange(60, 1200)
            small, big = random_subset_pair(rng, kind, limit)
            base = 2 if kind is EvaluatorKind.ODD_ODD else 0
            x_last = base + 2 * ((limit - base) // 2)
            general = RecursionEvaluator(kind, small, big)
            subset = general.specialized_subset()
            if general.run_to(x_last).values != subset.run_to(x_last).values:
                ok = False
                detail = f"subset {kind.value} limit={limit}"
                break
            # the equal-sequences shortcut, on the larger sequence
            same_general = RecursionEvaluator(kind, big, big)
            same_equal = same_general.specialized_equal()
            if same_general.run_to(x_last).values != same_equal.run_to(x_last).values:
                ok = False
                detail = f"equal {kind.value} limit={limit}"
                break
        if not ok:
            break
    _report(6, "subset and equal shortcut formulas match the general form", ok, detail)


def test_criterion_7_counting_functions():
    limit = 10_000
    tables = build_sieve(limit)
    semis = [n for n in range(limit + 1) if factor_count(n) == 2]
    all_prefix = [0] * (limit + 1)
    odd_prefix = [0] * (limit + 1)
    running_all = running_odd = 0
    it = iter(semis)
    nxt = next(it, None)
    for x in range(limit + 1):
        while nxt is not None and nxt <= x:
            running_all += 1
            if nxt % 2 == 1:
                running_odd += 1
            nxt = next(it, None)
        all_prefix[x] = running_all
        odd_prefix[x] = running_odd
    ok = all(
        semiprime_count(x, tables) == all_prefix[x]
        and odd_semiprime_count(x, tables) == odd_prefix[x]
        for x in range(limit + 1)
    )
    ok = ok and all(
        pi_hardy_wright(n) == tables.pi(n) for n in range(4, HARDY_WRIGHT_CAP + 1)
    )
    _report(7, "semiprime counters to 10^4 and factorial pi formula to 40", ok)


def test_criterion_8_incremental_identity():
    ok = True
    detail = ""
    rng = random.Random("acceptance-8")
    for i in range(20):
        limit = rng.randrange(60, 400)
        a, b = random_pair(rng, EvaluatorKind.ODD_ODD, limit)
        w = intersect(a, b)
        x_last = 2 + 2 * ((limit - 2) // 2)
        oracle = brute_count_series(a, b, x_last, base=2)
        for x in range(2, x_last - 1, 2):
            delta = (
                direct_unordered_functional(a, b, w, x + 2)
                - direct_unordered_functional(a, b, w, x)
            )
            if delta != oracle.value_at(x + 2):
                ok = False
                detail = f"odd-odd instance {i} at x={x + 2}"
                break
        if not ok:
            break
    if ok:
        for i in range(20):
            limit = rng.randrange(60, 400)
            u, v = random_pair(rng, EvaluatorKind.EVEN_ODD, limit)
            x_last = 1 + 2 * ((limit - 1) // 2)
            oracle = brute_count_series(u, v, x_last, role_tagged=True, base=1)
            for x in range(1, x_last - 1, 2):
                delta = direct_role_functional(u, v, x + 2) - direct_role_functional(u, v, x)
                if delta != oracle.value_at(x + 2):
                    ok = False
                    detail = f"even-odd instance {i} at x={x + 2}"
                    break
            if not ok:
                break
    _report(8, "one-shot functional differences reproduce the counts", ok, detail)
