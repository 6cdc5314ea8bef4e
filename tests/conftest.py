"""Shared test helpers: golden series, naive oracles, random sequence pairs."""

import math
import random

from addrep.recursion import EvaluatorKind
from addrep.sequences import Parity, ParitySequence

# First published terms of the built-in problems (OEIS b-file prefixes and
# the series printed alongside them).
GOLDBACH_30 = [0, 0, 1, 1, 2, 1, 2, 2, 2, 2, 3, 3, 3, 2, 3, 2, 4, 4, 2, 3,
               4, 3, 4, 5, 4, 3, 5, 3, 4, 6]
CHEN_ODD_ODD_21 = [0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 5, 4, 6, 6, 4, 6, 6, 6, 8, 7, 7]
CHEN_TOTAL_21 = [0, 1, 2, 2, 2, 3, 3, 4, 3, 4, 5, 5, 6, 7, 4, 6, 6, 7, 8, 8, 7]
LEMOINE_26 = [0, 0, 0, 1, 2, 2, 2, 2, 4, 2, 3, 3, 3, 4, 4, 2, 5, 3, 4, 4,
              5, 4, 6, 4, 4, 7]
TWO_TRIANGULAR_26 = [1, 1, 1, 1, 1, 0, 2, 1, 0, 1, 1, 1, 1, 1, 0, 1, 2, 0,
                     1, 0, 1, 2, 1, 0, 1, 1]

def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_division_pi(n: int) -> int:
    return sum(1 for k in range(2, n + 1) if trial_division_is_prime(k))


def factor_count(n: int) -> int:
    """Number of prime factors of n with multiplicity (0 for n < 2)."""
    if n < 2:
        return 0
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    if n > 1:
        count += 1
    return count


def random_parity_sequence(rng: random.Random, parity: Parity, limit: int,
                           density: float, include_zero: bool = False) -> ParitySequence:
    start = 1 if parity is Parity.ODD else 2
    terms = [t for t in range(start, limit + 1, 2) if rng.random() < density]
    if parity is Parity.EVEN and include_zero:
        terms = [0] + terms
    return ParitySequence(terms, parity, limit)


def random_pair(rng: random.Random, kind: EvaluatorKind, limit: int):
    pa, pb = kind.parities
    a = random_parity_sequence(
        rng, pa, limit, rng.uniform(0.1, 0.9),
        include_zero=(pa is Parity.EVEN and rng.random() < 0.5),
    )
    b = random_parity_sequence(
        rng, pb, limit, rng.uniform(0.1, 0.9),
        include_zero=(pb is Parity.EVEN and rng.random() < 0.5),
    )
    return a, b


def random_subset_pair(rng: random.Random, kind: EvaluatorKind, limit: int):
    """A pair with the first sequence drawn from the second."""
    pa, _ = kind.parities
    big = random_parity_sequence(
        rng, pa, limit, rng.uniform(0.3, 0.9),
        include_zero=(pa is Parity.EVEN and rng.random() < 0.5),
    )
    small_terms = [t for t in big.terms if rng.random() < 0.6]
    small = ParitySequence(small_terms, pa, limit)
    return small, big


def direct_unordered_functional(a, b, w, x):
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


def direct_role_functional(u, v, x):
    """The one-shot form of the even-odd step."""
    half = (x + 1) // 2
    s1 = sum(u.counting(x - t) for t in v.terms if t <= half)
    s2 = sum(v.counting(x - s) for s in u.terms if s <= half)
    return s1 + s2 - u.counting(half) * v.counting(half)
