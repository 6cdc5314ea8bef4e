#!/usr/bin/env python3
"""Running the recursions on sequences of your own.

Builds arbitrary parity sequences, runs all three recursion kinds, shows
the subset/equal shortcut formulas, and cross-checks everything against
brute-force enumeration.
"""

import random

from addrep import (
    EvaluatorKind,
    Parity,
    ParitySequence,
    RecursionEvaluator,
    brute_count_series,
    intersect,
)

LIMIT = 60


def show(title, kind, seq_a, seq_b, x_max):
    ev = RecursionEvaluator(kind, seq_a, seq_b)
    series = ev.run_to(x_max)
    oracle = brute_count_series(
        seq_a, seq_b, x_max,
        role_tagged=kind is EvaluatorKind.EVEN_ODD,
        base=series.base,
    )
    assert series.values == oracle.values
    print(f"{title} ({kind.value}, targets {series.base}..{x_max})")
    print("  counts:", " ".join(str(v) for v in series.values))
    return series


def main():
    rng = random.Random(2024)

    odd_a = ParitySequence([1, 3, 7, 13, 19, 27, 31], Parity.ODD, LIMIT)
    odd_b = ParitySequence([3, 5, 7, 11, 21, 27, 45], Parity.ODD, LIMIT)
    show("two odd sequences", EvaluatorKind.ODD_ODD, odd_a, odd_b, LIMIT)
    print("  shared terms:", intersect(odd_a, odd_b).terms.tolist())

    even_a = ParitySequence([0, 2, 8, 12, 24, 40], Parity.EVEN, LIMIT)
    even_b = ParitySequence([0, 4, 8, 20, 24, 36], Parity.EVEN, LIMIT)
    show("two even sequences (both contain 0)", EvaluatorKind.EVEN_EVEN,
         even_a, even_b, LIMIT)

    odd_sparse = ParitySequence(
        [t for t in range(1, LIMIT + 1, 2) if rng.random() < 0.4], Parity.ODD, LIMIT
    )
    show("even against odd, roles fixed by parity", EvaluatorKind.EVEN_ODD,
         even_a, odd_sparse, LIMIT - 1)

    print("\nShortcut formulas agree with the general one:")
    small = ParitySequence([3, 7, 19, 31], Parity.ODD, LIMIT)
    big = odd_b
    general = RecursionEvaluator(EvaluatorKind.ODD_ODD, small, big)
    try:
        general.specialized_subset()
        print("  unexpected: subset accepted")
    except Exception as exc:
        print(f"  subset form refuses non-contained sequences: {exc}")

    contained = ParitySequence([3, 7, 27], Parity.ODD, LIMIT)
    general = RecursionEvaluator(EvaluatorKind.ODD_ODD, contained, big)
    subset = general.specialized_subset()
    assert general.run_to(LIMIT).values == subset.run_to(LIMIT).values
    print("  subset form matches on a contained pair")

    same = RecursionEvaluator(EvaluatorKind.ODD_ODD, odd_b, odd_b)
    equal = same.specialized_equal()
    assert same.run_to(LIMIT).values == equal.run_to(LIMIT).values
    print("  equal form matches when both sequences coincide")


if __name__ == "__main__":
    main()
