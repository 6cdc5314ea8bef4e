#!/usr/bin/env python3
"""Odd numbers as p + 2q with p, q prime.

An even-odd problem: the doubled primes take the even role, the primes
the odd role, so each decomposition is a role-tagged pair rather than an
unordered one.  The count engine's output is checked here against
explicit enumeration.
"""

from addrep import SequenceKind, brute_count, build_sieve, lemoine_levy, make_sequence

N_MAX = 30


def main():
    series = lemoine_levy(N_MAX)
    limit = 2 * N_MAX
    tables = build_sieve(limit)
    doubled = make_sequence(SequenceKind.DOUBLED_PRIMES, limit, tables=tables)
    primes = make_sequence(SequenceKind.PRIMES, limit, tables=tables)

    print(f"Decompositions of 2n-1 as 2q + p with p, q prime, n = 1..{N_MAX}")
    print("(OEIS A046927)\n")
    print(" n    x  count  decompositions")
    for n in range(1, N_MAX + 1):
        x = 2 * n - 1
        count = series.value_at(x)
        pairs = brute_count(doubled, primes, x, role_tagged=True).pairs
        assert len(pairs) == count
        listing = "  ".join(f"{u}+{v}" for u, v in pairs)
        print(f"{n:2d}  {x:3d}  {count:5d}  {listing}")

    gaps = [2 * n - 1 for n in range(2, N_MAX + 1) if series.value_at(2 * n - 1) == 0]
    print(f"\nOdd numbers 5..{2 * N_MAX - 1} with no such decomposition: {gaps or 'none'}")


if __name__ == "__main__":
    main()
