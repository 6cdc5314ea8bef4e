#!/usr/bin/env python3
"""How many ways does an even number split into two odd primes?

Computes the counts with the count engine, checks them against the
paper's incremental recursion, prints the first terms next to the
brute-force pair listings, and shows where new record counts appear.
"""

from addrep import PROBLEMS, SequenceKind, brute_count, goldbach, make_sequence

N_MAX = 40


def main():
    series = goldbach(N_MAX)
    recursion = PROBLEMS["goldbach"].counts(N_MAX, route="recursion")
    assert recursion.tolist() == series.values
    primes = make_sequence(SequenceKind.ODD_PRIMES, 2 * N_MAX)

    print(f"Decompositions of 2n into two odd primes, n = 1..{N_MAX}")
    print("(OEIS A002375)\n")
    print(" n   2n  count  pairs")
    record = -1
    for n, count in zip(range(1, N_MAX + 1), series.values):
        pairs = brute_count(primes, primes, 2 * n).pairs
        marker = ""
        if count > record:
            record = count
            marker = "  <- new record"
        listing = " ".join(f"{a}+{b}" for a, b in pairs)
        print(f"{n:2d}  {2 * n:3d}  {count:5d}  {listing}{marker}")

    total = sum(series.values)
    print(f"\n{total} decompositions in total up to 2n = {2 * N_MAX}.")
    print("Every count above was produced by the engine; the pair lists")
    print("come from independent brute-force enumeration.")
    print("The paper's recursion gives the same counts: both routes agree.")


if __name__ == "__main__":
    main()
