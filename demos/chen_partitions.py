#!/usr/bin/env python3
"""Splitting an even number into a prime plus a prime-or-semiprime.

The count separates by parity of the summands: the odd-odd part comes
from the count engine over two sequences (odd primes against odd primes
joined with odd semiprimes), and the even-even part is a single
membership test, because 2 is the only even prime.
"""

from addrep import build_sieve, chen_odd_odd, chen_total

N_MAX = 30


def main():
    tables = build_sieve(2 * N_MAX)
    odd_odd = chen_odd_odd(N_MAX, tables)
    total = chen_total(N_MAX, tables)

    print(f"Decompositions of 2n into prime + (prime or semiprime), n = 1..{N_MAX}\n")
    print(" n   2n  odd-odd  even-even  total")
    for n in range(1, N_MAX + 1):
        g1 = odd_odd.values[n - 1]
        g_total = total.values[n - 1]
        g2 = g_total - g1
        note = f"2 + {2 * n - 2}" if g2 else ""
        print(f"{n:2d}  {2 * n:3d}  {g1:7d}  {g2:9d}  {g_total:5d}   {note}")

    print("\nThe even-even column is 1 exactly when n-1 is prime or 1:")
    print("the only even prime is 2, so the partner 2n-2 must be 2 itself")
    print("or twice a prime (an even semiprime).")


if __name__ == "__main__":
    main()
