#!/usr/bin/env python3
"""Two squares, two triangular numbers, and the bijection between them.

n is a sum of two triangular numbers exactly when 4n+1 is a sum of two
squares, pair for pair: (x, y) with n = T(x)+T(y) maps to the square
pair (x+y+1, x-y) for 4n+1.  The count engine computes both series, each
from its own pair of sequences, and they are compared term by term.
"""

from addrep import (
    square_to_triangular,
    triangular_number,
    triangular_to_square,
    two_squares,
    two_triangular,
    verify_remark_identity,
)

N_MAX = 30


def main():
    squares = two_squares(N_MAX)
    triangles = two_triangular(N_MAX)

    print(f"n = T(x)+T(y) versus 4n+1 = a^2+b^2, n = 0..{N_MAX}\n")
    print(" n  4n+1  two-triangular  two-squares")
    for n in range(N_MAX + 1):
        t = triangles.value_at(2 * n)
        h = squares.value_at(4 * n + 1)
        flag = "" if t == h else "  MISMATCH"
        print(f"{n:2d}  {4 * n + 1:4d}  {t:14d}  {h:11d}{flag}")
    assert squares.values == triangles.values

    print("\nThe pair-level mapping behind the equality:")
    for x, y in [(1, 2), (3, 3), (5, 0)]:
        n, (a, b) = triangular_to_square(x, y)
        back_n, (bx, by) = square_to_triangular(a, b)
        print(
            f"  T({x})+T({y}) = {triangular_number(x)}+{triangular_number(y)} = {n}"
            f"  <->  {4 * n + 1} = {a}^2 + {b}^2"
            f"  (inverse gives T({bx})+T({by}), n = {back_n})"
        )

    print("\nSpecializing y = x-1 collapses the map to T(x) + T(x-1) = x^2:")
    for x in (1, 5, 12):
        assert verify_remark_identity(x)
        print(f"  T({x}) + T({x - 1}) = {triangular_number(x) + triangular_number(x - 1)} = {x}^2")


if __name__ == "__main__":
    main()
