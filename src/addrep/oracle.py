"""Brute-force representation counting, plus the triangular/square bijection.

Deliberately naive ground truth: every candidate pair is enumerated and
both memberships are re-checked, so a recursion or convolution bug cannot
hide here.  ``brute_count_series`` takes the candidate terms in turn; a
candidate's partners over all the targets it takes part in are one
strided slice of membership flags, added to those targets' counts.
``brute_count`` lists one target's pairs in plain Python and shares no
code with the series route; the benchmark gate (``perfbench/gate.py``)
checks outputs with it.  No prefix table, FFT or recursion step is used.
Pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitExceededError
from .recursion import CountSeries, EvaluatorKind
from .sequences import ParitySequence


@dataclass(frozen=True)
class RepresentationList:
    """All decompositions of one target.

    Unordered pairs are stored with a <= b; role-tagged pairs keep the
    (first-sequence, second-sequence) order.
    """

    target: int
    pairs: tuple[tuple[int, int], ...]
    role_tagged: bool = False

    @property
    def count(self) -> int:
        return len(self.pairs)


def brute_count(
    seq_a: ParitySequence,
    seq_b: ParitySequence,
    x: int,
    role_tagged: bool = False,
) -> RepresentationList:
    """Enumerate every way to write x as a term of seq_a plus a term of seq_b.

    With ``role_tagged=False`` pairs {s, t} are unordered: a pair counts
    once if either assignment of its elements to the two sequences works,
    and s = t counts once.  With ``role_tagged=True`` (the even+odd case)
    the pair (u, v) keeps u in seq_a and v in seq_b.
    """
    if x < 0:
        raise ValueError("target must be nonnegative")
    if x > seq_a.limit or x > seq_b.limit:
        raise LimitExceededError(
            f"target {x} beyond limits {seq_a.limit}/{seq_b.limit}"
        )
    pairs: list[tuple[int, int]] = []
    if role_tagged:
        for u in seq_a.terms.tolist():
            if u > x:
                break
            if seq_b.contains(x - u):
                pairs.append((u, x - u))
    else:
        half = x // 2
        candidates = sorted(
            {t for t in seq_a.terms.tolist() if t <= half}
            | {t for t in seq_b.terms.tolist() if t <= half}
        )
        for p in candidates:
            q = x - p
            if (seq_a.contains(p) and seq_b.contains(q)) or (
                seq_b.contains(p) and seq_a.contains(q)
            ):
                pairs.append((p, q))
    return RepresentationList(x, tuple(pairs), role_tagged)


def brute_count_series(
    seq_a: ParitySequence,
    seq_b: ParitySequence,
    x_max: int,
    role_tagged: bool = False,
    base: int | None = None,
) -> CountSeries:
    """Counts for every target base, base+2, ..., x_max by plain enumeration.

    The candidates p are seq_a's terms (role-tagged) or the union of both
    sequences' terms, in ascending order; a target x takes those with
    p <= x (role-tagged) or p <= x // 2 and re-checks q = x - p as
    ``brute_count`` does.  For each candidate the memberships of its
    partners q, one per target from the first whose cap reaches p, are
    one strided slice of membership flags, added to those targets'
    counts.
    """
    if base is None:
        base = _default_base(seq_a, seq_b, role_tagged)
    if x_max < base or (x_max - base) % 2:
        raise ValueError(f"x_max {x_max} not on the argument lattice of {base}")
    if x_max > seq_a.limit or x_max > seq_b.limit:
        raise LimitExceededError(
            f"x_max {x_max} beyond limits {seq_a.limit}/{seq_b.limit}"
        )
    in_a = _members(seq_a, x_max)
    in_b = _members(seq_b, x_max)
    either = in_a | in_b
    counts = np.zeros((x_max - base) // 2 + 1, dtype=np.int64)
    for p in np.flatnonzero(in_a if role_tagged else either).tolist():
        # q must be in seq_b when role-tagged; otherwise on the other side
        # from p: seq_b for p in seq_a, seq_a for p in seq_b, either for both.
        if role_tagged:
            wanted = in_b
        elif in_a[p] and in_b[p]:
            wanted = either
        else:
            wanted = in_b if in_a[p] else in_a
        # The first target whose cap reaches p: x >= p role-tagged, else x >= 2p.
        first = max(0, (p if role_tagged else 2 * p) - base + 1) // 2
        if first >= len(counts):
            break
        x_first = base + 2 * first
        counts[first:] += wanted[x_first - p : x_max - p + 1 : 2]
    return CountSeries(base, counts.tolist())


def _members(seq: ParitySequence, x_max: int) -> np.ndarray:
    """Membership flags of the sequence's terms up to x_max."""
    flags = np.zeros(x_max + 1, dtype=bool)
    flags[seq.terms[: np.searchsorted(seq.terms, x_max, side="right")]] = True
    return flags


def _default_base(seq_a: ParitySequence, seq_b: ParitySequence, role_tagged: bool) -> int:
    """The even-odd base when role-tagged, else the base of the pair's unordered kind."""
    if role_tagged:
        return EvaluatorKind.EVEN_ODD.base
    kind = EvaluatorKind.of(seq_a.parity, seq_b.parity)
    if kind is None or kind is EvaluatorKind.EVEN_ODD:
        raise ValueError("pass base explicitly for mixed-parity sequence pairs")
    return kind.base


def triangular_number(i: int) -> int:
    """T(i) = i*(i+1)/2."""
    return i * (i + 1) // 2


def triangular_to_square(x: int, y: int) -> tuple[int, tuple[int, int]]:
    """Map triangular indices (x, y) for n = T(x)+T(y) to a square pair.

    Returns (n, (a, b)) with a*a + b*b = 4n + 1, via a = x+y+1 and
    b = x-y after ordering x >= y.
    """
    if x < 0 or y < 0:
        raise ValueError("triangular indices must be nonnegative")
    hi, lo = (x, y) if x >= y else (y, x)
    n = triangular_number(hi) + triangular_number(lo)
    return n, (hi + lo + 1, hi - lo)


def square_to_triangular(a: int, b: int) -> tuple[int, tuple[int, int]]:
    """Inverse map: a square pair for 4n+1 back to triangular indices for n.

    Requires a, b >= 0 with a*a + b*b = 1 (mod 4), which forces one of
    them odd and one even.  Returns (n, (x, y)) with n = T(x)+T(y) and
    x >= y.
    """
    if a < 0 or b < 0:
        raise ValueError("square roots must be nonnegative")
    m = a * a + b * b
    if m % 4 != 1:
        raise ValueError(f"{a}^2 + {b}^2 = {m} is not 1 mod 4")
    hi, lo = (a, b) if a >= b else (b, a)
    n = (m - 1) // 4
    return n, ((hi + lo - 1) // 2, (hi - lo - 1) // 2)


def verify_remark_identity(x: int) -> bool:
    """Check T(x) + T(x-1) == x*x for x >= 1."""
    if x < 1:
        raise ValueError("x must be positive")
    return triangular_number(x) + triangular_number(x - 1) == x * x


def count_two_triangular(n: int) -> int:
    """Unordered pairs T(i) + T(j) = n, by direct enumeration."""
    count = 0
    i = 0
    while 2 * triangular_number(i) <= n:
        rest = n - triangular_number(i)
        # rest is triangular iff 8*rest + 1 is an odd perfect square
        root = math.isqrt(8 * rest + 1)
        if root * root == 8 * rest + 1:
            count += 1
        i += 1
    return count


def count_two_squares(m: int) -> int:
    """Unordered pairs a*a + b*b = m with a, b >= 0, by direct enumeration."""
    count = 0
    a = 0
    while 2 * a * a <= m:
        rest = m - a * a
        root = math.isqrt(rest)
        if root * root == rest:
            count += 1
        a += 1
    return count
