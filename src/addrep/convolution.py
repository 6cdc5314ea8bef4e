"""Exact whole-series representation counts by FFT convolution.

What the recursion's step leaves after subtracting the running tail is
the convolution of the two sequences' indicator vectors, so a whole
series costs one O(K log K) convolution for K targets.  The counts are:

* ``EVEN_ODD`` (roles fixed by parity): ``N_AB``;
* unordered kinds: ``N_AB - (N_WW - delta) / 2`` with ``W = A & B`` and
  ``delta(x) = [x/2 in W]``, the step formula's correction for shared
  terms; for equal sequences this is ``(N_AA + delta) / 2``.

Term ``t`` sits at index ``t // 2`` and index ``k`` is the target
``2k + base``, with the recursion's bases.  Float results further than
0.25 from an integer raise ResourceBudgetError rather than being rounded.

When one side has only k terms, k shifted adds of the other side's
indicator give ``N_AB`` exactly and the shared terms' own pairs give the
correction, with no transform at all.  ``count_series`` takes that route
when its estimated cost is the lower (``_SHIFT_CALL``, ``_TRANSFORM_CALL``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ResourceBudgetError
from .recursion import _BASES, EvaluatorKind


# The two routes' costs in units of one entry of a shifted add.  Measured
# on a 2-core x86_64 host with numpy 2.4: a shifted add costs 0.6-1.9 ns
# per entry plus about 1.5 us per call, and a real transform of length L
# costs 0.9-2.3 ns per L log2 L plus about 6 us per call.  So a pass over K
# entries costs K + _SHIFT_CALL and a transform L log2 L + _TRANSFORM_CALL.
_SHIFT_CALL = 1_000
_TRANSFORM_CALL = 5_000


def fast_length(n: int) -> int:
    """Smallest 5-smooth integer (2^i 3^j 5^k) that is >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching n.
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def exact_counts(values: np.ndarray) -> np.ndarray:
    """Round float counts to int64, refusing any that are not near-integers."""
    rounded = np.rint(values)
    error = float(np.max(np.abs(values - rounded)))
    if error >= 0.25:
        raise ResourceBudgetError(
            f"convolution is {error:.3g} away from an integer; "
            "exact counts cannot be recovered in float64"
        )
    return rounded.astype(np.int64)


def _indicator(terms: np.ndarray, size: int) -> np.ndarray:
    flags = np.zeros(size, dtype=bool)
    flags[terms // 2] = True
    return flags


def count_series(
    kind: EvaluatorKind, x_max: int, a: np.ndarray, b: np.ndarray | None = None
) -> np.ndarray:
    """int64 counts for the targets base, base+2, ..., x_max.

    ``a`` and ``b`` are sorted int64 term arrays with the parities ``kind``
    requires (even first for ``EVEN_ODD``); omit ``b`` when the sequences
    are equal.  Terms past ``x_max`` are ignored.
    """
    base = _BASES[kind]
    if x_max < base:
        raise ValueError(f"x_max {x_max} is below the base argument {base}")
    size = (x_max - base) // 2 + 1
    # Views of the terms whose index t // 2 is below size.
    a = a[: np.searchsorted(a, 2 * size)]
    b = None if b is None else b[: np.searchsorted(b, 2 * size)]
    length = fast_length(2 * size - 1)
    transforms = 2 if b is None else 3 if kind is EvaluatorKind.EVEN_ODD else 4
    short = len(a) if b is None else min(len(a), len(b))
    if short * (size + _SHIFT_CALL) <= transforms * (
        length * math.log2(length) + _TRANSFORM_CALL
    ):
        return _by_shifts(kind, size, a, b)
    return _by_fft(kind, size, length, a, b)


def _by_fft(kind, size, length, a, b) -> np.ndarray:
    a_flags = _indicator(a, size)
    fa = np.fft.rfft(a_flags, length)
    if b is None:
        w_flags = a_flags
        spectrum = fa * fa
    else:
        b_flags = _indicator(b, size)
        fb = np.fft.rfft(b_flags, length)
        if kind is EvaluatorKind.EVEN_ODD:
            return exact_counts(np.fft.irfft(fa * fb, length)[:size])
        w_flags = a_flags & b_flags
        fw = np.fft.rfft(w_flags, length)
        spectrum = 2 * fa * fb - fw * fw
    counts = exact_counts(np.fft.irfft(spectrum, length)[:size])
    counts[::2] += w_flags[: (size + 1) // 2]
    return counts // 2


def _by_shifts(kind, size, a, b) -> np.ndarray:
    short, other = sorted((a, a if b is None else b), key=len)
    other_flags = _indicator(other, size)
    short_index = short // 2
    counts = np.zeros(size, dtype=np.int64)
    for i in short_index.tolist():
        counts[i:] += other_flags[: size - i]
    if kind is EvaluatorKind.EVEN_ODD:
        return counts
    # N_AB counted each pair {u, w} of distinct shared terms twice; the
    # correction (N_WW - delta) / 2 is one per such pair.
    shared = short_index[other_flags[short_index]].tolist()
    for u, w in itertools.combinations(shared, 2):
        if u + w < size:
            counts[u + w] -= 1
    return counts
