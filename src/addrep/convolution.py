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
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceBudgetError
from .recursion import _BASES, EvaluatorKind


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
    index = terms // 2
    flags = np.zeros(size, dtype=bool)
    flags[index[: np.searchsorted(index, size)]] = True
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
    length = fast_length(2 * size - 1)
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
