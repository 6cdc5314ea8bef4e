"""Exact whole-series representation counts by FFT convolution.

What the recursion's step leaves after subtracting the running tail is
the convolution of the two sequences' indicator vectors, so a whole
series costs one O(K log K) convolution for K targets.  ``EVEN_ODD``
(roles fixed by parity) counts ``N_AB``; the unordered kinds count
``(2 N_AB - N_WW + delta) / 2`` with ``W = A & B`` and ``delta(x) =
[x/2 in W]``, the step formula's correction for shared terms.
``count_series`` finds W once by ``shared_terms`` (A itself for equal
sequences and A within B; B for B within A, swapped with A then), has a
route return ``N_AB`` or ``2 N_AB - N_WW`` exactly, then adds delta and
halves, refusing an odd doubled count.

Term ``t`` sits at index ``t // 2`` and index ``k`` is the target
``2k + base``, with the kind's base.  Float results not within
0.25 of an integer, NaN and inf included, raise ResourceBudgetError.

A transform reads one float64 indicator of K entries, written straight
from the terms and padded by ``rfft`` itself, and makes one spectrum;
the spectra are combined in place and each is dropped once used.  For
A within B (the paper's subset formula; Chen's odd primes within the
primes-or-odd-semiprimes) the spectrum ``fa (2 fb - fa)`` takes two
forward transforms where ``2 fa fb - fw fw`` takes three.  ``rfft``'s
``out=`` needs numpy >= 2.0.

When one side has only k terms, k shifted adds of the other side's
indicator O (2 O at a term outside W, 2 O - W at one in it) need no
transform; ``count_series`` takes that route when its estimated cost
(``_SHIFT_CALL``, ``_TRANSFORM_CALL``) is the lower.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceBudgetError
from .recursion import EvaluatorKind
from .sequences import shared_terms


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
    """Round float counts to int64, refusing any that are not within 0.25
    of an integer, NaN and inf included.  ``values`` is left holding the
    rounding errors."""
    counts = np.empty(values.shape, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # NaN and inf cast; refused below
        np.rint(values, out=counts, casting="unsafe")
    errors = np.abs(np.subtract(values, counts, out=values), out=values)
    error = float(errors.max())
    if not error < 0.25:
        raise ResourceBudgetError(
            f"convolution is {error:.3g} away from an integer; "
            "exact counts cannot be recovered in float64"
        )
    return counts


def count_series(
    kind: EvaluatorKind, x_max: int, a: np.ndarray, b: np.ndarray | None = None
) -> np.ndarray:
    """int64 counts for the targets base, base+2, ..., x_max.

    ``a`` and ``b`` are sorted int64 term arrays with the parities ``kind``
    requires (even first for ``EVEN_ODD``); omit ``b`` when the sequences
    are equal.  Terms past ``x_max`` are ignored.
    """
    base = kind.base
    if x_max < base:
        raise ValueError(f"x_max {x_max} is below the base argument {base}")
    size = (x_max - base) // 2 + 1
    # Views of the terms whose index t // 2 is below size.
    a = a[: np.searchsorted(a, 2 * size)]
    b = None if b is None else b[: np.searchsorted(b, 2 * size)]
    w = None if kind is EvaluatorKind.EVEN_ODD else a if b is None else shared_terms(a, b)
    if w is not None and w is b:  # the count is symmetric: take B within A as A within B
        a, b = b, a
    length = fast_length(2 * size - 1)
    transforms = 2 if b is None else 3 if w is None or w is a else 4
    short = len(a) if b is None else min(len(a), len(b))
    if short * (size + _SHIFT_CALL) <= transforms * (
        length * math.log2(length) + _TRANSFORM_CALL
    ):
        counts = _by_shifts(size, a, b, w)
    else:
        counts = _by_fft(size, length, a, b, w)
    if w is None:
        return counts
    # delta(x) = [x/2 in W] is 1 at the even index 2 (w // 2) of each w in W.
    at = w // 2 * 2
    counts[at[at < size]] += 1
    odd = np.bitwise_and(counts, 1, out=np.empty(size, dtype=bool), casting="unsafe")
    if odd.any():
        x = base + 2 * int(odd.argmax())
        raise ResourceBudgetError(f"twice the count at {x} came out odd; counts are not exact")
    counts //= 2
    return counts


def _by_fft(size, length, a, b, w) -> np.ndarray:
    """N_AB when ``w`` is None, else 2 N_AB - N_WW, by transforms."""
    buf = np.zeros(size)  # each indicator in turn; rfft pads it to length
    buf[(a if b is None else b) // 2] = 1
    spectrum = np.fft.rfft(buf, length)
    if b is None:
        spectrum *= spectrum
    else:
        buf[b // 2] = 0
        buf[a // 2] = 1
        fa = np.fft.rfft(buf, length)
        if w is None:
            spectrum *= fa
        elif w is a:  # fa (2 fb - fa)
            spectrum *= 2
            spectrum -= fa
            spectrum *= fa
        else:  # 2 fa fb - fw fw, with fw in the place of fa
            spectrum *= fa
            spectrum *= 2
            buf[a // 2] = 0
            buf[w // 2] = 1
            fw = np.fft.rfft(buf, length, out=fa)
            fw *= fw
            spectrum -= fw
        del fa
    del buf
    values = np.fft.irfft(spectrum, length)[:size]
    del spectrum
    return exact_counts(values)


def _by_shifts(size, a, b, w) -> np.ndarray:
    """N_AB when ``w`` is None, else 2 N_AB - N_WW, by shifted adds."""
    short, other = sorted((a, a if b is None else b), key=len)
    outside = np.zeros(size, dtype=np.int8)
    outside[other // 2] = 1 if w is None else 2
    inside = outside.copy()
    if w is not None:  # W lies within both sides: 2 O - W is 1 on W
        inside[w // 2] = 1
    index = short // 2
    in_w = inside[index] < outside[index]
    counts = np.zeros(size, dtype=np.int64)
    for i, shared in zip(index.tolist(), in_w.tolist()):
        counts[i:] += (inside if shared else outside)[: size - i]
    return counts
