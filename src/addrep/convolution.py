"""Exact whole-series representation counts by FFT convolution.

What the recursion's step leaves after subtracting the running tail is
the convolution of the two sequences' indicator vectors, so a whole
series costs O(K log K) for K targets.  ``EVEN_ODD`` (roles fixed by
parity) counts ``N_AB``; the unordered kinds count ``(2 N_AB - N_WW +
delta) / 2`` with ``W = A & B`` and ``delta(x) = [x/2 in W]``, the step
formula's correction for shared terms.  Each route computes one product:
``N_AB``, ``N_AA`` for equal sequences, or the paper's subset form
``N_A(2B - A)`` when W = A.  ``count_series`` finds W once by
``shared_terms`` (B within A is taken as A within B, sides swapped); a
disjoint pair counts N_AB, and a partly shared one ``2 N_AB`` less
``N_WW``.  It then adds delta and halves, refusing an odd doubled count.

Term ``t`` sits at index ``t // 2`` and index ``k`` is the target
``2k + base``, with the kind's base.  Float results not within
0.25 of an integer, NaN and inf included, raise ResourceBudgetError.

The transforms run on blocks: each side's K indices are cut into m blocks
of h, each transformed once at a length holding 2h - 1 entries, and the
products of block i with block s - i, summed over i, give the counts at
indices s h to s h + 2h - 2 by one inverse transform per diagonal s.  The
diagonals run from the last down, so block s's spectra are dropped once
diagonal s is done, and no transform is longer than about 2K / m.  The
subset form's spectra ``fa (2 fb - fa)`` hold two sides' blocks, and a
product never holds more.

When one side has only k terms, k shifted adds of one int8 row (the
other side's indicator, or ``2 [B] - [A]`` for the subset form) need no
transform.  ``count_series`` takes that route while its passes, k plus
|W| for a partly shared pair, are at most ``_SHIFTS_PER_SIDE`` for each
side of block spectra the transforms would build.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceBudgetError
from .recursion import EvaluatorKind, lattice_size
from .sequences import shared_terms


# Shifted adds per side of block spectra at which the routes cost about the
# same: an add is one pass over the K targets, and a side (1 for an equal
# pair, 2 for a pair, 3 for a partly shared one) is m block transforms and
# its share of the products.  Forced routes crossed over at 120-260 adds per
# side for K = 1.5e4 to 1e7 (2-core x86_64, numpy 2.4; scripts/fit_routes.py).
_SHIFTS_PER_SIDE = 180

# Blocks per side on the transform route: more shorten the transforms and
# drop spectra sooner, at m (m + 1) / 2 block products per pair.
_BLOCKS = 16


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
    are equal.  Terms past ``x_max`` are ignored.  An ``x_max`` off the
    kind's lattice raises ValueError (``recursion.lattice_size``).
    """
    size = lattice_size(kind.base, x_max)
    # Views of the terms whose index t // 2 is below size.
    a = a[: np.searchsorted(a, 2 * size)]
    b = None if b is None else b[: np.searchsorted(b, 2 * size)]
    w = None if kind is EvaluatorKind.EVEN_ODD else a if b is None else shared_terms(a, b)
    if w is not None and w is b:  # the count is symmetric: take B within A as A within B
        a, b = b, a
    if w is not None and w is not a and not len(w):  # disjoint: the count is N_AB
        w = None
    adds = len(a) if b is None else min(len(a), len(b))
    sides = 1 if b is None else 2
    if w is not None and w is not a:  # a second pass, over W
        adds, sides = adds + len(w), 3
    route = _by_shifts if adds <= _SHIFTS_PER_SIDE * sides else _by_fft
    if w is None or w is a:
        counts = route(size, a, b, w is a and b is not None)
    else:  # 2 N_AB - N_WW, one product at a time
        counts = route(size, a, b, False)
        counts *= 2
        counts -= route(size, w, None, False)
    if w is None:
        return counts
    # delta(x) = [x/2 in W] is 1 at the even index 2 (w // 2) of each w in W.
    at = w // 2 * 2
    counts[at[at < size]] += 1
    odd = np.bitwise_and(counts, 1, out=np.empty(size, dtype=bool), casting="unsafe")
    if odd.any():
        x = kind.base + 2 * int(odd.argmax())
        raise ResourceBudgetError(f"twice the count at {x} came out odd; counts are not exact")
    counts //= 2
    return counts


def _by_fft(size, a, b, subset) -> np.ndarray:
    """N_AB, N_AA if ``b`` is None, or N_A(2B - A) if ``subset``, by block transforms."""
    h = -(-size // min(_BLOCKS, size))
    m = -(-size // h)  # no empty block: 17 targets in 16 blocks take 9 of 2
    length = fast_length(2 * h - 1)

    def spectra(terms):
        cuts = np.searchsorted(terms, 2 * h * np.arange(m + 1))
        buf, blocks = np.zeros(length), []
        for j in range(m):
            ones = terms[cuts[j] : cuts[j + 1]] // 2 - j * h
            buf[ones] = 1
            blocks.append(np.fft.rfft(buf))
            buf[ones] = 0
        return blocks

    fa = spectra(a)
    fb = fa if b is None else spectra(b)
    if subset:  # fa (2 fb - fa), with 2 fb - fa in fb's place
        for j in range(m):
            fb[j] *= 2
            fb[j] -= fa[j]
    out = [None] * m
    for s in reversed(range(m)):
        spectrum = _diagonal(fa, fb, s)
        fa[s] = fb[s] = None  # no lower diagonal takes block s
        n = min(2 * h - 1, size - s * h)
        counts = exact_counts(np.fft.irfft(spectrum, length)[:n])
        del spectrum
        if n > h:
            out[s + 1][: n - h] += counts[h:]
        out[s] = counts[:h].copy()
    return np.concatenate(out)


def _diagonal(x, y, s) -> np.ndarray:
    """The sum of x[i] y[s - i] over i; when x is y, each pair i < s - i is
    taken once and doubled."""
    total, product = np.zeros_like(x[s]), np.empty_like(x[s])
    symmetric = x is y
    for i in range((s + 1) // 2 if symmetric else s + 1):
        total += np.multiply(x[i], y[s - i], out=product)
    if symmetric:
        total *= 2
        if s % 2 == 0:
            total += np.multiply(x[s // 2], x[s // 2], out=product)
    return total


def _by_shifts(size, a, b, subset) -> np.ndarray:
    """N_AB, N_AA if ``b`` is None, or N_A(2B - A) if ``subset``, by shifted adds."""
    short, other = sorted((a, a if b is None else b), key=len)  # A first if A within B
    row = np.zeros(size, dtype=np.int8)
    row[other // 2] = 2 if subset else 1
    if subset:
        row[short // 2] -= 1
    counts = np.zeros(size, dtype=np.int64)
    for i in (short // 2).tolist():
        counts[i:] += row[: size - i]
    return counts
