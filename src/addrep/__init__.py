"""Counting representations of integers as two-term sums from fixed sequences.

The package computes, for increasing integer sequences of uniform parity,
how many ways each target splits into one term from each sequence: by the
paper's incremental recursion, or for the built-in problems (prime pairs,
prime plus prime-or-semiprime, doubled prime plus prime, two squares, two
triangular numbers) by an exact blocked FFT convolution per series.
Everything is cross-checkable against a brute-force oracle.
"""

from .applications import (
    PROBLEMS,
    ProblemSpec,
    chen_odd_odd,
    chen_total,
    goldbach,
    lemoine_levy,
    two_squares,
    two_triangular,
)
from .errors import (
    AddrepError,
    ContainmentError,
    LimitExceededError,
    LimitMismatchError,
    ParityMismatchError,
    ResourceBudgetError,
    SequenceFormatError,
)
from .oracle import (
    RepresentationList,
    brute_count,
    brute_count_series,
    count_two_squares,
    count_two_triangular,
    square_to_triangular,
    triangular_number,
    triangular_to_square,
    verify_remark_identity,
)
from .recursion import CountSeries, EvaluatorKind, Formula, RecursionEvaluator
from .sequences import (
    DEFAULT_TABLE_CAP,
    HARDY_WRIGHT_CAP,
    Parity,
    ParitySequence,
    SequenceKind,
    SieveTables,
    build_sieve,
    even_square_count,
    intersect,
    load_sequence,
    make_sequence,
    odd_semiprime_count,
    odd_square_count,
    pi_hardy_wright,
    pronic_count,
    semiprime_count,
)

__version__ = "0.1.0"

__all__ = [
    "AddrepError",
    "ContainmentError",
    "CountSeries",
    "DEFAULT_TABLE_CAP",
    "EvaluatorKind",
    "Formula",
    "HARDY_WRIGHT_CAP",
    "LimitExceededError",
    "LimitMismatchError",
    "PROBLEMS",
    "Parity",
    "ParityMismatchError",
    "ParitySequence",
    "ProblemSpec",
    "RecursionEvaluator",
    "RepresentationList",
    "ResourceBudgetError",
    "SequenceFormatError",
    "SequenceKind",
    "SieveTables",
    "brute_count",
    "brute_count_series",
    "build_sieve",
    "chen_odd_odd",
    "chen_total",
    "count_two_squares",
    "count_two_triangular",
    "even_square_count",
    "goldbach",
    "intersect",
    "lemoine_levy",
    "load_sequence",
    "make_sequence",
    "odd_semiprime_count",
    "odd_square_count",
    "pi_hardy_wright",
    "pronic_count",
    "semiprime_count",
    "square_to_triangular",
    "triangular_number",
    "triangular_to_square",
    "two_squares",
    "two_triangular",
    "verify_remark_identity",
]
