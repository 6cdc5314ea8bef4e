"""Workload definitions and seeded input generation (standard library only).

A workload is a fixed list of operations ("ops").  Each op is a plain dict
that the runner, the in-process driver and the correctness gate all read:

* ``kind: "cli"`` ops run ``python -m addrep.cli <argv>`` in the work
  directory.  ``check`` says how the gate reads the result: ``series``
  (a built-in problem written by ``compute``), ``verify`` (the stdout of
  ``verify``) or ``custom`` (a custom pair written by ``compute``).
* ``kind: "sieve" | "make_sequence" | "load"`` ops are library calls made
  by the in-process driver for the ``tables-10m`` workload, which shares
  one set of sieve tables between them.

The seed decides every generated input file, the op order and the targets
the gate samples.  The same seed yields byte-identical inputs.  Costs do
not depend on the seed, so that run-to-run spread measures the program
and not the draw: built-in problems use fixed sizes, and the custom pairs
keep the sum of their densities and their overlap fixed while the seed
moves every term.
"""

from __future__ import annotations

import random
from pathlib import Path

WORKLOADS = ("compute-series", "verify-oracle", "custom-general", "tables-10m")

# Sizes per scale.  "full" is the benchmark; "smoke" keeps the same shape
# at a size the test suite can run in seconds.
SIZES = {
    "full": {
        "compute": {
            "goldbach": 30_000,
            "chen-total": 15_000,
            "lemoine-levy": 15_000,
            "two-squares": 6_000,
            "two-triangular": 9_000,
        },
        "verify": {
            "goldbach": 5_000,
            "chen-total": 4_000,
            "lemoine-levy": 5_000,
            "two-squares": 3_000,
            "two-triangular": 5_000,
        },
        "oracle_cap": 20_001,
        "custom_x": 20_000,
        "tables_limit": 10_000_000,
        "load_span": 4_000_000,
    },
    "smoke": {
        "compute": {
            "goldbach": 2_000,
            "chen-total": 1_000,
            "lemoine-levy": 1_000,
            "two-squares": 400,
            "two-triangular": 600,
        },
        "verify": {
            "goldbach": 200,
            "chen-total": 200,
            "lemoine-levy": 200,
            "two-squares": 100,
            "two-triangular": 200,
        },
        "oracle_cap": 20_001,
        "custom_x": 2_000,
        "tables_limit": 100_000,
        "load_span": 40_000,
    },
}

# Index of the first term of each built-in problem (see addrep.applications).
N_START = {
    "goldbach": 1,
    "chen-total": 1,
    "lemoine-levy": 1,
    "two-squares": 0,
    "two-triangular": 0,
}

TABLE_KINDS = (
    "odd-primes",
    "prime-or-odd-semiprime",
    "doubled-primes",
    "pronic",
    "even-squares",
    "all-odd",
)

# Custom pairs: a general-formula pair of each parity shape.  The second
# sequence's density is 1 - d and the pair shares CUSTOM_OVERLAP * (slots)
# terms, so the recursion sums the same number of terms for every seed.
CUSTOM_OVERLAP = 0.16
CUSTOM_PAIRS = (
    # name, parity a, parity b, output format, 0 forced into both
    ("odd-odd", "odd", "odd", "bfile", False),
    ("even-even", "even", "even", "csv", True),
    ("even-odd", "even", "odd", "json", False),
)

SAMPLES_PER_OP = 4


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per purpose; string seeding is stable."""
    return random.Random(f"addrep-bench:{seed}:{purpose}")


def _write_terms(path: Path, parity: str, terms: list[int]) -> None:
    body = "\n".join(map(str, terms))
    path.write_text(f"parity: {parity}\n{body}\n")


def _custom_terms(rng, parity_a, parity_b, x, with_zero):
    """Draw seq_a with density d in [0.2, 0.8] and seq_b with density 1 - d.

    For same-parity pairs seq_b holds a CUSTOM_OVERLAP share of the slots
    in common with seq_a, so |a| + |b| + |a & b| is fixed up to sampling
    noise; that is what the general step formula's cost depends on.
    """
    d = rng.uniform(0.2, 0.8)
    start_a = 1 if parity_a == "odd" else 0
    a = [t for t in range(start_a, x + 1, 2) if rng.random() < d]
    start_b = 1 if parity_b == "odd" else 0
    if parity_a != parity_b:
        b = [t for t in range(start_b, x + 1, 2) if rng.random() < 1 - d]
    else:
        in_a = set(a)
        p_in = CUSTOM_OVERLAP / d
        p_out = (1 - d - CUSTOM_OVERLAP) / (1 - d)
        b = [
            t for t in range(start_b, x + 1, 2)
            if rng.random() < (p_in if t in in_a else p_out)
        ]
    if with_zero:
        a = [0] + [t for t in a if t != 0]
        b = [0] + [t for t in b if t != 0]
    return a, b


def _sample(rng, lo: int, hi: int, step: int = 1) -> list[int]:
    count = (hi - lo) // step + 1
    picks = rng.sample(range(count), min(SAMPLES_PER_OP, count))
    return sorted(lo + step * i for i in picks)


def build(workload: str, seed: int, work: Path, scale: str = "full") -> list[dict]:
    """Write the workload's input files into ``work`` and return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[scale]
    rng = rng_for(seed, workload)
    ops: list[dict] = []
    if workload == "compute-series":
        for problem, n_max in size["compute"].items():
            out = f"{problem}.txt"
            ops.append({
                "id": f"compute:{problem}",
                "kind": "cli",
                "check": "series",
                "argv": ["compute", "--problem", problem, "--n-max", str(n_max),
                         "--out", out],
                "problem": problem,
                "n_max": n_max,
                "format": "bfile",
                "out": out,
                "terms": n_max - N_START[problem] + 1,
                "samples": _sample(rng, N_START[problem], n_max),
            })
    elif workload == "verify-oracle":
        for problem, n_max in size["verify"].items():
            ops.append({
                "id": f"verify:{problem}",
                "kind": "cli",
                "check": "verify",
                "argv": ["verify", "--problem", problem, "--n-max", str(n_max),
                         "--oracle-cap", str(size["oracle_cap"])],
                "problem": problem,
                "n_max": n_max,
                "stdout": f"verify-{problem}.txt",
                "terms": n_max - N_START[problem] + 1,
                "samples": _sample(rng, N_START[problem], n_max),
            })
    elif workload == "custom-general":
        x = size["custom_x"]
        for name, pa, pb, fmt, with_zero in CUSTOM_PAIRS:
            a, b = _custom_terms(rng, pa, pb, x, with_zero)
            seq_a, seq_b = f"{name}-a.txt", f"{name}-b.txt"
            _write_terms(work / seq_a, pa, a)
            _write_terms(work / seq_b, pb, b)
            base = {"odd-odd": 2, "even-even": 0, "even-odd": 1}[name]
            x_last = base + 2 * ((x - base) // 2)
            out = f"{name}.{'txt' if fmt == 'bfile' else fmt}"
            ops.append({
                "id": f"custom:{name}",
                "kind": "cli",
                "check": "custom",
                "argv": ["compute", "--problem", "custom", "--seq-a", seq_a,
                         "--seq-b", seq_b, "--x-max", str(x), "--format", fmt,
                         "--out", out],
                "evaluator": name,
                "x_max": x,
                "seq_a": seq_a,
                "seq_b": seq_b,
                "base": base,
                "x_last": x_last,
                "format": fmt,
                "out": out,
                "terms": (x_last - base) // 2 + 1,
                "samples": _sample(rng, base, x_last, 2),
            })
    else:
        limit = size["tables_limit"]
        ops.append({
            "id": "tables:build_sieve",
            "kind": "sieve",
            "limit": limit,
            "samples": _sample(rng, 0, limit),
        })
        for seq_kind in TABLE_KINDS:
            ops.append({
                "id": f"tables:{seq_kind}",
                "kind": "make_sequence",
                "sequence": seq_kind,
                "limit": limit,
            })
        span = size["load_span"]
        terms = [t for t in range(1, span, 2) if rng.random() < 0.5]
        _write_terms(work / "load-odd.txt", "odd", terms)
        ops.append({
            "id": "tables:load_sequence",
            "kind": "load",
            "path": "load-odd.txt",
            "terms": len(terms),
        })
        # Built-in problems and custom pairs are shuffled below; the tables
        # ops keep their order because they share the sieve.
        return ops
    rng.shuffle(ops)
    return ops
