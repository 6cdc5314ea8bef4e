"""Correctness gate for every benchmark op.

Each op's output is checked against:

* the golden first terms of its problem (OEIS A002375, A046927, A052343
  and the Chen prefixes), from ``expected.json``;
* a reference series computed here from scratch, with an own sieve and
  FFT convolutions, which checks every term;
* the sha256 of the whole value list, for fixed-input ops whose digest is
  recorded in ``expected.json``;
* ``addrep.oracle.brute_count`` at seeded targets, on sequences freshly
  materialized by ``addrep.sequences.make_sequence``;
* for ``verify``, exit code 0 and the final "all N terms match" line;
* for a pass holding both, two-squares equal to two-triangular term by term.

``tables-10m`` ops are checked against reference lengths and digests of
every materialized sequence, pi(x) at seeded points, and a round trip of
the loaded file.

``python3 perfbench/gate.py`` reads ``{"work", "ops", "results"}`` as JSON
on stdin and prints ``check_pass``'s ``{op_id: [failure, ...]}`` as JSON;
``run.py`` runs it after every pass.  The reference helpers are also imported by
``inproc.py`` to count the work the recursions prescribe.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

@functools.cache
def expected() -> dict:
    """Golden prefixes and recorded digests (``expected.json``)."""
    return json.loads(Path(__file__).with_name("expected.json").read_text())


DIGEST_CHUNK = 1 << 16


def digest(values) -> str:
    """sha256 of the values as little-endian int64.

    Packed a chunk at a time, so that checking a sequence of 10^7 terms
    adds under a megabyte to the peak RSS of the process being measured.
    """
    h = hashlib.sha256()
    for i in range(0, len(values), DIGEST_CHUNK):
        h.update(np.asarray(values[i : i + DIGEST_CHUNK], dtype="<i8").tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- reference


def prime_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[: min(2, limit + 1)] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def kind_flags(kind: str, limit: int, primes: np.ndarray | None = None) -> np.ndarray:
    """Indicator of a built-in sequence kind on 0..limit."""
    flags = np.zeros(limit + 1, dtype=bool)
    if kind in ("all-odd", "odd-squares", "even-squares", "pronic"):
        if kind == "all-odd":
            flags[1::2] = True
        else:
            k = np.arange(math.isqrt(limit) + 2, dtype=np.int64)
            if kind == "pronic":
                vals = k * (k + 1)
            else:
                vals = k[(k % 2) == (1 if kind == "odd-squares" else 0)] ** 2
            flags[vals[vals <= limit]] = True
        return flags
    if primes is None:
        primes = prime_flags(limit)
    if kind == "primes":
        return primes[: limit + 1].copy()
    if kind == "odd-primes":
        flags = primes[: limit + 1].copy()
        if limit >= 2:
            flags[2] = False
        return flags
    if kind == "doubled-primes":
        flags[2 * np.flatnonzero(primes[: limit // 2 + 1])] = True
        return flags
    if kind == "prime-or-odd-semiprime":
        plist = np.flatnonzero(primes[: limit + 1])
        odd = plist[plist != 2]
        for p in odd[odd * odd <= limit].tolist():
            qs = odd[(odd >= p) & (odd <= limit // p)]
            flags[p * qs] = True
        flags[odd] = True
        return flags
    raise ValueError(f"no reference for sequence kind {kind!r}")


def _ordered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ordered pair counts #{(s, t): s in a, t in b, s + t = x}."""
    size = 1 << (len(a) + len(b)).bit_length()
    raw = np.fft.irfft(
        np.fft.rfft(a.astype(float), size) * np.fft.rfft(b.astype(float), size), size
    )[: len(a) + len(b) - 1]
    counts = np.rint(raw)
    if np.abs(raw - counts).max(initial=0.0) > 0.25:
        raise ArithmeticError("FFT rounding guard tripped")
    return counts.astype(np.int64)


def _unordered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unordered pair counts as the brute-force oracle defines them.

    A pair {p, q} with p <= q counts once when p is in a and q in b, or the
    other way round: O_ab + d - (O_ww + d) / 2 with w = a & b and d marking
    the midpoint x / 2 in w.
    """
    w = a & b
    o_ab, o_ww = _ordered(a, b), _ordered(w, w)
    d = np.zeros_like(o_ab)
    d[0::2] = w
    return o_ab + d - (o_ww + d) // 2


def problem_reference(problem: str, n_max: int) -> list[int]:
    """The full series of a built-in problem, from first principles."""
    if problem == "two-squares":
        x = 4 * n_max + 1
        counts = _ordered(kind_flags("even-squares", x), kind_flags("odd-squares", x))
        return counts[1 : x + 1 : 4].tolist()
    if problem == "two-triangular":
        x = 2 * n_max
        pronic = kind_flags("pronic", x)
        return _unordered(pronic, pronic)[0 : x + 1 : 2].tolist()
    x = 2 * n_max
    primes = prime_flags(x)
    if problem == "goldbach":
        odd = kind_flags("odd-primes", x, primes)
        return _unordered(odd, odd)[2 : x + 1 : 2].tolist()
    if problem == "chen-total":
        odd = kind_flags("odd-primes", x, primes)
        mixed = kind_flags("prime-or-odd-semiprime", x, primes)
        two = np.zeros(x + 1, dtype=bool)
        two[2] = True
        even_mixed = kind_flags("doubled-primes", x, primes) | two
        total = _unordered(odd, mixed)[: x + 1] + _unordered(two, even_mixed)[: x + 1]
        return total[2 : x + 1 : 2].tolist()
    if problem == "lemoine-levy":
        counts = _ordered(kind_flags("doubled-primes", x, primes), primes)
        return counts[1:x:2].tolist()
    raise ValueError(f"no reference for problem {problem!r}")


def read_terms(path: Path) -> tuple[str, list[int]]:
    """Parse a sequence file written by workloads.py: parity header, terms."""
    lines = path.read_text().split()
    return lines[1], [int(t) for t in lines[2:]]


def custom_flags(op: dict, work: Path) -> list[np.ndarray]:
    """Indicators on 0..x_max of a custom op's two input files."""
    flags = []
    for name in (op["seq_a"], op["seq_b"]):
        f = np.zeros(op["x_max"] + 1, dtype=bool)
        f[read_terms(work / name)[1]] = True
        flags.append(f)
    return flags


def custom_reference(op: dict, work: Path) -> list[int]:
    pairs = _ordered if op["evaluator"] == "even-odd" else _unordered
    return pairs(*custom_flags(op, work))[op["base"] : op["x_last"] + 1 : 2].tolist()


# ------------------------------------------------------ brute-force samples


def brute_sample(problem: str, n: int) -> int:
    from addrep.oracle import brute_count
    from addrep.sequences import Parity, ParitySequence, SequenceKind, make_sequence

    def seq(kind, limit):
        return make_sequence(SequenceKind(kind), limit)

    if problem == "goldbach":
        p = seq("odd-primes", 2 * n)
        return brute_count(p, p, 2 * n).count
    if problem == "chen-total":
        x = 2 * n
        odd = brute_count(seq("odd-primes", x), seq("prime-or-odd-semiprime", x), x)
        two = ParitySequence([2], Parity.EVEN, x)
        even_mixed = ParitySequence(
            sorted({2, *seq("doubled-primes", x).terms}), Parity.EVEN, x
        )
        return odd.count + brute_count(two, even_mixed, x).count
    if problem == "lemoine-levy":
        x = 2 * n - 1
        return brute_count(seq("doubled-primes", x), seq("primes", x), x, True).count
    if problem == "two-squares":
        x = 4 * n + 1
        return brute_count(seq("even-squares", x), seq("odd-squares", x), x, True).count
    if problem == "two-triangular":
        p = seq("pronic", 2 * n)
        return brute_count(p, p, 2 * n).count
    raise ValueError(problem)


def custom_brute_sample(op: dict, work: Path, x: int) -> int:
    from addrep.oracle import brute_count
    from addrep.sequences import SequenceKind, make_sequence

    a, b = (
        make_sequence(SequenceKind.CUSTOM, op["x_max"], terms=read_terms(work / n)[1])
        for n in (op["seq_a"], op["seq_b"])
    )
    return brute_count(a, b, x, role_tagged=op["evaluator"] == "even-odd").count


# ----------------------------------------------------------------- outputs


def read_rows(op: dict, work: Path) -> tuple[list[tuple[int, int]], list[str]]:
    """(index, value) rows of an op's output, plus format failures."""
    if op["check"] == "verify":
        lines = (work / op["stdout"]).read_text().splitlines()
        rows = []
        for line in lines[:-1]:
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            rows.append((int(fields["n"]), int(fields["count"])))
        want = f": all {op['terms']} terms match the brute-force oracle"
        bad = [] if lines and lines[-1].endswith(want) else [f"no final line {want!r}"]
        return rows, bad
    text = (work / op["out"]).read_text()
    if op["format"] == "json":
        return [tuple(r) for r in json.loads(text)["rows"]], []
    sep = "," if op["format"] == "csv" else None
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line == "n,count":
            continue
        n, v = line.split(sep)
        rows.append((int(n), int(v)))
    return rows, []


def check_series(op: dict, work: Path) -> tuple[list[str], list[int]]:
    """Failures for one cli op that exited 0, and its values."""
    rows, failures = read_rows(op, work)
    values = [v for _, v in rows]
    if op["check"] == "custom":
        first, step = op["base"], 2
    else:
        first, step = op["n_max"] - op["terms"] + 1, 1
    if [i for i, _ in rows] != list(range(first, first + step * op["terms"], step)):
        failures.append(f"indices are not the {op['terms']} expected ones")
        return failures, values
    if op["check"] == "custom":
        reference = custom_reference(op, work)
        sample = lambda x: custom_brute_sample(op, work, x)  # noqa: E731
    else:
        problem = op["problem"]
        golden = expected()["golden"][problem]
        if values[: len(golden)] != golden[: len(values)]:
            failures.append("golden prefix differs")
        recorded = expected()["series_sha256"].get(f"{problem}:{op['n_max']}")
        if recorded is not None and digest(values) != recorded:
            failures.append("sha256 differs from the recorded one")
        reference = problem_reference(problem, op["n_max"])
        sample = lambda n: brute_sample(problem, n)  # noqa: E731
    wrong = [i for i, (got, want) in enumerate(zip(values, reference)) if got != want]
    if wrong:
        failures.append(f"{len(wrong)} terms differ from the reference, first at row {wrong[0]}")
    for target in op["samples"]:
        got, want = values[(target - first) // step], sample(target)
        if got != want:
            failures.append(f"brute_count at {target} is {want}, output has {got}")
    return failures, values


def check_tables(op: dict, work: Path, result: dict, primes: np.ndarray) -> list[str]:
    limit = op.get("limit")
    if op["kind"] == "sieve":
        pi = np.cumsum(primes)
        return [
            f"pi({x}) is {got}, want {int(pi[x])}"
            for x, got in zip(op["samples"], result["pi"])
            if got != int(pi[x])
        ]
    if op["kind"] == "load":
        parity, terms = read_terms(work / op["path"])
        want = (parity, len(terms), digest(terms))
        got = (result["parity"], result["len"], result["digest"])
        return [] if got == want else [f"round trip gave {got[:2]}, want {want[:2]}"]
    # A recorded digest was checked against the reference when it was
    # recorded (see the tests); otherwise compute the reference here.
    want = expected()["tables_sha256"].get(f"{op['sequence']}:{limit}")
    if want is None:
        want = digest(np.flatnonzero(kind_flags(op["sequence"], limit, primes)).tolist())
    return [] if result["digest"] == want else ["terms differ from the reference"]


def check_pass(ops: list[dict], results: dict, work: Path) -> dict[str, list[str]]:
    """Failures per op id for one pass.  ``results`` maps op id to
    ``{"exit": code}`` for cli ops and to the driver's record otherwise."""
    failures: dict[str, list[str]] = {}
    values: dict[str, list[int]] = {}
    primes = None
    for op in ops:
        res = results.get(op["id"]) or {"exit": -1}
        if res.get("exit", 0) != 0:
            failures[op["id"]] = [f"exit code {res['exit']}"]
            continue
        try:
            if op["kind"] == "cli":
                failures[op["id"]], values[op["id"]] = check_series(op, work)
            else:
                if primes is None:
                    primes = prime_flags(max(o.get("limit", 0) for o in ops))
                failures[op["id"]] = check_tables(op, work, res, primes)
        except Exception as exc:  # a check that cannot run fails its op only
            failures[op["id"]] = [f"check raised {exc!r}"]
    pair = [i for i in values if i.endswith((":two-squares", ":two-triangular"))]
    if len(pair) == 2:
        sq, tri = (values[i] for i in sorted(pair))
        m = min(len(sq), len(tri))
        if sq[:m] != tri[:m]:
            for i in pair:
                failures[i].append("two-squares and two-triangular differ")
    return failures


def main() -> int:
    spec = json.load(sys.stdin)
    json.dump(check_pass(spec["ops"], spec["results"], Path(spec["work"])), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
