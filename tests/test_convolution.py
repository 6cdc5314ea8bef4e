import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from addrep import convolution
from addrep.convolution import count_series, exact_counts, fast_length
from addrep.errors import ResourceBudgetError
from addrep.oracle import brute_count_series
from addrep.recursion import EvaluatorKind, RecursionEvaluator
from addrep.sequences import Parity, ParitySequence, SequenceKind, build_sieve, make_sequence


def _first_term(parity: Parity) -> int:
    return 1 if parity is Parity.ODD else 0


def _sequence(parity: Parity, limit: int, slots) -> ParitySequence:
    start = _first_term(parity)
    return ParitySequence([start + 2 * i for i in sorted(slots)], parity, limit)


def _forced(route, *args):
    """count_series with its route threshold rigged to take ``route``, so
    the shared-term tail runs as it does on the route's own choice."""
    with pytest.MonkeyPatch.context() as patch:
        # 10^15 shifted adds per side outrun any test's sides, and no side's
        # adds, not even an empty side's 0, are at most -1.
        patch.setattr(convolution, "_SHIFTS_PER_SIDE", 10**15 if route == "shifts" else -1)
        return count_series(*args)


def _forced_routes(kind, x_last, a_terms, b_terms):
    """The engine's counts by its shifted adds and by its transforms;
    equal sequences also run as a pair."""
    return [
        _forced(route, kind, x_last, a_terms, b).tolist()
        for b in ([b_terms] if b_terms is not None else [None, a_terms])
        for route in ("shifts", "transform")
    ]


def _check_three_routes(kind, a, b, relation):
    """Engine (by any of its routes) == every applicable recursion
    formula == brute force."""
    base = kind.base
    x_last = base + 2 * ((a.limit - base) // 2)
    b_terms = None if relation == "equal" else b.terms
    engine = count_series(kind, x_last, a.terms, b_terms).tolist()
    for counts in _forced_routes(kind, x_last, a.terms, b_terms):
        assert counts == engine
    general = RecursionEvaluator(kind, a, b)
    evaluators = {"general": general}
    if kind is not EvaluatorKind.EVEN_ODD and relation in ("subset", "equal"):
        evaluators["subset"] = general.specialized_subset()
        if relation == "equal":
            evaluators["equal"] = general.specialized_equal()
    for name, evaluator in evaluators.items():
        assert engine == evaluator.run_to(x_last).values, name
    oracle = brute_count_series(
        a, b, x_last, role_tagged=kind is EvaluatorKind.EVEN_ODD, base=base
    ).values
    assert engine == oracle


@st.composite
def sequence_pairs(draw):
    kind = draw(st.sampled_from(list(EvaluatorKind)))
    pa, pb = kind.parities
    limit = draw(st.integers(kind.base, 150))  # odd and even limits
    relation = "independent"
    if kind is not EvaluatorKind.EVEN_ODD:
        relation = draw(st.sampled_from(
            ["independent", "subset", "equal", "overlapping", "disjoint"]))
    slots_a = range((limit - _first_term(pa)) // 2 + 1)
    slots_b = range((limit - _first_term(pb)) // 2 + 1)
    b_slots = draw(st.sets(st.sampled_from(slots_b)) if slots_b else st.just(set()))
    if relation == "equal":
        a_slots = b_slots
    elif relation == "subset":
        a_slots = {s for s in b_slots if draw(st.booleans())}
    elif relation == "overlapping":  # some terms shared, some not
        outside = [s for s in slots_a if s not in b_slots]
        assume(b_slots and outside)
        a_slots = (draw(st.sets(st.sampled_from(sorted(b_slots)), min_size=1))
                   | draw(st.sets(st.sampled_from(outside), min_size=1)))
    else:
        a_slots = draw(st.sets(st.sampled_from(slots_a)) if slots_a else st.just(set()))
        if relation == "disjoint":
            a_slots -= b_slots
    a = _sequence(pa, limit, a_slots)
    b = _sequence(pb, limit, b_slots)
    return kind, a, b, relation


@settings(max_examples=300, deadline=None)
@given(sequence_pairs())
def test_engine_equals_recursion_and_oracle(case):
    _check_three_routes(*case)


@settings(max_examples=100, deadline=None)
@given(sequence_pairs(), st.booleans())
def test_transform_blocks_against_brute_force(case, swap):
    # The transform route cut into 1, 2 and 3 blocks, into K of one target
    # each (also when asked for K + 1), and into a count that leaves the
    # last block short.  Swapping an unordered pair turns A within B into B
    # within A.
    kind, a, b, relation = case
    if swap and kind is not EvaluatorKind.EVEN_ODD:
        a, b = b, a
    base = kind.base
    x_last = base + 2 * ((a.limit - base) // 2)
    size = (x_last - base) // 2 + 1
    want = brute_count_series(
        a, b, x_last, role_tagged=kind is EvaluatorKind.EVEN_ODD, base=base
    ).values
    b_terms = None if relation == "equal" else b.terms
    short = [m for m in range(2, size) if size % -(-size // m)][:1]
    for blocks in (1, 2, 3, size, size + 1, *short):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(convolution, "_BLOCKS", blocks)
            got = _forced("transform", kind, x_last, a.terms, b_terms).tolist()
        assert got == want, blocks


# Hand-picked slots of A against B's, per relation, at limit 41: 20 targets
# for odd-odd, 21 for even-even and even-odd.  "superset" puts B within A.
_FIXED_B = {0, 1, 2, 4, 5, 7, 9, 10, 13, 16, 19}
_FIXED_A = {
    "independent": {0, 3, 4, 8, 11, 12, 17, 20},
    "subset": {1, 4, 9, 16},
    "superset": _FIXED_B | {3, 12, 20},
    "equal": _FIXED_B,
    "overlapping": {2, 3, 5, 6, 14, 19},
    "disjoint": {3, 6, 8, 11, 20},
}


def test_fixed_pairs_against_brute_force():
    # Every kind and relation by both forced routes, the transforms cut into
    # 1, 2 and 3 blocks (the last one short) and into one block per target;
    # equal sequences also run as a pair.  A fast check of what the
    # property tests below check over drawn pairs.
    limit = 41
    for kind in EvaluatorKind:
        pa, pb = kind.parities
        b = _sequence(pb, limit, _FIXED_B)
        x_last = kind.base + 2 * ((limit - kind.base) // 2)
        size = (x_last - kind.base) // 2 + 1
        relations = ["independent"] if kind is EvaluatorKind.EVEN_ODD else _FIXED_A
        for relation in relations:
            a = _sequence(pa, limit, _FIXED_A[relation])
            want = brute_count_series(
                a, b, x_last, role_tagged=kind is EvaluatorKind.EVEN_ODD, base=kind.base
            ).values
            for b_terms in [b.terms] + ([None] if relation == "equal" else []):
                got = _forced("shifts", kind, x_last, a.terms, b_terms).tolist()
                assert got == want, (kind, relation, "shifts")
                for blocks in (1, 2, 3, size):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(convolution, "_BLOCKS", blocks)
                        got = _forced("transform", kind, x_last, a.terms, b_terms).tolist()
                    assert got == want, (kind, relation, blocks)


@pytest.mark.parametrize("shape", ["equal", "contained", "even-odd", "disjoint", "partly shared"])
def test_route_threshold_is_shifted_adds_per_side(monkeypatch, shape):
    # The shifts run while their adds (the short side's terms, plus W's for
    # a partly shared pair's second pass) are at most _SHIFTS_PER_SIDE for
    # each side of block spectra the transforms would build: 1 for an equal
    # pair, 2 for a pair (a disjoint one too: its W is empty), 3 for a
    # partly shared one (A and B, then W).  One term more takes the
    # transforms.
    taken = []
    for name in ("_by_shifts", "_by_fft"):
        route = getattr(convolution, name)
        monkeypatch.setattr(convolution, name,
                            lambda *args, name=name, route=route: taken.append(name) or route(*args))
    sides = {"equal": 1, "contained": 2, "even-odd": 2, "disjoint": 2, "partly shared": 3}[shape]
    limit = convolution._SHIFTS_PER_SIDE * 12
    odd, even = np.arange(1, limit, 2), np.arange(0, limit, 2)
    for adds in (convolution._SHIFTS_PER_SIDE * sides, convolution._SHIFTS_PER_SIDE * sides + 1):
        kind, b = EvaluatorKind.ODD_ODD, odd
        if shape == "equal":
            a, b = odd[:adds], None
        elif shape == "contained":
            a = odd[:adds]
        elif shape == "even-odd":
            kind, a = EvaluatorKind.EVEN_ODD, even[:adds]
        elif shape == "disjoint":
            a, b = odd[1::2][:adds], odd[::2]
        else:  # adds // 3 of A's terms are B's, so W holds adds // 3
            b, shared = odd[::2], adds // 3
            a = np.sort(np.concatenate((odd[::2][:shared], odd[1::2][: adds - 2 * shared])))
        taken.clear()
        count_series(kind, limit - 1, a, b)
        want = "_by_shifts" if adds == convolution._SHIFTS_PER_SIDE * sides else "_by_fft"
        assert taken and set(taken) == {want}, adds


@pytest.mark.parametrize("kind", list(EvaluatorKind))
@pytest.mark.parametrize("limit_offset", [0, 1, 2, 7])
@pytest.mark.parametrize("shape", ["empty", "single", "first", "full"])
def test_engine_edge_cases(kind, limit_offset, shape):
    # Limits equal to the base and just past it; empty and one-term
    # sequences; the first lattice term, which is 0 in even sequences.
    pa, pb = kind.parities
    limit = kind.base + limit_offset
    slots_b = range((limit - _first_term(pb)) // 2 + 1)
    chosen = {
        "empty": set(),
        "single": {len(slots_b) - 1} if slots_b else set(),
        "first": {0} if slots_b else set(),
        "full": set(slots_b),
    }[shape]
    b = _sequence(pb, limit, chosen)
    a = _sequence(pa, limit, chosen if pa is pb else {0})
    relation = "independent" if kind is EvaluatorKind.EVEN_ODD else "equal"
    _check_three_routes(kind, a, b, relation)


@pytest.mark.parametrize("kind", list(EvaluatorKind))
@pytest.mark.parametrize("short_terms", [0, 1, 2, 3])
@pytest.mark.parametrize("short_side", ["a", "b"])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("limit", [40, 151])
def test_short_side_against_a_long_one(kind, short_terms, short_side, shared, limit):
    # Sides of 0-3 terms, the shape the shifted adds are for; their terms
    # drawn from the long side (shared) or anywhere on the lattice.
    rng = random.Random(f"{kind.value}{short_terms}{short_side}{shared}{limit}")
    long_parity, short_parity = kind.parities[::-1 if short_side == "a" else 1]
    long_slots = {s for s in range((limit - _first_term(long_parity)) // 2 + 1)
                  if rng.random() < 0.6}
    pool = sorted(long_slots) if shared and long_parity is short_parity else range(
        (limit - _first_term(short_parity)) // 2 + 1)
    short_slots = rng.sample(pool, min(short_terms, len(pool)))
    long_seq = _sequence(long_parity, limit, long_slots)
    short_seq = _sequence(short_parity, limit, short_slots)
    a, b = (short_seq, long_seq) if short_side == "a" else (long_seq, short_seq)
    relation = "subset" if shared and kind is not EvaluatorKind.EVEN_ODD else "independent"
    if relation == "subset" and short_side == "b":
        relation = "independent"  # the subset formulas need the smaller side first
    _check_three_routes(kind, a, b, relation)


@pytest.mark.parametrize("kind", [EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN])
@pytest.mark.parametrize("slots", [(), (0,), (0, 3), (1, 2, 7)])
def test_short_equal_sequences(kind, slots):
    seq = _sequence(kind.parities[0], 30, slots)
    _check_three_routes(kind, seq, seq, "equal")


@pytest.mark.parametrize("kind", [EvaluatorKind.ODD_ODD, EvaluatorKind.EVEN_EVEN])
@pytest.mark.parametrize("relation", ["equal", "subset", "overlapping"])
def test_shared_term_on_the_last_target(kind, relation):
    # The last target is twice the shared slot 3 (x = 14 = 7 + 7 for odd
    # terms, 12 = 6 + 6 for even ones): the delta correction's last entry.
    slots_a = {"equal": (0, 1, 3), "subset": (1, 3), "overlapping": (0, 3)}[relation]
    slots_b = (1, 2, 3) if relation == "overlapping" else (0, 1, 3)
    parity = kind.parities[0]
    limit = 2 * (2 * 3 + _first_term(parity))
    a, b = _sequence(parity, limit, slots_a), _sequence(parity, limit, slots_b)
    _check_three_routes(kind, a, b, relation)


def test_chen_contained_pair_takes_two_transforms(monkeypatch):
    # The odd primes lie within the primes and odd semiprimes, so W = A and
    # the spectra fa (2 fb - fa) take two sides of m block transforms, not
    # three; the shifted adds, forced, give the same counts with none.
    # Given in the other order, W = B, and the symmetric count swaps the
    # sides.  The 10^4 targets make m blocks of 10^4 / m entries.
    x_max = 2 * 10**4
    blocks = min(convolution._BLOCKS, 10**4)
    tables = build_sieve(x_max)
    odd_primes = make_sequence(SequenceKind.ODD_PRIMES, x_max, tables=tables).terms
    chen = make_sequence(SequenceKind.PRIME_OR_ODD_SEMIPRIME, x_max, tables=tables).terms
    rfft, calls = np.fft.rfft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    for a, b in ((odd_primes, chen), (chen, odd_primes)):
        calls.clear()
        counts = count_series(EvaluatorKind.ODD_ODD, x_max, a, b)
        assert len(calls) == 2 * blocks
        assert counts.tolist() == _forced("shifts", EvaluatorKind.ODD_ODD, x_max, a, b).tolist()
        assert len(calls) == 2 * blocks


@pytest.mark.parametrize("route", ["shifts", "transform"])
def test_a_disjoint_pair_takes_one_product(monkeypatch, route):
    # Odd composites against the odd primes share no term: W is empty, so
    # the count is N_AB, one product on either route, with no N_WW pass.
    x_max = 2 * 10**3
    primes = make_sequence(SequenceKind.ODD_PRIMES, x_max)
    composites = ParitySequence(
        np.setdiff1d(np.arange(1, x_max + 1, 2), primes.terms), Parity.ODD, x_max)
    products = []
    for name in ("_by_shifts", "_by_fft"):
        product = getattr(convolution, name)
        monkeypatch.setattr(convolution, name, lambda *args, product=product:
                            products.append(args) or product(*args))
    want = brute_count_series(composites, primes, x_max, base=2).values
    for a, b in ((composites, primes), (primes, composites)):
        products.clear()
        assert _forced(route, EvaluatorKind.ODD_ODD, x_max, a.terms, b.terms).tolist() == want
        assert len(products) == 1
        assert products[0][2] is not None and not products[0][3]  # N_AB, not N_WW


def test_a_one_term_side_runs_no_transform(monkeypatch):
    # Chen-total's even-even part: {2} against {2} and the doubled primes.
    def no_transform(*args, **kwargs):
        raise AssertionError("transform on a one-term side")

    x_max = 2 * 10**6
    b = np.concatenate(([2], 2 * build_sieve(x_max // 2).primes))
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    counts = count_series(EvaluatorKind.EVEN_EVEN, x_max, np.array([2]), b)
    assert counts[:6].tolist() == [0, 0, 1, 1, 1, 0]  # 4 = 2+2, 6 = 2+4, 8 = 2+6; not 10
    assert counts.sum() == len(b)


def test_terms_past_x_max_are_ignored():
    terms = np.arange(1, 101, 2, dtype=np.int64)
    assert count_series(EvaluatorKind.ODD_ODD, 20, terms).tolist() == (
        count_series(EvaluatorKind.ODD_ODD, 20, terms[terms <= 20]).tolist()
    )


def test_rejects_x_max_below_base():
    with pytest.raises(ValueError):
        count_series(EvaluatorKind.ODD_ODD, 1, np.array([1], dtype=np.int64))


@pytest.mark.parametrize("error", [1, -1])
@pytest.mark.parametrize("b", [None, np.arange(3, 100, 4)])
def test_an_odd_doubled_count_raises(monkeypatch, error, b):
    # 2 N_AB - N_WW + delta is twice a count; an entry rounded one off makes
    # it odd, which halving would hide (+1) or carry as one short (-1).  One
    # block puts every target in one inverse transform, so the perturbed
    # index 7 is target 16 and no other.
    def one_off(values):
        counts = exact_counts(values)
        counts[7] += error
        return counts

    monkeypatch.setattr(convolution, "exact_counts", one_off)
    monkeypatch.setattr(convolution, "_BLOCKS", 1)
    terms = np.arange(1, 100, 2)
    with pytest.raises(ResourceBudgetError, match="at 16 came out odd"):
        _forced("transform", EvaluatorKind.ODD_ODD, 100, terms, b)


def test_rounding_guard_raises_off_integer_values():
    assert exact_counts(np.array([0.0, 1.2499, 2.7501])).tolist() == [0, 1, 3]
    for off in (0.25, 0.5, -0.3, np.nan, np.inf, -np.inf):
        with pytest.raises(ResourceBudgetError):
            exact_counts(np.array([1.0, 4.0 + off, 2.0]))


@pytest.mark.parametrize("shape", ["goldbach", "chen", "lemoine-levy", "partly shared"])
def test_transform_route_peak_memory_per_target(shape):
    # Each side's m block spectra hold about h + 1 complex entries per h
    # targets, 16 B per target a side.  A pair holds two sides at the last
    # diagonal, an equal pair one, each with one diagonal's spectrum, its
    # inverse and a block of indicator: 34 and 18.7 B per target at m = 16.
    # Block s's spectra are dropped once diagonal s is done, as the
    # output's int64 blocks grow.  A partly shared pair runs N_AB, then
    # N_WW beside N_AB's int64 counts: two sides at a time, never three.
    n = 10**5
    tables = build_sieve(2 * n)
    odd_primes = make_sequence(SequenceKind.ODD_PRIMES, 2 * n, tables=tables).terms
    kind, x_max, a, b, bound = {
        "goldbach": (EvaluatorKind.ODD_ODD, 2 * n, odd_primes, None, 20),
        "chen": (EvaluatorKind.ODD_ODD, 2 * n, odd_primes, make_sequence(
            SequenceKind.PRIME_OR_ODD_SEMIPRIME, 2 * n, tables=tables).terms, 36),
        "lemoine-levy": (EvaluatorKind.EVEN_ODD, 2 * n - 1, make_sequence(
            SequenceKind.DOUBLED_PRIMES, 2 * n, tables=tables).terms, odd_primes, 36),
        "partly shared": (EvaluatorKind.ODD_ODD, 2 * n, odd_primes[::2], odd_primes[1::3], 36),
    }[shape]
    count_series(kind, x_max, a, b)  # numpy's plan for this length, made once
    tracemalloc.start()
    try:
        counts = count_series(kind, x_max, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counts) == n
    assert peak < bound * n  # 32-40 B per target with full-length transforms


def test_fast_length_is_smallest_5_smooth():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 3000):
        want = next(m for m in range(n, 2 * n + 1) if smooth(m))
        assert fast_length(n) == want
    assert fast_length(2 * 10**6 - 1) == 2 * 10**6
