"""Unit tests for the instrumented sorters.

Three layers: frozen single-run examples (worked out by hand), exhaustive
agreement with the naive transcriptions in reference.py at small n, and
seeded random agreement at larger n.  Trace tests pin the event protocol.
"""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    merge_count_inversions,
    naive_desc_ineq,
    naive_desc_loopswap,
    naive_exchange,
    naive_icbics,
    naive_improved,
    naive_std_insertion,
)
from sortlab import (
    ALGORITHMS,
    SortReport,
    Tagged,
    TraceEvent,
    exchange_sort,
    icbics_desc_ineq,
    icbics_desc_loopswap,
    icbics_sort,
    improved_sort,
    replay_trace,
    std_insertion_sort,
)

NAIVE = {
    "icbics": naive_icbics,
    "exchange": naive_exchange,
    "improved": naive_improved,
    "icbics-desc-ineq": naive_desc_ineq,
    "icbics-desc-loops": naive_desc_loopswap,
    "std-insertion": naive_std_insertion,
}


def expected_output(name: str, values) -> list:
    if ALGORITHMS[name].descending:
        return sorted(values, reverse=True)
    return sorted(values)


# ----------------------------------------------------- frozen examples


@pytest.mark.parametrize(
    "name, values, output, comparisons, swaps",
    [
        ("icbics", [2, 3, 1], [1, 2, 3], 9, 4),
        ("icbics", [1, 2, 3], [1, 2, 3], 9, 4),
        ("icbics", [3, 1, 2], [1, 2, 3], 9, 2),
        ("icbics", [1], [1], 1, 0),
        ("icbics", [], [], 0, 0),
        ("exchange", [2, 3, 1], [1, 2, 3], 3, 2),
        ("exchange", [3, 2, 1], [1, 2, 3], 3, 3),
        ("improved", [2, 3, 1], [1, 2, 3], 3, 2),
        ("improved", [3, 2, 1], [1, 2, 3], 3, 3),
        ("improved", [1, 2, 3], [1, 2, 3], 3, 0),
        ("icbics-desc-ineq", [2, 1, 3], [3, 2, 1], 9, 4),
        ("icbics-desc-ineq", [1, 2, 3], [3, 2, 1], 9, 3),
        ("icbics-desc-loops", [3, 1, 2], [3, 2, 1], 9, 3),
        ("icbics-desc-loops", [1, 2, 3], [3, 2, 1], 9, 3),
        ("std-insertion", [2, 3, 1], [1, 2, 3], 3, 2),
        ("std-insertion", [1, 2, 3], [1, 2, 3], 2, 0),
        ("std-insertion", [3, 2, 1], [1, 2, 3], 3, 3),
    ],
)
def test_frozen_examples(name, values, output, comparisons, swaps):
    report = ALGORITHMS[name].func(values)
    assert report.output == output
    assert report.comparisons == comparisons
    assert report.swaps == swaps
    assert report.n == len(values)
    assert report.algorithm == name


def test_report_swap_labels():
    for name, info in ALGORITHMS.items():
        report = info.func([3, 1, 2])
        expected = "moves" if name == "std-insertion" else "swaps"
        assert report.swap_label == expected


def test_input_is_not_mutated():
    values = [5, 3, 4, 1, 2]
    for info in ALGORITHMS.values():
        info.func(values)
    assert values == [5, 3, 4, 1, 2]
    report = icbics_sort((4, 2, 3, 1))
    assert isinstance(report, SortReport)
    assert report.output == [1, 2, 3, 4]


# --------------------------------------- exhaustive and random checks


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_exhaustive_agreement_with_naive(name):
    func = ALGORITHMS[name].func
    naive = NAIVE[name]
    for n in range(0, 7):
        for perm in permutations(range(1, n + 1)):
            report = func(perm)
            out, comps, swaps = naive(perm)
            assert report.output == out == expected_output(name, perm)
            assert report.comparisons == comps
            assert report.swaps == swaps
    for n in range(1, 5):
        for values in product((1, 2, 3), repeat=n):
            report = func(values)
            out, comps, swaps = naive(values)
            assert report.output == out == expected_output(name, values)
            assert (report.comparisons, report.swaps) == (comps, swaps)


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_random_agreement_with_naive(name):
    func = ALGORITHMS[name].func
    naive = NAIVE[name]
    rng = random.Random(2024)
    for n in (5, 16, 33):
        for _ in range(60):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            dups = [rng.randrange(-3, 4) for _ in range(n)]
            for values in (perm, dups):
                report = func(values)
                out, comps, swaps = naive(values)
                assert report.output == out == expected_output(name, values)
                assert (report.comparisons, report.swaps) == (comps, swaps)


def test_comparison_count_laws():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 17, 40):
        values = [rng.randrange(100) for _ in range(n)]
        square = n * n
        triangle = n * (n - 1) // 2
        assert icbics_sort(values).comparisons == square
        assert icbics_desc_ineq(values).comparisons == square
        assert icbics_desc_loopswap(values).comparisons == square
        assert exchange_sort(values).comparisons == triangle
        assert improved_sort(values).comparisons == triangle


def test_swaps_equal_inversions_for_classical_sorts():
    # On distinct inputs, exchange and improved perform exactly one
    # exchange per inversion; the insertion sort's shift count equals
    # the inversion count even with duplicates.
    rng = random.Random(11)
    for n in (2, 6, 20, 45):
        for _ in range(30):
            perm = list(range(n))
            rng.shuffle(perm)
            inv = merge_count_inversions(perm)
            assert exchange_sort(perm).swaps == inv
            assert improved_sort(perm).swaps == inv
            dups = [rng.randrange(5) for _ in range(n)]
            assert std_insertion_sort(dups).swaps == merge_count_inversions(dups)


def test_improved_matches_icbics_output():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(0, 20)
        values = [rng.randrange(-5, 6) for _ in range(n)]
        assert improved_sort(values).output == icbics_sort(values).output


def test_descending_variants_agree_on_every_input():
    # Not only on distinct keys: outputs and swap counts agree on every
    # input over {1..4} up to n = 6, duplicates included.
    inputs = 0
    for n in range(0, 7):
        for values in product((1, 2, 3, 4), repeat=n):
            inputs += 1
            ineq = icbics_desc_ineq(values)
            loops = icbics_desc_loopswap(values)
            assert (ineq.output, ineq.swaps) == (loops.output, loops.swaps), values
    assert inputs == 5461


# ------------------------------------------------------------- traces


def collect(name, values):
    events = []
    report = ALGORITHMS[name].func(values, events.append)
    return report, events


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_trace_protocol(name):
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randrange(0, 12)
        values = [rng.randrange(-4, 5) for _ in range(n)]
        report, events = collect(name, values)

        assert [e.seq for e in events] == list(range(len(events)))
        kinds = [e.kind for e in events]
        assert kinds.count("compare") == report.comparisons
        assert kinds.count("swap") == report.swaps
        for pos, event in enumerate(events):
            assert event.kind in ("compare", "swap")
            assert 1 <= event.i <= n and 1 <= event.j <= n
            if event.kind == "swap":
                prev = events[pos - 1]
                assert prev.kind == "compare"
                assert (prev.i, prev.j) == (event.i, event.j)
        assert replay_trace(values, events) == report.output


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_bare_and_traced_runs_agree(name):
    # Bare and traced runs share one loop, which counts comparisons once
    # per pass and gives each event a seq from a per-pass offset.  At
    # n = 300 the counts and seqs are far past CPython's small-int cache.
    func = ALGORITHMS[name].func
    for n in range(0, 7):
        for values in product((1, 2, 3), repeat=n):
            events = []
            assert func(values, events.append) == func(values), values
    rng = random.Random(1)
    distinct = list(range(1, 301))
    rng.shuffle(distinct)
    duplicates = [rng.randrange(1, 40) for _ in range(300)]
    for values in (distinct, duplicates):
        events = []
        report = func(values, events.append)
        assert report == func(values)
        assert [e.seq for e in events] == list(range(len(events)))
        kinds = [e.kind for e in events]
        assert kinds.count("compare") == report.comparisons
        assert kinds.count("swap") == report.swaps
        assert replay_trace(values, events) == report.output


@pytest.mark.parametrize("name", ["icbics", "exchange", "improved", "icbics-desc-ineq"])
def test_compare_order_follows_the_readme_loops(name):
    # README's loops, 1-based.  The (i, j) order depends on n alone, so a
    # pass that starts on the wrong row or scans the wrong range fails
    # here even where the output still sorts.
    loops = {
        "icbics": lambda n: [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)],
        "exchange": lambda n: [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)],
        "improved": lambda n: [(i, j) for i in range(2, n + 1) for j in range(1, i)],
        "icbics-desc-ineq": lambda n: [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)],
    }
    for n in range(0, 6):
        expected = loops[name](n)
        for values in product((1, 2, 3), repeat=n):
            _, events = collect(name, values)
            assert [(e.i, e.j) for e in events if e.kind == "compare"] == expected, values


def test_loopswap_events_name_the_outer_index_j():
    # With the loops exchanged, j is the outer index: it never falls
    # during a run and takes each value for n consecutive comparisons.
    for values in ([3, 1, 2], [2, 2, 1, 3], [5, 1, 4, 2, 3]):
        n = len(values)
        _, events = collect("icbics-desc-loops", values)
        compares = [(e.i, e.j) for e in events if e.kind == "compare"]
        assert compares == [(i, j) for j in range(1, n + 1) for i in range(1, n + 1)]


def test_icbics_phases():
    report, events = collect("icbics", [4, 1, 3, 2])
    assert report.output == [1, 2, 3, 4]
    for event in events:
        expected = "selection" if event.i == 1 else "insertion"
        assert event.phase == expected
    assert {e.phase for e in events} == {"selection", "insertion"}


def test_other_algorithms_have_no_phase():
    for name in ALGORITHMS:
        if name == "icbics":
            continue
        _, events = collect(name, [3, 1, 2])
        assert events, name
        assert {e.phase for e in events} == {"not_applicable"}


def test_trace_event_is_frozen():
    event = TraceEvent(0, "compare", 1, 2, "selection")
    with pytest.raises(AttributeError):
        event.seq = 1


def test_replay_rejects_nothing_but_applies_swaps_only():
    report, events = collect("icbics", [2, 3, 1])
    compares_only = [e for e in events if e.kind == "compare"]
    assert replay_trace([2, 3, 1], compares_only) == [2, 3, 1]
    assert replay_trace([2, 3, 1], events) == report.output


def test_replay_rejects_positions_outside_the_array():
    # Position 0 would otherwise wrap round to the last cell.
    for i, j in [(0, 1), (1, 0), (4, 1), (2, 4)]:
        with pytest.raises(ValueError, match="outside 1..3"):
            replay_trace([1, 2, 3], [TraceEvent(0, "swap", i, j, "not_applicable")])
    with pytest.raises(ValueError, match="outside 1..3"):
        replay_trace([1, 2, 3], [TraceEvent(0, "compare", 0, 1, "not_applicable")])


def test_replay_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown kind 'shift'"):
        replay_trace([1, 2, 3], [TraceEvent(0, "shift", 1, 2, "not_applicable")])


# -------------------------------------------------------- stability


def tag(values):
    return [Tagged(key, chr(ord("a") + pos)) for pos, key in enumerate(values)]


def test_std_insertion_is_stable():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(0, 15)
        values = [rng.randrange(4) for _ in range(n)]
        out = std_insertion_sort(tag(values)).output
        for left, right in zip(out, out[1:]):
            assert left.key <= right.key
            if left.key == right.key:
                assert left.tag < right.tag


def test_icbics_reorders_equal_keys():
    out = icbics_sort(tag([1, 1, 2])).output
    assert [(t.key, t.tag) for t in out] == [(1, "b"), (1, "a"), (2, "c")]


# ------------------------------------------------- property tests


int_lists = st.lists(st.integers(-50, 50), max_size=32)


@given(int_lists)
def test_property_all_algorithms_sort(values):
    for name, info in ALGORITHMS.items():
        assert info.func(values).output == expected_output(name, values)


@given(st.lists(st.integers(-1000, 1000), max_size=24, unique=True))
def test_property_swap_counts_on_distinct(values):
    inv = merge_count_inversions(values)
    assert exchange_sort(values).swaps == inv
    assert improved_sort(values).swaps == inv
    assert std_insertion_sort(values).swaps == inv


@given(int_lists)
def test_property_trace_replay(values):
    events = []
    report = icbics_sort(values, events.append)
    assert replay_trace(values, events) == report.output
    assert [e.seq for e in events] == list(range(len(events)))
