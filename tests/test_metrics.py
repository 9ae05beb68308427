"""Tests for inversion counting and the closed-form swap bounds."""

from __future__ import annotations

import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import merge_count_inversions
from sortlab import (
    Tagged,
    count_inversions,
    inversion_delta,
    max_inversions,
    swap_bounds,
    violated_bounds,
)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([], 0),
        ([1], 0),
        ([1, 2], 0),
        ([2, 1], 1),
        ([2, 3, 1], 2),
        ([3, 2, 1], 3),
        ([1, 2, 3], 0),
        ([2, 2, 1], 2),
        ([1, 1, 1], 0),
        ([4, 1, 2, 3], 3),
    ],
)
def test_count_inversions_examples(values, expected):
    assert count_inversions(values) == expected


def assert_delta_is_the_recount_change(values):
    before = count_inversions(values)
    for p in range(len(values)):
        for q in range(len(values)):
            swapped = list(values)
            swapped[p], swapped[q] = swapped[q], swapped[p]
            assert inversion_delta(values, p, q) == count_inversions(swapped) - before, (values, p, q)


def test_inversion_delta_matches_full_recount():
    # The full recount stays the reference for the O(q - p) delta.
    for n in range(0, 7):
        for perm in permutations(range(1, n + 1)):
            assert_delta_is_the_recount_change(perm)


def test_inversion_delta_matches_full_recount_with_duplicates():
    # Every input over {1,2,3}^n for n = 2..6 and every (p, q): 33,894
    # cases.  Equal keys change nothing, and a cell between p and q equal
    # to one of the swapped keys flips one pair, not two.
    assert inversion_delta((1, 1), 0, 1) == 0
    assert inversion_delta((1, 1, 2), 0, 2) == 2
    for n in range(2, 7):
        for values in product((1, 2, 3), repeat=n):
            assert_delta_is_the_recount_change(values)


def test_inversion_delta_needs_only_less_than():
    # Keys that define only ``<``, as count_inversions allows.
    assert_delta_is_the_recount_change([Tagged(k, str(t)) for t, k in enumerate([2, 1, 2, 3, 1, 2])])


@pytest.mark.parametrize(
    "values, p, q",
    [([1, 2, 3], -1, 0), ([1, 2, 3], 0, -3), ([1, 2, 3], 3, 0), ([1, 2, 3], 1, 3), ([1, 2, 3], -1, -1), ([], 0, 0)],
)
def test_inversion_delta_refuses_a_position_outside_the_sequence(values, p, q):
    # Indexing would wrap -1 to cell 2, and exchanging cells 2 and 0 of [1, 2, 3] adds 3 inversions, not -1.
    with pytest.raises(ValueError, match=f"positions must index a length-{len(values)} sequence"):
        inversion_delta(values, p, q)


def test_max_inversions_values():
    assert [max_inversions(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]
    with pytest.raises(ValueError):
        max_inversions(-1)


def test_max_attained_only_by_strictly_decreasing():
    assert count_inversions([5, 4, 3, 2, 1]) == max_inversions(5)
    assert count_inversions([5, 4, 3, 1, 2]) < max_inversions(5)


@pytest.mark.parametrize(
    "n, inversions, expected",
    [
        (8, 10, (29, 24, 7)),
        (1, 0, (1, 0, 0)),
        (0, 0, (1, 0, 0)),
        (2, 1, (2, 3, 1)),
        (3, 0, (4, 4, 2)),
    ],
)
def test_swap_bounds_examples(n, inversions, expected):
    assert swap_bounds(n, inversions) == expected


@pytest.mark.parametrize(
    "n, inversions, swaps, expected",
    [
        (4, 0, 6, []),
        (4, 0, 7, ["theorem3"]),
        (4, 3, 2, ["theorem4"]),
        (3, 0, 5, ["theorem2", "theorem3"]),
        (2, 1, 0, ["theorem4"]),
    ],
)
def test_violated_bounds_examples(n, inversions, swaps, expected):
    assert violated_bounds(n, inversions, swaps) == expected


def test_violated_bounds_is_empty_exactly_inside_the_envelope():
    for n in range(2, 7):
        for inversions in range(max_inversions(n) + 1):
            upper_total, upper_adaptive, lower = swap_bounds(n, inversions)
            for swaps in range(upper_total + 3):
                inside = lower <= swaps <= min(upper_total, upper_adaptive)
                assert (violated_bounds(n, inversions, swaps) == []) == inside


def test_against_merge_oracle_seeded():
    rng = random.Random(99)
    for n in (0, 1, 2, 17, 64, 256):
        for _ in range(8):
            values = [rng.randrange(-20, 21) for _ in range(n)]
            assert count_inversions(values) == merge_count_inversions(values)


class CountedKey:
    """A key that defines only ``<`` and counts every call to it."""

    __slots__ = ("key",)
    calls = 0

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        CountedKey.calls += 1
        return self.key < other.key


def _shapes_1024():
    n = 1024
    shuffled = list(range(n))
    random.Random(36).shuffle(shuffled)
    rng = random.Random(37)
    return {
        "sorted": list(range(n)),
        "reversed": list(range(n, 0, -1)),
        "all-equal": [7] * n,
        "shuffled": shuffled,
        "four-values": [rng.randrange(4) for _ in range(n)],
    }


SHAPES_1024 = _shapes_1024()


@pytest.mark.parametrize("shape", SHAPES_1024)
def test_count_inversions_uses_only_less_than_and_n_log_n_comparisons(shape):
    # One binary search per element: at most ceil(log2(k + 1)) comparisons
    # against the k elements before it.  A pair scan makes n(n-1)/2 =
    # 523,776 at n = 1,024, far past the bound of 11,264.
    values = SHAPES_1024[shape]
    n = len(values)
    CountedKey.calls = 0
    got = count_inversions([CountedKey(v) for v in values])
    assert got == merge_count_inversions(values), shape
    assert CountedKey.calls <= n * math.ceil(math.log2(n + 1)), (shape, CountedKey.calls)


@given(st.lists(st.integers(-100, 100), max_size=64))
def test_property_matches_merge_oracle(values):
    assert count_inversions(values) == merge_count_inversions(values)


@given(st.lists(st.integers(-100, 100), max_size=64))
def test_property_within_range(values):
    inv = count_inversions(values)
    assert 0 <= inv <= max_inversions(len(values))


@given(st.lists(st.integers(-100, 100), max_size=40))
def test_property_appending_a_new_maximum_changes_nothing(values):
    top = (max(values) if values else 0) + 1
    assert count_inversions(values + [top]) == count_inversions(values)


@given(st.lists(st.integers(-100, 100), max_size=40))
def test_property_prepending_a_new_maximum_adds_n(values):
    top = (max(values) if values else 0) + 1
    assert count_inversions([top] + values) == count_inversions(values) + len(values)


@given(st.integers(min_value=0, max_value=200))
def test_property_reversed_range_attains_max(n):
    assert count_inversions(list(range(n, 0, -1))) == max_inversions(n)
