"""Tests for the exhaustive and randomized swap-count surveys."""

from __future__ import annotations

import dataclasses
from math import factorial

import pytest

import sortlab.oracle
from sortlab import (
    enumerate_permutations,
    exhaustive_summary,
    max_inversions,
    random_suite,
    theorem2_extremal_inputs,
    theorem4_extremal_input,
)


def test_enumerate_permutations_lexicographic():
    assert list(enumerate_permutations(0)) == [()]
    assert list(enumerate_permutations(1)) == [(1,)]
    assert list(enumerate_permutations(3)) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert sum(1 for _ in enumerate_permutations(8)) == factorial(8)


def test_enumerate_permutations_guards():
    with pytest.raises(ValueError):
        enumerate_permutations(11)
    with pytest.raises(ValueError):
        enumerate_permutations(-1)


def test_extremal_input_constructors():
    assert theorem2_extremal_inputs(3) == ((2, 3, 1), (1, 2, 3))
    assert theorem2_extremal_inputs(5) == ((4, 5, 3, 2, 1), (3, 4, 5, 2, 1))
    assert theorem4_extremal_input(2) == (2, 1)
    assert theorem4_extremal_input(5) == (5, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        theorem2_extremal_inputs(2)
    with pytest.raises(ValueError):
        theorem4_extremal_input(1)


def test_exhaustive_summary_n2():
    summary = exhaustive_summary(2)
    assert summary.n == 2
    assert summary.inputs_examined == 2
    assert summary.max_swaps == 2
    assert summary.argmax_inputs == [(1, 2)]
    assert summary.min_swaps == 1
    assert summary.argmin_inputs == [(2, 1)]
    assert summary.bound_violations == 0
    assert summary.seed is None


def test_exhaustive_summary_n3():
    summary = exhaustive_summary(3)
    assert summary.inputs_examined == 6
    assert summary.max_swaps == 4
    assert summary.argmax_inputs == [(1, 2, 3), (2, 3, 1)]
    assert summary.min_swaps == 2
    assert summary.argmin_inputs == [(3, 1, 2)]
    assert summary.bound_violations == 0


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_exhaustive_summary_matches_closed_forms(n):
    summary = exhaustive_summary(n)
    assert summary.inputs_examined == factorial(n)
    assert summary.max_swaps == max_inversions(n) + 1
    assert summary.argmax_inputs == sorted(theorem2_extremal_inputs(n))
    assert summary.min_swaps == n - 1
    assert summary.argmin_inputs == [theorem4_extremal_input(n)]
    assert summary.bound_violations == 0


def test_exhaustive_summary_records_no_violations():
    assert exhaustive_summary(6).first_violations == {}


def test_exhaustive_summary_records_first_violation_per_bound(monkeypatch):
    # Reported swap counts by input: one above the sorted input's
    # 2(n-1), and two below n - 1.  Only the first escape of each bound
    # is recorded.
    real = sortlab.oracle.icbics_sort
    forged = {(1, 2, 3, 4): 7, (4, 1, 2, 3): 2, (4, 3, 1, 2): 0}

    def skewed(values, observer=None):
        report = real(values, observer)
        return dataclasses.replace(report, swaps=forged.get(tuple(values), report.swaps))

    monkeypatch.setattr(sortlab.oracle, "icbics_sort", skewed)
    summary = exhaustive_summary(4)
    assert summary.bound_violations == 3
    assert summary.first_violations == {"theorem3": (1, (1, 2, 3, 4)), "theorem4": (19, (4, 1, 2, 3))}


def test_exhaustive_summary_records_first_unsorted_output(monkeypatch):
    # Outputs reversed on two inputs: only the first, the 4th of the 24
    # permutations of length 4, is recorded, and no bound counts it.
    real = sortlab.oracle.icbics_sort
    reversed_on = {(1, 3, 4, 2), (4, 3, 2, 1)}

    def reversing(values, observer=None):
        report = real(values, observer)
        if tuple(values) in reversed_on:
            return dataclasses.replace(report, output=report.output[::-1])
        return report

    monkeypatch.setattr(sortlab.oracle, "icbics_sort", reversing)
    summary = exhaustive_summary(4)
    assert summary.bound_violations == 0
    assert summary.first_violations == {"correctness": (4, (1, 3, 4, 2))}


def test_exhaustive_summary_guards():
    with pytest.raises(ValueError):
        exhaustive_summary(-1)
    with pytest.raises(ValueError):
        exhaustive_summary(9)


@pytest.mark.parametrize("n", [0, 1])
def test_exhaustive_summary_below_two_examines_one_input(n):
    summary = exhaustive_summary(n)
    only = tuple(range(1, n + 1))
    assert (summary.n, summary.inputs_examined) == (n, 1)
    assert (summary.max_swaps, summary.argmax_inputs) == (0, [only])
    assert (summary.min_swaps, summary.argmin_inputs) == (0, [only])
    assert summary.bound_violations == 0
    assert summary.first_violations == {}


def test_random_suite_is_deterministic():
    first = random_suite(16, 40, seed=5)
    second = random_suite(16, 40, seed=5)
    assert first == second
    assert first.seed == 5
    assert first.inputs_examined == 40
    assert first.bound_violations == 0


def test_random_suite_bounds_hold_at_scale():
    assert random_suite(64, 1000, seed=42).bound_violations == 0
    assert random_suite(256, 100, seed=7).bound_violations == 0


def test_random_suite_guards():
    with pytest.raises(ValueError):
        random_suite(1, 10, seed=0)
    with pytest.raises(ValueError):
        random_suite(8, 0, seed=0)
