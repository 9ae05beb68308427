"""Tests for the property checks: the prefix-max invariant, the
per-swap inversion deltas, the three swap bounds, and instability."""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import faults
from sortlab import (
    CHECK_IDS,
    InstabilityWitness,
    Tagged,
    check_lemma1,
    check_pi_invariant,
    check_theorem_bounds,
    find_instability_witness,
    sort_tagged,
)

distinct_lists = st.lists(st.integers(-500, 500), min_size=2, max_size=20, unique=True)


def test_check_ids_are_stable():
    assert CHECK_IDS == (
        "correctness",
        "pi",
        "lemma1",
        "theorem2",
        "theorem3",
        "theorem4",
        "instability",
    )


# ------------------------------------------------- prefix-max invariant


@pytest.mark.parametrize("values", [[2, 3, 1], [1], [], [4, 1, 3, 2], [10, -3, 7]])
def test_pi_invariant_examples(values):
    verdict = check_pi_invariant(values)
    assert verdict.passed
    assert verdict.counterexample is None


def test_pi_invariant_exhaustive_small():
    for n in range(2, 6):
        for perm in permutations(range(1, n + 1)):
            assert check_pi_invariant(perm).passed


def test_pi_invariant_rejects_duplicates():
    with pytest.raises(ValueError):
        check_pi_invariant([1, 1])


@given(distinct_lists)
def test_property_pi_invariant(values):
    assert check_pi_invariant(values).passed


# ------------------------------------------------------- swap deltas


@pytest.mark.parametrize("values", [[2, 3, 1], [4, 1, 2, 3], [5], [], [3, 1, 2]])
def test_lemma1_examples(values):
    verdict = check_lemma1(values)
    assert verdict.passed


def test_lemma1_exhaustive_small():
    for n in range(2, 6):
        for perm in permutations(range(1, n + 1)):
            assert check_lemma1(perm).passed


def test_lemma1_rejects_duplicates():
    with pytest.raises(ValueError):
        check_lemma1([2, 2, 1])


@given(distinct_lists)
def test_property_lemma1(values):
    assert check_lemma1(values).passed


# ------------------------------------------- mutated traces are caught


def test_lemma1_catches_a_mislabelled_swap(monkeypatch):
    # [3, 1, 2]: no selection swaps; the first insertion swap (seq 4)
    # turns [3, 1, 2] into [1, 3, 2] and removes one inversion.
    faults.install(monkeypatch, faults.rewritten({(3, 1, 2): faults.relabel_first_insertion_swap}))
    verdict = check_lemma1([3, 1, 2])
    assert not verdict.passed
    assert verdict.counterexample == {
        "input": [3, 1, 2],
        "seq": 4,
        "phase": "selection",
        "expected": 1,
        "observed": -1,
    }


def test_pi_catches_a_dropped_swap(monkeypatch):
    # Without its last swap the run of [3, 1, 2] ends at [1, 3, 2].
    faults.install(monkeypatch, faults.rewritten({(3, 1, 2): faults.drop_last_swap}))
    verdict = check_pi_invariant([3, 1, 2])
    assert not verdict.passed
    assert verdict.counterexample == {
        "input": [3, 1, 2],
        "outer": 3,
        "expected": "non-decreasing prefix",
        "observed": [1, 3, 2],
    }


def test_lemma1_reports_only_the_first_of_several_breaks(monkeypatch):
    # Every insertion swap of [5, 2, 6, 1, 4, 3] now claims +1 and each
    # removes an inversion; the first of them, at seq 8, is the one reported.
    faults.install(monkeypatch, faults.rewritten({(5, 2, 6, 1, 4, 3): faults.relabel_every_insertion_swap}))
    verdict = check_lemma1([5, 2, 6, 1, 4, 3])
    assert not verdict.passed
    assert verdict.counterexample == {
        "input": [5, 2, 6, 1, 4, 3],
        "seq": 8,
        "phase": "selection",
        "expected": 1,
        "observed": -1,
    }


def test_pi_reports_only_the_first_of_several_breaks(monkeypatch):
    # With no swap the array stays [5, 2, 6, 1, 4, 3], which breaks pi at
    # every boundary; the first, after outer pass 1, is the one reported.
    faults.install(monkeypatch, faults.rewritten({(5, 2, 6, 1, 4, 3): faults.drop_every_swap}))
    verdict = check_pi_invariant([5, 2, 6, 1, 4, 3])
    assert not verdict.passed
    assert verdict.counterexample == {"input": [5, 2, 6, 1, 4, 3], "outer": 1, "expected": 6, "observed": 5}


def test_rewrites_leave_untouched_runs_passing(monkeypatch):
    # The wrapper alone, delivering every event, changes no verdict.
    faults.install(monkeypatch, faults.rewritten({(3, 1, 2): list}))
    assert check_lemma1([3, 1, 2]).passed
    assert check_pi_invariant([3, 1, 2]).passed


# -------------------------------------------------------- swap bounds


@pytest.mark.parametrize(
    "values",
    [
        [2, 3, 1],            # hits the overall maximum, 4 swaps on n=3
        list(range(1, 9)),    # sorted input, tight for the adaptive bound
        [3, 1, 2],            # fewest swaps possible on n=3
        [7, 3, 9, 1],
    ],
)
def test_theorem_bounds_examples(values):
    verdict = check_theorem_bounds(values)
    assert verdict.passed
    assert verdict.counterexample is None


def test_theorem_bounds_input_guards():
    with pytest.raises(ValueError):
        check_theorem_bounds([1, 1])
    with pytest.raises(ValueError):
        check_theorem_bounds([5])
    with pytest.raises(ValueError):
        check_theorem_bounds([])


@given(distinct_lists)
def test_property_theorem_bounds(values):
    assert check_theorem_bounds(values).passed


# -------------------------------------------------------- instability


def test_tagged_compares_keys_only():
    a = Tagged(1, "a")
    b = Tagged(1, "b")
    c = Tagged(2, "c")
    assert a < c
    assert not a < b and not b < a
    assert a != b


def test_sort_tagged_on_the_classic_input():
    tagged_in, tagged_out = sort_tagged((2, 2, 1))
    assert tagged_in == [(2, "a"), (2, "b"), (1, "c")]
    assert tagged_out == [(1, "c"), (2, "b"), (2, "a")]
    # the two key-2 elements come out b before a: input order inverted
    assert tagged_out.index((2, "b")) < tagged_out.index((2, "a"))


def test_sort_tagged_refuses_more_keys_than_tag_letters():
    assert [tag for _, tag in sort_tagged([1] * 26)[0]] == list("abcdefghijklmnopqrstuvwxyz")
    with pytest.raises(ValueError, match="at most 26 keys, got 27"):
        sort_tagged([1] * 27)


def test_no_witness_exists_at_n2():
    assert find_instability_witness(2) is None


def test_first_witness_at_n3():
    witness = find_instability_witness(3)
    assert isinstance(witness, InstabilityWitness)
    assert witness.input == [(1, "a"), (1, "b"), (2, "c")]
    assert witness.output == [(1, "b"), (1, "a"), (2, "c")]
    assert witness.violated_pair == (0, 1)
    p, q = witness.violated_pair
    assert witness.output[p][0] == witness.output[q][0]
    assert witness.output[p][1] > witness.output[q][1]


def test_witness_search_is_monotone():
    assert find_instability_witness(4) == find_instability_witness(3)


def test_witness_search_guards():
    with pytest.raises(ValueError):
        find_instability_witness(1)
    with pytest.raises(ValueError):
        find_instability_witness(27)
