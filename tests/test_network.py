"""The comparator-network provers against brute force over every permutation.

Each prover must agree with the replayed sweep wherever both run, on the
real kernel and on every mutant that edits its comparators, and each has
a mutant that only it fails.
"""

from __future__ import annotations

from itertools import permutations

import pytest

import faults
from sortlab.network import lift, prove_lemma1, prove_pi
from sortlab.verify import _check_replay

PROVERS = {"pi": prove_pi, "lemma1": prove_lemma1}
SORTS = {"identity": faults.mutant(), **faults.COMPARATOR_EDITS}


def network(n):
    # The installed icbics_sort's comparators at length n, as verify takes them.
    compares = []
    _check_replay(range(1, n + 1), (), compares)
    return compares


@pytest.mark.parametrize("name", list(SORTS))
def test_the_provers_agree_with_the_sweep_through_n_6(monkeypatch, name):
    faults.install(monkeypatch, SORTS[name])
    for n in range(1, 7):
        broken = set()
        for values in permutations(range(1, n + 1)):
            broken |= _check_replay(values, tuple(PROVERS)).keys()
        for claim, prove in PROVERS.items():
            word = prove(network(n), n)
            assert (word is not None) == (claim in broken), (claim, n)
            if word is not None:
                # Lifted, the failing word is an input the claim's check fails.
                counterexample = faults.recheck(claim, lift(word))
                assert counterexample is not None and counterexample["input"] == lift(word)


def test_each_prover_has_a_mutant_only_it_fails(monkeypatch):
    faults.install(monkeypatch, faults.COMPARATOR_EDITS["drop-comparator-n-1"])
    for n in range(1, 11):
        assert (prove_pi(network(n), n) is None) == (n == 1)
        assert prove_lemma1(network(n), n) is None
    faults.install(monkeypatch, faults.COMPARATOR_EDITS["drop-comparator-2-1"])
    for n in range(1, 11):
        assert (prove_lemma1(network(n), n) is None) == (n < 3)


def test_lift_ranks_by_value_then_cell():
    assert lift([]) == []
    assert lift([1, 0, 2, 1, 0]) == [3, 1, 5, 4, 2]
