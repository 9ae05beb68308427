"""Faulty copies of ``icbics_sort`` that ``sortlab verify`` must catch.

A check that cannot fail is not evidence.  Each mutant below is the
double loop written out again with one fault, swapped in for
``icbics_sort`` wherever the checks and the survey call it, and the
test states which checks catch it.  Mutants compare with ``<`` only,
since the instability search sorts keys that define nothing else, and
a traced mutant feeds its observer the events of its own run.
"""

from __future__ import annotations

import json
from itertools import chain, product

import pytest

import sortlab.cli as cli
import sortlab.oracle
import sortlab.verify
from sortlab import SortReport, TraceEvent, check_lemma1, check_pi_invariant, check_theorem_bounds, icbics_sort
from sortlab.sortcore import KIND_COMPARE, KIND_SWAP, PHASE_INSERTION, PHASE_SELECTION, std_insertion_sort

THEOREMS = {"theorem2", "theorem3", "theorem4"}


def mutant(compares=lambda n, i, j: True, swaps_when=lambda x, y: x < y, label=lambda phase: phase, extra_swaps=0):
    """``icbics_sort`` with 1-based comparator (i, j) made only where
    ``compares(n, i, j)``, swapping where ``swaps_when(A[i], A[j])``,
    each swap event's phase passed through ``label``, and ``extra_swaps``
    added to the reported count.  The defaults are ``icbics_sort``."""

    def sort(values, observer=None):
        a = list(values)
        n = len(a)
        comparisons = swaps = 0
        for i in range(1, n + 1):
            phase = PHASE_SELECTION if i == 1 else PHASE_INSERTION
            for j in range(1, n + 1):
                if not compares(n, i, j):
                    continue
                if observer is not None:
                    observer(TraceEvent(comparisons + swaps, KIND_COMPARE, i, j, phase))
                comparisons += 1
                if swaps_when(a[i - 1], a[j - 1]):
                    a[i - 1], a[j - 1] = a[j - 1], a[i - 1]
                    if observer is not None:
                        observer(TraceEvent(comparisons + swaps, KIND_SWAP, i, j, label(phase)))
                    swaps += 1
        return SortReport("icbics", n, comparisons, swaps + extra_swaps, a)

    return sort


def test_the_identity_mutant_is_icbics_sort():
    identity = mutant()
    for values in chain.from_iterable(product(range(3), repeat=n) for n in range(6)):
        ours, theirs = [], []
        assert identity(values, ours.append) == icbics_sort(values, theirs.append)
        assert ours == theirs


def verify_under(monkeypatch, capsys, sort, argv=("--n-max", "5", "--samples", "50", "--seed", "1")):
    """Run ``verify`` with ``argv``, by default ``--n-max 5 --samples 50
    --seed 1``, and ``sort`` in place of ``icbics_sort``; return the exit
    code and the printed JSON."""
    for module in (sortlab.oracle, sortlab.verify, cli):
        monkeypatch.setattr(module, "icbics_sort", sort)
    rc = cli.main(["verify", *argv])
    return rc, json.loads(capsys.readouterr().out)


def failing(payload):
    failed = {check for check, entry in payload["checks"].items() if not entry["passed"]}
    return failed | (set() if payload["random_suite"]["passed"] else {"random_suite"})


@pytest.mark.parametrize(
    "sort, caught",
    [
        pytest.param(mutant(), set(), id="identity-control"),
        pytest.param(
            mutant(compares=lambda n, i, j: (i, j) != (n, 1)),
            {"correctness", "pi", "random_suite"} | THEOREMS,
            id="drop-comparator-n-1",
        ),
        pytest.param(
            mutant(compares=lambda n, i, j: (i, j) != (2, 1)),
            {"correctness", "pi", "lemma1"} | THEOREMS,
            id="drop-comparator-2-1",
        ),
        pytest.param(mutant(label=lambda phase: PHASE_INSERTION), {"lemma1"}, id="selection-swaps-labelled-insertion"),
        pytest.param(mutant(extra_swaps=1), THEOREMS, id="one-swap-too-many"),
        pytest.param(mutant(swaps_when=lambda x, y: not y < x), {"lemma1"} | THEOREMS, id="swap-when-not-greater"),
    ],
)
def test_verify_fails_exactly_the_checks_a_mutant_breaks(monkeypatch, capsys, sort, caught):
    rc, payload = verify_under(monkeypatch, capsys, sort)
    assert failing(payload) == caught
    assert rc == (1 if caught else 0)
    # Every per-input counterexample comes back the same from its check run again on its input.
    recheck = {
        "correctness": lambda values: {"input": values, "output": sort(values).output},
        "pi": lambda values: check_pi_invariant(values).counterexample,
        "lemma1": lambda values: check_lemma1(values).counterexample,
        "theorem3": lambda values: check_theorem_bounds(values).counterexample,
        "theorem4": lambda values: check_theorem_bounds(values).counterexample,
    }
    for check, entry in payload["checks"].items():
        counterexample = entry["counterexample"]
        if counterexample is not None and "input" in counterexample:
            assert recheck[check](counterexample["input"]) == counterexample


def test_theorem3_reports_an_untight_sorted_input_per_n(monkeypatch, capsys):
    # Dropping comparator (2, 1) leaves every input inside theorem3's bound, but the
    # sorted input of length 2 costs one swap, not 2(n - 1) = 2.
    drop_2_1 = mutant(compares=lambda n, i, j: (i, j) != (2, 1))
    rc, payload = verify_under(monkeypatch, capsys, drop_2_1, ("--n-max", "5", "--checks", "theorem3"))
    assert rc == 1
    assert payload["checks"]["theorem3"] == {
        "passed": False,
        "counterexample": {"n": 2, "sorted_input_swaps": 1, "expected": 2},
        "details": {"inputs_examined": 2},
    }


def test_instability_fails_when_the_witness_search_sorts_stably(monkeypatch, capsys):
    monkeypatch.setattr(sortlab.verify, "icbics_sort", std_insertion_sort)
    rc = cli.main(["verify", "--checks", "instability"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["checks"]["instability"] == {
        "passed": False,
        "counterexample": {"searched_up_to": 3, "witness": None},
        "details": {"searched_up_to": 3},
    }


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: verify makes no claim about comparisons, so a comparison that never swaps can go",
)
@pytest.mark.parametrize(
    "sort",
    [
        pytest.param(mutant(compares=lambda n, i, j: i != j), id="skip-self-comparisons"),
        pytest.param(mutant(compares=lambda n, i, j: i == 1 or j != n), id="skip-j-n-after-pass-1"),
    ],
)
def test_verify_fails_a_mutant_that_drops_a_comparison(monkeypatch, capsys, sort):
    rc, _ = verify_under(monkeypatch, capsys, sort)
    assert rc == 1
