"""Faulty copies of ``icbics_sort`` that ``sortlab verify`` must catch.

A check that cannot fail is not evidence.  Each mutant below is the
double loop written out again with one fault (``faults.mutant``),
installed in place of ``icbics_sort`` wherever the survey, the checks
and the CLI call it, and the test states which checks catch it.
"""

from __future__ import annotations

import json
from itertools import chain, product

import pytest

import faults
import sortlab.cli as cli
import sortlab.sortcore
from faults import mutant
from sortlab import icbics_sort
from sortlab.sortcore import PHASE_INSERTION, std_insertion_sort

THEOREMS = {"theorem2", "theorem3", "theorem4"}


def test_the_identity_mutant_is_icbics_sort():
    identity = mutant()
    for values in chain.from_iterable(product(range(3), repeat=n) for n in range(6)):
        ours, theirs = [], []
        assert identity(values, ours.append) == icbics_sort(values, theirs.append)
        assert ours == theirs


def test_install_reaches_every_caller_of_icbics_sort(monkeypatch, capsys):
    # The identity mutant makes icbics_sort's reports and events, so verify prints the same;
    # with the real kernel gone, a caller that install missed raises NameError instead.
    argv = ["verify", "--n-max", "5", "--samples", "50", "--seed", "1"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    faults.install(monkeypatch, mutant())
    monkeypatch.delattr(sortlab.sortcore, "_swap_when_less")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def verify_under(monkeypatch, capsys, sort, argv=("--n-max", "5", "--samples", "50", "--seed", "1")):
    """Run ``verify`` with ``argv``, by default ``--n-max 5 --samples 50
    --seed 1``, and ``sort`` in place of ``icbics_sort``; return the exit
    code and the printed JSON."""
    faults.install(monkeypatch, sort)
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
    # Every per-input counterexample, the random suite's too, comes back the same from its
    # check run again on its input.
    suite_failures = payload["random_suite"].get("failures", {})
    assert ("random_suite" in caught) == bool(suite_failures)
    for check, entry in chain(payload["checks"].items(), suite_failures.items()):
        counterexample = entry["counterexample"]
        if counterexample is not None and "input" in counterexample:
            assert faults.recheck(check, counterexample["input"]) == counterexample


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
    faults.install(monkeypatch, std_insertion_sort)
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
