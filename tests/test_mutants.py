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
import sortlab.network as network
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
            faults.COMPARATOR_EDITS["drop-comparator-n-1"],
            {"correctness", "pi", "random_suite"} | THEOREMS,
            id="drop-comparator-n-1",
        ),
        pytest.param(
            faults.COMPARATOR_EDITS["drop-comparator-2-1"],
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
    drop_2_1 = faults.COMPARATOR_EDITS["drop-comparator-2-1"]
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


def proved(claim, proved_n):
    words = {"pi": "0/1", "lemma1": "0/1/2"}[claim]
    method = f"0-1 principle: all {words} words, on the kernel's network"
    assumes = (
        "one list of compares per length; past swept_n, each claim and that list are checked on the"
        " kernel's runs on 1..n, n..1 and 100 seeded permutations"
    )
    return {"inputs_examined": 873, "swept_n": 6, "method": method, "assumes": assumes, "proved_n": proved_n}


DROP_7_1 = mutant(compares=lambda n, i, j: (i, j) != (7, 1))
ENDS_7 = (tuple(range(1, 8)), tuple(range(7, 0, -1)))
# At n = 7, comparator (7, 1) is the 43rd, after six passes of 7; without it the 43rd is (7, 2).
MISSING_7_1 = {"compare": 43, "expected": [7, 1, PHASE_INSERTION], "observed": [7, 2, PHASE_INSERTION]}


def unsorted_at_7(values, observed):
    return {"input": values, "outer": 7, "expected": "non-decreasing prefix", "observed": observed}


@pytest.mark.parametrize(
    "fault, pi, lemma1",
    [
        pytest.param(
            # 1..7 and 7..1 start odd, so they agree on the network; a drawn input shows the fault.
            faults.at_length(7, lambda v: v[0] % 2 == 0, DROP_7_1),
            unsorted_at_7([4, 3, 5, 2, 6, 7, 1], [2, 1, 3, 4, 5, 6, 7]),
            {"input": [4, 3, 5, 2, 6, 7, 1], **MISSING_7_1},
            id="drop-7-1-when-the-first-value-is-even",
        ),
        pytest.param(
            # The network of 1..7 lacks (7, 1), as does 7..1's run, whose replay fails pi; a drawn
            # input makes it, which fails lemma1.
            faults.at_length(7, lambda v: v in ENDS_7, DROP_7_1),
            unsorted_at_7([7, 6, 5, 4, 3, 2, 1], [2, 1, 3, 4, 5, 6, 7]),
            {
                "input": [7, 4, 6, 1, 2, 3, 5],
                "compare": 43,
                "expected": MISSING_7_1["observed"],
                "observed": MISSING_7_1["expected"],
            },
            id="drop-7-1-on-1..7-and-7..1",
        ),
        pytest.param(
            # Its compares are the network's, and its values move as the network's do, but the
            # replay of 1..7 sees a swap of a cell with itself.
            faults.at_length(7, lambda v: True, mutant(swaps_when=lambda x, y: not y < x)),
            None,
            {"input": [1, 2, 3, 4, 5, 6, 7], "seq": 1, "phase": "selection", "expected": 1, "observed": 0},
            id="swap-a-cell-with-itself-at-7",
        ),
    ],
)
def test_verify_fails_a_kernel_that_leaves_its_network_past_the_sweep(monkeypatch, capsys, fault, pi, lemma1):
    # The fault is icbics_sort at every n but 7, so the sweep through n = 6 passes it.
    argv = ("--n-max", "8", "--checks", "pi,lemma1")
    rc, payload = verify_under(monkeypatch, capsys, fault, argv)
    assert rc == 1
    for claim, counterexample in {"pi": pi, "lemma1": lemma1}.items():
        if counterexample is None:
            expected = {"passed": True, "counterexample": None, "details": proved(claim, network.PROOF_N_MAX[claim])}
        else:
            expected = {"passed": False, "counterexample": counterexample, "details": proved(claim, 6)}
            if "compare" not in counterexample:
                assert faults.recheck(claim, counterexample["input"]) == counterexample
        assert payload["checks"][claim] == expected


def test_verify_holds_every_swept_permutation_to_its_lengths_network(monkeypatch, capsys):
    # At n = 5 the fault skips the self-comparisons of inputs that start with 2 alone: neither
    # 1..5 nor 5..1, so only the sweep's tie of every permutation to 1..5's compares shows it.
    fault = faults.at_length(5, lambda v: v[0] == 2, faults.COMPARATOR_EDITS["skip-self-comparisons"])
    rc, payload = verify_under(monkeypatch, capsys, fault, ("--n-max", "6", "--checks", "pi,lemma1"))
    assert rc == 1
    # (2, 1, 3, 4, 5) is the 25th permutation of 5, after the 1 + 2 + 6 + 24 shorter ones.
    differ = {"input": [2, 1, 3, 4, 5], "compare": 1, "expected": [1, 1, "selection"], "observed": [1, 2, "selection"]}
    verdict = {"passed": False, "counterexample": differ, "details": {"inputs_examined": 58}}
    assert payload["checks"] == {"pi": verdict, "lemma1": verdict}


def test_verify_reports_a_proof_word_the_kernel_does_not_fail(monkeypatch, capsys):
    # A prover that finds a word at n = 7 on which the real kernel passes pi: the kernel did not
    # follow the network there, so the verdict shows the word and its lifted input.
    prover, words = network._PROOFS["pi"]
    word = [1, 0, 0, 0, 0, 0, 0]
    monkeypatch.setitem(network._PROOFS, "pi", (lambda net, n: word if n == 7 else prover(net, n), words))
    rc = cli.main(["verify", "--n-max", "8", "--checks", "pi"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["checks"]["pi"] == {
        "passed": False,
        "counterexample": {"n": 7, "word": word, "lifted": [7, 1, 2, 3, 4, 5, 6]},
        "details": proved("pi", 6),
    }


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: verify makes no claim about comparisons, so a comparison that never swaps can go",
)
@pytest.mark.parametrize("edit", ["skip-self-comparisons", "skip-j-n-after-pass-1"])
def test_verify_fails_a_mutant_that_drops_a_comparison(monkeypatch, capsys, edit):
    rc, _ = verify_under(monkeypatch, capsys, faults.COMPARATOR_EDITS[edit])
    assert rc == 1
