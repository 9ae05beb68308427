"""The faults the tests inject into ``sortlab``, each written once: faulty
sorters, :func:`install` to put one in place of ``icbics_sort``, :func:`count_runs`
for the CLI's sorter table, and :func:`recheck` for the counterexamples the checks
then report.  Unlike ``reference.py``, this module imports the package it faults.
"""

from __future__ import annotations

import dataclasses

import sortlab.cli
import sortlab.oracle
import sortlab.sortcore
import sortlab.verify
from sortlab import SortReport, TraceEvent, check_lemma1, check_pi_invariant, check_theorem_bounds
from sortlab.sortcore import KIND_COMPARE, KIND_SWAP, PHASE_INSERTION, PHASE_SELECTION

# Every module whose ``icbics_sort`` the survey, the checks or the CLI call.
CALLERS = (sortlab.oracle, sortlab.verify, sortlab.cli)

# The real sort, taken before any test installs a fake, so no fake calls itself.
icbics_sort = sortlab.sortcore.icbics_sort


def install(monkeypatch, sort):
    """Put ``sort`` in place of ``icbics_sort`` in every caller, for the test."""
    for module in CALLERS:
        monkeypatch.setattr(module, "icbics_sort", sort)


def count_runs(monkeypatch):
    """Make each sorter in ``cli.ALGORITHMS`` note its input's length in the list returned."""
    calls = []
    for name, info in list(sortlab.cli.ALGORITHMS.items()):

        def counting(values, observer=None, _func=info.func):
            calls.append(len(values))
            return _func(values, observer)

        monkeypatch.setitem(sortlab.cli.ALGORITHMS, name, dataclasses.replace(info, func=counting))
    return calls


def mutant(compares=lambda n, i, j: True, swaps_when=lambda x, y: x < y, label=lambda phase: phase, extra_swaps=0):
    """``icbics_sort`` with 1-based comparator (i, j) made only where
    ``compares(n, i, j)``, swapping where ``swaps_when(A[i], A[j])``,
    each swap event's phase passed through ``label``, and ``extra_swaps``
    added to the reported count.  The defaults are ``icbics_sort``.
    It compares with ``<`` only, as the instability search's keys define
    nothing else, and feeds a traced run's observer its own events."""

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


# icbics_sort with comparators dropped, by name.  Each compares in an order set by n alone.
COMPARATOR_EDITS = {
    "drop-comparator-n-1": mutant(compares=lambda n, i, j: (i, j) != (n, 1)),
    "drop-comparator-2-1": mutant(compares=lambda n, i, j: (i, j) != (2, 1)),
    "drop-comparator-1-2": mutant(compares=lambda n, i, j: (i, j) != (1, 2)),
    "drop-comparator-1-n": mutant(compares=lambda n, i, j: (i, j) != (1, n)),
    "skip-self-comparisons": mutant(compares=lambda n, i, j: i != j),
    "skip-j-n-after-pass-1": mutant(compares=lambda n, i, j: i == 1 or j != n),
}


def at_length(n, when, fault):
    """``icbics_sort`` but on each input ``v`` of length ``n``, a tuple, where ``when(v)``:
    there ``fault`` sorts it."""

    def sort(values, observer=None):
        faulty = len(values) == n and when(tuple(values))
        return (fault if faulty else icbics_sort)(values, observer)

    return sort


def edited(edit):
    """``icbics_sort`` whose report on each input is ``edit(values,
    report)``, ``values`` given as a tuple.  The trace is the real one."""

    def sort(values, observer=None):
        return edit(tuple(values), icbics_sort(values, observer))

    return sort


def counted(bare, traced):
    """``icbics_sort`` that appends each input, as a tuple, to ``bare`` or ``traced``."""

    def sort(values, observer=None):
        (bare if observer is None else traced).append(tuple(values))
        return icbics_sort(values, observer)

    return sort


def reverse_output(report):
    return dataclasses.replace(report, output=report.output[::-1])


def add_swaps(report, delta):
    return dataclasses.replace(report, swaps=report.swaps + delta)


def rewritten(rewrites):
    """``icbics_sort`` whose traced run of an input ``v`` in ``rewrites``, a dict keyed by
    input tuple, delivers ``rewrites[v](events)`` in place of its events; other runs pass through."""

    def sort(values, observer=None):
        rewrite = rewrites.get(tuple(values))
        if observer is None or rewrite is None:
            return icbics_sort(values, observer)
        events = []
        report = icbics_sort(values, events.append)
        for event in rewrite(events):
            observer(event)
        return report

    return sort


def drop_first_swap(events):
    first = next(k for k, e in enumerate(events) if e.kind == KIND_SWAP)
    return events[:first] + events[first + 1 :]


def drop_last_swap(events):
    last = max(k for k, e in enumerate(events) if e.kind == KIND_SWAP)
    return events[:last] + events[last + 1 :]


def drop_every_swap(events):
    return [e for e in events if e.kind != KIND_SWAP]


def relabel_first_insertion_swap(events):
    first = next(k for k, e in enumerate(events) if e.kind == KIND_SWAP and e.phase == PHASE_INSERTION)
    return events[:first] + [events[first]._replace(phase=PHASE_SELECTION)] + events[first + 1 :]


def relabel_every_insertion_swap(events):
    insertion_swap = (KIND_SWAP, PHASE_INSERTION)
    return [e._replace(phase=PHASE_SELECTION) if (e.kind, e.phase) == insertion_swap else e for e in events]


def recheck(claim, values):
    """The counterexample ``claim``'s public check gives on ``values``, which a
    reported one must equal; for ``correctness``, the installed sort's output."""
    if claim == "correctness":
        return {"input": values, "output": sortlab.verify.icbics_sort(values).output}
    checks = {"pi": check_pi_invariant, "lemma1": check_lemma1}
    checks.update(dict.fromkeys(("theorem2", "theorem3", "theorem4"), check_theorem_bounds))
    return checks[claim](values).counterexample
