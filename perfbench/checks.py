"""Correctness checks on what the program returned.

Every check runs after the child it inspects has exited, outside the
timed region, and counts operations into a :class:`Tally`; a wrong
answer fails the run whatever its speed.  The expected values come from
Python's ``sorted``, closed forms and an inversion counter of this
file's own, never from sortlab.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from child import KERNEL_IDS

VERIFY_CHECKS = ("correctness", "pi", "lemma1", "theorem2", "theorem3", "theorem4", "instability")
RANDOM_SUITE = "random_suite"
SAMPLES = 1000
N_MAX = 8

FULL_LOOPS = {"icbics", "icbics-desc-ineq", "icbics-desc-loops"}
TRIANGULAR_LOOPS = {"exchange", "improved"}
DESCENDING = {"icbics-desc-ineq", "icbics-desc-loops"}
MAX_NOTES = 20


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(what)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def parse_json(text: str):
    """The JSON value in ``text``, or None if it is not valid JSON."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_verify(
    tally: Tally,
    code: int,
    stdout: str,
    seed: int,
    checks: Sequence[str] = VERIFY_CHECKS,
    n_max: int = N_MAX,
    suite: bool = True,
) -> None:
    """``sortlab verify`` output: one operation per check, and one for the
    random suite if ``suite``.  A non-zero exit or ``all_passed`` not true
    fails them all."""
    payload = parse_json(stdout)
    if not isinstance(payload, dict):
        payload = {}
    ran = code == 0 and payload.get("all_passed") is True and payload.get("n_max") == n_max
    results = payload.get("checks")
    if not isinstance(results, dict):
        results = {}
    for check_id in checks:
        outcome = results.get(check_id)
        tally.record(ran and isinstance(outcome, dict) and outcome.get("passed") is True, f"verify {check_id}")
    if not suite:
        return
    outcome = payload.get(RANDOM_SUITE)
    suite_ok = (
        isinstance(outcome, dict)
        and outcome.get("passed") is True
        and outcome.get("samples") == SAMPLES
        and outcome.get("seed") == seed
        and outcome.get("bound_violations") == 0
    )
    tally.record(ran and suite_ok, f"verify {RANDOM_SUITE}")


def check_sort(tally: Tally, code: int, stdout: str, values: list[int]) -> Optional[int]:
    """``sortlab sort --algo icbics`` report: sorted output and n*n
    comparisons.  Returns the reported swap count if the report is good."""
    report = parse_json(stdout)
    if not isinstance(report, dict):
        report = {}
    n = len(values)
    swaps = report.get("swaps")
    ok = (
        code == 0
        and report.get("n") == n
        and report.get("output") == sorted(values)
        and report.get("sorted") is True
        and report.get("comparisons") == n * n
        and isinstance(swaps, int)
    )
    tally.record(ok, "trace-1000 sort")
    return swaps if ok else None


def count_swap_events(trace: Path) -> int:
    """Swap events in a JSON-lines trace, counted without parsing it."""
    with open(trace, "rb") as fh:
        return sum(1 for line in fh if b'"swap"' in line)


def check_readback(tally: Tally, output, values: list[int], swaps: Optional[int], swap_events: int) -> None:
    """Replaying the trace gives ``sorted(values)``, and the trace holds
    exactly as many swap events as the sort reported."""
    ok = output == sorted(values) and swaps is not None and swap_events == swaps
    tally.record(ok, f"trace-1000 read-back (swap events {swap_events}, reported {swaps})")


def inversions(values: Sequence[int]) -> int:
    """Pairs i < j with values[i] > values[j], by merge sort."""

    def sort_count(a: list[int]) -> tuple[list[int], int]:
        if len(a) < 2:
            return a, 0
        mid = len(a) // 2
        left, x = sort_count(a[:mid])
        right, y = sort_count(a[mid:])
        merged, count, i, j = [], x + y, 0, 0
        while i < len(left) and j < len(right):
            if right[j] < left[i]:
                merged.append(right[j])
                count += len(left) - i
                j += 1
            else:
                merged.append(left[i])
                i += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, count

    return sort_count(list(values))[1]


def expected_counts(algo: str, values: Sequence[int]) -> tuple[int, Optional[int]]:
    """(comparisons, swaps or None if not fixed) for distinct keys.

    The double loops compare a fixed n*n or n(n-1)/2 times.  Insertion
    sort makes one move per inversion and one comparison per move, plus
    a stopping comparison for every element that is not a new minimum.
    """
    n = len(values)
    if algo in FULL_LOOPS:
        return n * n, None
    if algo in TRIANGULAR_LOOPS:
        return n * (n - 1) // 2, None
    inv = inversions(values)
    new_minima = 0
    low = values[0] if n else None
    for v in values[1:]:
        if v < low:
            new_minima += 1
            low = v
    return inv + max(n - 1, 0) - new_minima, inv


def kernel_ok(algo: str, values: list[int], row) -> bool:
    if not isinstance(row, dict) or row.get("algo") != algo:
        return False
    comparisons, swaps = expected_counts(algo, values)
    return (
        row.get("output") == sorted(values, reverse=algo in DESCENDING)
        and row.get("comparisons") == comparisons
        and (swaps is None or row.get("swaps") == swaps)
    )


def check_kernels(tally: Tally, rows, inputs: list[list[int]]) -> None:
    """One operation per (sorter, input), in the order ``run_kernels``
    makes them; a missing or malformed result fails every call."""
    cases = [(algo, values) for algo in KERNEL_IDS for values in inputs]
    if not isinstance(rows, list) or len(rows) != len(cases):
        rows = [None] * len(cases)
    for (algo, values), row in zip(cases, rows):
        tally.record(kernel_ok(algo, values, row), f"kernels-bare {algo} n={len(values)}")
