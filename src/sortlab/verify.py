"""Per-run checkers for the double-loop sort's structural claims.

Each check runs ``icbics_sort`` on one input and validates a claimed
property of the run: the sorted-prefix invariant after every outer
pass, the +1/-1 inversion delta of every swap, the closed-form swap
bounds, or (by search over tagged inputs) the fact that the sort is
not stable.  The first two, ``pi`` and ``lemma1``, share one observer
that replays each swap once and checks either claim or both on the same
traced run; ``sortlab.network.prove_claims`` sweeps and proves them with
it.  Checks return a :class:`VerificationVerdict`; a failing verdict
always carries a replayable counterexample.  ``sortlab verify`` reports
each check's whole sweep as one verdict too, with what the sweep covered
(inputs examined, per-n extremes) in its ``details``.

Checks that assume distinct elements raise ``ValueError`` when handed
duplicates instead of producing an undefined verdict.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .metrics import count_inversions, inversion_delta, violated_bounds
from .sortcore import (
    KIND_SWAP,
    PHASE_SELECTION,
    TraceEvent,
    icbics_sort,
)

CHECK_IDS = ("correctness", "pi", "lemma1", "theorem2", "theorem3", "theorem4", "instability")

# A per-input check of the open claims: the counterexample of each that fails, by claim id.
Check = Callable[[Sequence[int], tuple[str, ...]], dict[str, dict]]


@dataclass(frozen=True)
class VerificationVerdict:
    """Outcome of one check, on one input or over a sweep.

    ``counterexample`` is None on a pass; on a failure it is a dict
    holding at least the input plus the location of the violation
    (failing outer index or event seq) and the expected vs observed
    values, enough to reproduce the failure by re-running the same
    check.  ``details`` holds facts about the run, such as how many
    inputs a sweep examined; the per-input checks here leave it empty.
    Both hold only values ``json.dumps`` prints unchanged, tuples
    included (as arrays), so ``sortlab verify`` prints
    ``dataclasses.asdict`` of each verdict as it is.
    """

    passed: bool
    counterexample: Optional[dict] = None
    details: dict = field(default_factory=dict)


def _sweep(
    check: Check, claims: tuple[str, ...], inputs: Iterable[Sequence[int]], examined: int = 0
) -> dict[str, VerificationVerdict]:
    """The one loop over per-input claims: run ``check`` on each input in
    turn for the claims still open, and return each claim's verdict by
    claim id.  A claim closes at its first counterexample, and the sweep
    stops once none is open; ``details`` counts the inputs examined, the
    failing one included, after the ``examined`` already counted."""
    verdicts = {}
    for values in inputs:
        if not claims:
            break
        examined += 1
        if failures := check(values, claims):
            for claim, counterexample in failures.items():
                verdicts[claim] = VerificationVerdict(False, counterexample, {"inputs_examined": examined})
            claims = tuple(claim for claim in claims if claim not in failures)
    for claim in claims:
        verdicts[claim] = VerificationVerdict(True, details={"inputs_examined": examined})
    return verdicts


def _require_distinct(values: Sequence, check_id: str) -> None:
    if len(set(values)) != len(values):
        raise ValueError(f"{check_id} check requires distinct elements, got duplicates: {list(values)!r}")


def _check_replay(values: Sequence[int], claims: tuple[str, ...], compares: Optional[list] = None) -> dict[str, dict]:
    """Sort ``values`` once, traced, and check each claim in ``claims``
    ("pi", "lemma1", or both) on that one run; if ``compares`` is given,
    append to it each compare event's ``(i, j, phase)``.

    One observer replays each swap as it arrives.  Before applying a
    swap it checks Lemma 1 on it; whenever the outer position ``i`` of
    the events changes, and once after the run, it checks the ``pi``
    boundary.  The run always goes to its end; a claim that fails is
    recorded with its first counterexample and is checked no further.
    Returns the counterexample of each claim that failed, by claim id;
    ``sortlab verify`` calls it per permutation with the claims still open.
    """
    _require_distinct(values, " and ".join(claims))
    work = list(values)
    top = max(work) if work else None
    failures: dict[str, dict] = {}
    current = None

    def check_boundary(outer: Optional[int]) -> None:
        # Prefix work[0 .. outer-1] sorted, and work[outer-1] is the array max.
        if "pi" not in claims or "pi" in failures or outer is None:
            return
        prefix = work[:outer]
        if prefix != sorted(prefix):
            expected, observed = "non-decreasing prefix", prefix
        elif prefix[-1] != top:
            expected, observed = top, prefix[-1]
        else:
            return
        failures["pi"] = {"input": list(values), "outer": outer, "expected": expected, "observed": observed}

    def observe(event: TraceEvent) -> None:
        nonlocal current
        i = event.i
        if i != current:
            check_boundary(current)
            current = i
        if event.kind == KIND_SWAP:
            i -= 1
            j = event.j - 1
            if "lemma1" in claims and "lemma1" not in failures:
                observed = inversion_delta(work, i, j)
                expected = 1 if event.phase == PHASE_SELECTION else -1
                if observed != expected:
                    failures["lemma1"] = {
                        "input": list(values),
                        "seq": event.seq,
                        "phase": event.phase,
                        "expected": expected,
                        "observed": observed,
                    }
            work[i], work[j] = work[j], work[i]
        elif compares is not None:
            compares.append((event.i, event.j, event.phase))

    icbics_sort(values, observe)
    check_boundary(current)
    return failures


def check_pi_invariant(values: Sequence[int]) -> VerificationVerdict:
    """After each outer pass i, the prefix A[1..i] must be sorted and
    A[i] must be the maximum of the whole array.

    Runs ``icbics_sort`` with the replay observer, ``pi`` its only
    claim: the observer replays each swap as it arrives and asserts both
    facts whenever the outer position ``i`` of the events changes and
    once after the run (n assertions for length n).  The run goes to its
    end; only the first violation is reported.
    """
    counterexample = _check_replay(values, ("pi",)).get("pi")
    return VerificationVerdict(counterexample is None, counterexample)


def check_lemma1(values: Sequence[int]) -> VerificationVerdict:
    """Every selection-phase swap must raise the inversion count by
    exactly one and every insertion-phase swap must lower it by exactly
    one.

    Runs ``icbics_sort`` with the replay observer, ``lemma1`` its only
    claim: at each swap as it arrives, the observer measures the
    swap's exact inversion change with ``inversion_delta`` (O(q - p), no
    full recount) on the replayed array, then applies the swap.  The run
    goes to its end; only the first violation is reported.
    """
    counterexample = _check_replay(values, ("lemma1",)).get("lemma1")
    return VerificationVerdict(counterexample is None, counterexample)


def check_theorem_bounds(values: Sequence[int]) -> VerificationVerdict:
    """One run's swap count must fall inside all three closed-form
    bounds: at most ``n(n-1)/2 + 1``, at most ``I + 2(n-1)`` for input
    inversion count I, and at least ``n - 1``.
    """
    _require_distinct(values, "theorem_bounds")
    n = len(values)
    if n < 2:
        raise ValueError(f"theorem bounds need n >= 2, got n={n}")
    inv = count_inversions(values)
    swaps = icbics_sort(values).swaps
    violated = violated_bounds(n, inv, swaps)
    if violated:
        return VerificationVerdict(
            False,
            {
                "input": list(values),
                "inversions": inv,
                "swaps": swaps,
                "violated": violated,
            },
        )
    return VerificationVerdict(True)


class Tagged:
    """A sort key carrying a tag that takes no part in comparisons.

    Only ``<`` is defined, and it compares keys alone, so sorting a list
    of Tagged values orders by key while the tags record where each
    element started.
    """

    __slots__ = ("key", "tag")

    def __init__(self, key: int, tag: str) -> None:
        self.key = key
        self.tag = tag

    def __lt__(self, other: "Tagged") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"({self.key}, {self.tag!r})"


@dataclass(frozen=True)
class InstabilityWitness:
    """A tagged input on which the sort reorders equal keys.

    ``input`` and ``output`` are (key, tag) pairs, tags assigned a, b,
    c, ... in input order.  ``violated_pair`` gives two 0-based output
    positions holding equal keys whose tags appear in the opposite of
    their input order.
    """

    input: list[tuple[int, str]]
    output: list[tuple[int, str]]
    violated_pair: tuple[int, int]


def _tag_inversion(pairs: list[tuple[int, str]]) -> Optional[tuple[int, int]]:
    # Tags were assigned alphabetically in input order, so among equal
    # keys any tag pair out of alphabetical order marks an inversion.
    n = len(pairs)
    for p in range(n):
        key_p, tag_p = pairs[p]
        for q in range(p + 1, n):
            key_q, tag_q = pairs[q]
            if key_p == key_q and tag_p > tag_q:
                return p, q
    return None


def sort_tagged(keys: Sequence[int]) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Run ``icbics_sort`` on ``keys`` tagged a, b, c, ... in input
    order, comparing keys only.  Returns (tagged input, tagged output).
    Raises ``ValueError`` on more than 26 keys, one per tag letter.
    """
    if len(keys) > len(string.ascii_lowercase):
        raise ValueError(f"sort_tagged supports at most 26 keys, got {len(keys)}")
    tagged = [Tagged(key, string.ascii_lowercase[pos]) for pos, key in enumerate(keys)]
    report = icbics_sort(tagged)
    as_pairs = [(t.key, t.tag) for t in tagged]
    out_pairs = [(t.key, t.tag) for t in report.output]
    return as_pairs, out_pairs


def find_instability_witness(max_n: int) -> Optional[InstabilityWitness]:
    """Search for an input on which the sort breaks stability.

    Enumerates key tuples over {1, 2, 3} with at least one duplicate,
    lengths 2 through ``max_n``, in lexicographic order, tags assigned
    a, b, c, ... by input position.  Returns the first input whose run
    leaves two equal keys with inverted tags, or None if none exists up
    to ``max_n``.
    """
    if max_n < 2:
        raise ValueError(f"witness search needs max_n >= 2, got {max_n}")
    if max_n > len(string.ascii_lowercase):
        raise ValueError(f"witness search supports max_n <= 26, got {max_n}")
    for n in range(2, max_n + 1):
        for keys in product((1, 2, 3), repeat=n):
            if len(set(keys)) == n:
                continue
            in_pairs, out_pairs = sort_tagged(keys)
            pair = _tag_inversion(out_pairs)
            if pair is not None:
                return InstabilityWitness(in_pairs, out_pairs, pair)
    return None
