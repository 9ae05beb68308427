"""Instrumented comparison sorts with a uniform observer interface.

Every sorter takes a sequence of keys (anything with a strict total order
via ``<``), works on its own copy, and reports totals in a
:class:`SortReport`.  Pass an observer callable to receive one
:class:`TraceEvent` per comparison and per swap, in execution order;
its ``seq`` is the number of comparisons and swaps made before it.  The
sorters store no events; ``events.append`` on a list records them all.

Index convention: arrays are plain Python lists indexed from 0
internally, but all trace events carry 1-based positions (list index
``p`` is reported as position ``p + 1``).  A swap event for positions
``(i, j)`` means "exchange the cells at 1-based positions i and j" and
is always emitted immediately after the comparison that triggered it.

The double-loop sorters share one kernel per swap condition:
``_swap_when_less`` runs ``icbics_sort`` and ``improved_sort``;
``_swap_when_greater`` runs ``exchange_sort``, ``icbics_desc_ineq`` and
``icbics_desc_loopswap``, which relays its events.  ``std_insertion_sort`` stops
early, so it keeps its own loop.

Bare and traced runs share that one loop per kernel.  It counts
comparisons once per outer pass, not once per comparison: the length of
the range the double loops walk, and for ``std_insertion_sort`` the
steps its ``while`` took.  Each event's ``seq`` comes from an offset
fixed at the start of the pass, plus the inner index, rising by one per
swap.  Only swaps are counted one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

Key = TypeVar("Key")

PHASE_SELECTION = "selection"
PHASE_INSERTION = "insertion"
PHASE_NA = "not_applicable"

KIND_COMPARE = "compare"
KIND_SWAP = "swap"


class TraceEvent(NamedTuple):
    """One comparison or swap.

    ``i`` and ``j`` are the 1-based positions of the two cells compared
    (the comparison is between ``A[i]`` and ``A[j]``).  ``seq`` is the
    number of comparisons and swaps made before the event: 0, 1, 2, ...
    ``phase`` is meaningful only for ``icbics_sort``: its first outer
    pass is the selection phase, every later pass the insertion phase.
    All other algorithms emit ``not_applicable``.

    A named tuple because the sorters build one per comparison: it costs
    about half what a frozen dataclass does to construct, and its fields
    are just as read-only.  The sorters and ``trace.iter_trace`` build it
    with ``tuple.__new__(TraceEvent, (seq, kind, i, j, phase))``, which
    skips the generated ``__new__`` (a Python function call per event)
    and halves that cost again; the result is an ordinary ``TraceEvent``.
    A traced sort spends most of its time on events.  Unlike a plain
    tuple of ints and strings, an instance stays tracked by CPython's
    cyclic collector, so ``trace.load_trace`` pauses the collector while
    it builds its list.
    """

    seq: int
    kind: str
    i: int
    j: int
    phase: str


@dataclass(frozen=True)
class SortReport:
    """Per-run totals for one sort invocation.

    ``swaps`` counts swap events; for ``std_insertion_sort`` the count
    models element shifts as adjacent exchanges and ``swap_label`` is
    ``"moves"`` to flag the different semantics.  ``output`` is a new
    list, always a permutation of the input.
    """

    algorithm: str
    n: int
    comparisons: int
    swaps: int
    output: list
    swap_label: str = "swaps"


Observer = Callable[[TraceEvent], None]


def _swap_when_less(values: Sequence[Key], obs: Observer | None, algorithm: str, square: bool) -> SortReport:
    """Swap when ``A[i] < A[j]``; ``square`` sets each outer pass's
    start, inner range and phase, and is never read per comparison.

    Each pass adds ``len(inner)`` comparisons once.  The compare at ``j``
    has seq ``offset + j``, with ``offset`` the pass's starting
    ``comparisons + swaps`` (both inner ranges start at 0), raised by one per swap.
    """
    a = list(values)
    n = len(a)
    comparisons = 0
    swaps = 0
    for i in range(0 if square else 1, n):
        inner = range(n) if square else range(i)
        phase = (PHASE_SELECTION if i == 0 else PHASE_INSERTION) if square else PHASE_NA
        ip = i + 1
        ai = a[i]
        offset = comparisons + swaps
        for j in inner:
            aj = a[j]
            if obs is not None:
                obs(tuple.__new__(TraceEvent, (offset + j, KIND_COMPARE, ip, j + 1, phase)))
            if ai < aj:
                a[i] = aj
                a[j] = ai
                ai = aj
                swaps += 1
                if obs is not None:
                    offset += 1
                    obs(tuple.__new__(TraceEvent, (offset + j, KIND_SWAP, ip, j + 1, phase)))
        comparisons += len(inner)
    return SortReport(algorithm, n, comparisons, swaps, a)


def _swap_when_greater(values: Sequence[Key], obs: Observer | None, algorithm: str, square: bool) -> SortReport:
    """Swap when ``A[i] > A[j]``, tested as ``A[j] < A[i]`` because keys
    define only ``<``; ``square`` sets each outer pass's inner range.
    Counts and seqs come per pass, as in :func:`_swap_when_less`."""
    a = list(values)
    n = len(a)
    comparisons = 0
    swaps = 0
    for i in range(n):
        inner = range(n) if square else range(i + 1, n)
        ip = i + 1
        ai = a[i]
        offset = comparisons + swaps - inner.start
        for j in inner:
            aj = a[j]
            if obs is not None:
                obs(tuple.__new__(TraceEvent, (offset + j, KIND_COMPARE, ip, j + 1, PHASE_NA)))
            if aj < ai:
                a[i] = aj
                a[j] = ai
                ai = aj
                swaps += 1
                if obs is not None:
                    offset += 1
                    obs(tuple.__new__(TraceEvent, (offset + j, KIND_SWAP, ip, j + 1, PHASE_NA)))
        comparisons += len(inner)
    return SortReport(algorithm, n, comparisons, swaps, a)


def icbics_sort(values: Sequence[Key], observer: Observer | None = None) -> SortReport:
    """Full double-loop sort: swap whenever ``A[i] < A[j]``.

    Both loops run over the whole array, the self-comparison ``i == j``
    included, so the run makes exactly ``n * n`` comparisons no matter
    the input.  The comparison looks backwards for an ascending sort,
    yet the output is non-decreasing: the first outer pass drags the
    maximum into ``A[1]`` (selection phase), and each later pass inserts
    ``A[i]`` into the sorted prefix by repeated swaps (insertion phase).
    Equal keys are never swapped (strict ``<``).
    """
    return _swap_when_less(values, observer, "icbics", square=True)


def exchange_sort(values: Sequence[Key], observer: Observer | None = None) -> SortReport:
    """Classical exchange sort: ``j`` runs from ``i + 1`` to ``n``, swap
    when ``A[i] > A[j]``.  Makes exactly ``n (n - 1) / 2`` comparisons.
    """
    return _swap_when_greater(values, observer, "exchange", square=False)


def improved_sort(values: Sequence[Key], observer: Observer | None = None) -> SortReport:
    """The double-loop sort with its pointless iterations removed: the
    outer loop starts at 2 and the inner loop stops at ``i - 1``.  Same
    output as ``icbics_sort`` on every input, with ``n (n - 1) / 2``
    comparisons and never more swaps.  It is insertion sort that scans
    the sorted prefix from the front and moves elements by swapping.
    """
    return _swap_when_less(values, observer, "improved", square=False)


def icbics_desc_ineq(values: Sequence[Key], observer: Observer | None = None) -> SortReport:
    """Descending variant of ``icbics_sort`` with the inequality
    reversed: swap whenever ``A[i] > A[j]``.  Output is non-increasing;
    still exactly ``n * n`` comparisons.
    """
    return _swap_when_greater(values, observer, "icbics-desc-ineq", square=True)


def icbics_desc_loopswap(values: Sequence[Key], observer: Observer | None = None) -> SortReport:
    """Descending variant of ``icbics_sort`` obtained by exchanging the
    two loops (outer ``j``, inner ``i``) while keeping the ``A[i] < A[j]``
    condition.  Renaming the loop indices turns this into
    ``icbics_desc_ineq`` exactly, so it runs that kernel: the same
    output, comparisons and swaps on every input, duplicates included.

    Trace events still report ``(i, j)`` as the comparison operands, so
    here ``j`` is the outer-loop index: each of the kernel's events is
    relayed with its ``i`` and ``j`` exchanged.
    """
    relay = None
    if observer is not None:

        def relay(event: TraceEvent) -> None:
            seq, kind, i, j, phase = event
            observer(tuple.__new__(TraceEvent, (seq, kind, j, i, phase)))

    return _swap_when_greater(values, relay, "icbics-desc-loops", square=True)


def std_insertion_sort(values: Sequence[Key], observer: Observer | None = None) -> SortReport:
    """Standard insertion sort, used as the benchmark baseline.

    Scans for the insertion point from the end of the sorted region and
    stops as soon as it is found.  Element shifts are modeled as
    adjacent exchanges and reported as swap events, so the count is
    comparable with the other sorters' swap counts; the report labels
    the field "moves".  Stable: equal keys keep their input order.

    Each pass inserts ``A[i]`` in ``i - k`` moves, stopping at cell
    ``k``, and adds the count once after its ``while``: ``i - k`` moves
    and ``i - k + (k > 0)`` comparisons, the last one finding no move.
    The compare at ``k`` has seq ``offset - k``, with ``offset`` the
    pass's starting ``comparisons + moves + i``, raised by one per move.
    """
    a = list(values)
    n = len(a)
    comparisons = 0
    moves = 0
    for i in range(1, n):
        k = i
        ak = a[k]
        offset = comparisons + moves + i
        while k > 0:
            left = a[k - 1]
            if observer is not None:
                observer(tuple.__new__(TraceEvent, (offset - k, KIND_COMPARE, k + 1, k, PHASE_NA)))
            if ak < left:
                a[k] = left
                a[k - 1] = ak
                if observer is not None:
                    offset += 1
                    observer(tuple.__new__(TraceEvent, (offset - k, KIND_SWAP, k + 1, k, PHASE_NA)))
                k -= 1
            else:
                break
        moves += i - k
        comparisons += i - k + (k > 0)
    return SortReport("std-insertion", n, comparisons, moves, a, swap_label="moves")


def replay_trace(values: Sequence[Key], events: Iterable[TraceEvent]) -> list:
    """Re-apply a recorded trace to a copy of ``values``.

    ``events`` may be any iterable, a generator included: it is walked
    once, in order.  Swap events exchange the named 1-based positions;
    comparison events carry no state change.  Replaying a full trace
    reproduces the originating run's output exactly.  Raises
    ``ValueError`` on an event naming a position outside 1..n or a kind
    other than ``compare`` and ``swap``, rather than letting Python's
    negative indexing wrap position 0 round to the last cell.
    """
    work = list(values)
    n = len(work)
    for event in events:
        i = event.i
        j = event.j
        if not (0 < i <= n and 0 < j <= n):
            raise ValueError(f"trace event {event.seq} names position ({i}, {j}) outside 1..{n}")
        kind = event.kind
        if kind == KIND_SWAP:
            i -= 1
            j -= 1
            work[i], work[j] = work[j], work[i]
        elif kind != KIND_COMPARE:
            raise ValueError(f"trace event {event.seq} has unknown kind {kind!r}")
    return work


@dataclass(frozen=True)
class AlgorithmInfo:
    """Registry entry: callable plus the facts the CLI needs."""

    func: Callable[..., SortReport]
    descending: bool


ALGORITHMS: dict[str, AlgorithmInfo] = {
    "icbics": AlgorithmInfo(icbics_sort, descending=False),
    "exchange": AlgorithmInfo(exchange_sort, descending=False),
    "improved": AlgorithmInfo(improved_sort, descending=False),
    "icbics-desc-ineq": AlgorithmInfo(icbics_desc_ineq, descending=True),
    "icbics-desc-loops": AlgorithmInfo(icbics_desc_loopswap, descending=True),
    "std-insertion": AlgorithmInfo(std_insertion_sort, descending=False),
}
