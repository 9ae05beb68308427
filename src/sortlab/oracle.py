"""Exhaustive and randomized swap-count surveys.

Because the sorters are comparison-based, distinct-element behavior is
fully captured by permutations of 1..n, so exhaustive enumeration at
small n settles the extremal questions exactly: the largest and
smallest swap counts the double-loop sort can make, and precisely which
inputs attain them; each survey also notes the first unsorted output.
A seeded random suite extends these checks past enumeration's reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Optional

from .metrics import count_inversions, violated_bounds
from .sortcore import icbics_sort

ENUMERATION_CAP = 10
EXHAUSTIVE_CAP = 8


@dataclass(frozen=True)
class OracleSummary:
    """Swap-count statistics over a set of examined inputs.

    ``argmax_inputs`` and ``argmin_inputs`` hold exactly the examined
    permutations attaining ``max_swaps`` and ``min_swaps``, deduplicated
    and in lexicographic order.  ``bound_violations`` counts inputs
    whose swap count escaped any closed-form bound; it must be 0.
    ``seed`` is None exactly for an exhaustive survey; a random survey
    keeps its seed so it can be reproduced.  ``first_violations`` is keyed by
    check id: ``"correctness"`` if some input came out unsorted, and the
    id of each bound that some input escaped (see
    :func:`~sortlab.metrics.violated_bounds`).  Each maps to the 1-based
    ordinal and the input of the first such input, in examination order.
    """

    n: int
    inputs_examined: int
    max_swaps: int
    argmax_inputs: list[tuple[int, ...]]
    min_swaps: int
    argmin_inputs: list[tuple[int, ...]]
    bound_violations: int
    seed: Optional[int] = None
    first_violations: dict[str, tuple[int, tuple[int, ...]]] = field(default_factory=dict)


def enumerate_permutations(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the n! permutations of (1, ..., n) in lexicographic order.

    Guarded at n <= 10 to keep enumeration at desk scale.
    """
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"permutation enumeration supports 0 <= n <= {ENUMERATION_CAP}, got {n}")
    return permutations(range(1, n + 1))


def theorem2_extremal_inputs(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two inputs that force the most swaps for length n >= 3:
    the largest two or three values ascending, then the rest descending.
    """
    if n < 3:
        raise ValueError(f"the two extremal patterns need n >= 3, got {n}")
    tail = tuple(range(n - 2, 0, -1))
    first = (n - 1, n) + tail
    second = (n - 2, n - 1, n) + tuple(range(n - 3, 0, -1))
    return first, second


def theorem4_extremal_input(n: int) -> tuple[int, ...]:
    """The unique fewest-swaps input for length n >= 2: the maximum
    first, everything else already in order."""
    if n < 2:
        raise ValueError(f"the fewest-swaps pattern needs n >= 2, got {n}")
    return (n,) + tuple(range(1, n))


def _summarize(n: int, inputs: Iterator[tuple[int, ...]], seed: Optional[int]) -> OracleSummary:
    examined = 0
    violations = 0
    max_swaps = -1
    min_swaps = None
    argmax: set[tuple[int, ...]] = set()
    argmin: set[tuple[int, ...]] = set()
    first_violations: dict[str, tuple[int, tuple[int, ...]]] = {}
    ascending = list(range(1, n + 1))  # the inputs are permutations of 1..n
    for perm in inputs:
        examined += 1
        report = icbics_sort(perm)
        if report.output != ascending:
            first_violations.setdefault("correctness", (examined, perm))
        swaps = report.swaps
        violated = violated_bounds(n, count_inversions(perm), swaps)
        if violated:
            violations += 1
            for bound_id in violated:
                first_violations.setdefault(bound_id, (examined, perm))
        if swaps > max_swaps:
            max_swaps = swaps
            argmax = {perm}
        elif swaps == max_swaps:
            argmax.add(perm)
        if min_swaps is None or swaps < min_swaps:
            min_swaps = swaps
            argmin = {perm}
        elif swaps == min_swaps:
            argmin.add(perm)
    assert min_swaps is not None
    return OracleSummary(
        n=n,
        inputs_examined=examined,
        max_swaps=max_swaps,
        argmax_inputs=sorted(argmax),
        min_swaps=min_swaps,
        argmin_inputs=sorted(argmin),
        bound_violations=violations,
        seed=seed,
        first_violations=first_violations,
    )


def exhaustive_summary(n: int) -> OracleSummary:
    """Run the double-loop sort on every permutation of 1..n, for n in
    0..8, and return the exact swap-count extremes with their attaining
    input sets.  n = 0 and n = 1 each have one input, with 0 swaps.
    """
    if not 0 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive survey supports 0 <= n <= {EXHAUSTIVE_CAP}, got {n}")
    return _summarize(n, enumerate_permutations(n), None)


def random_suite(n: int, samples: int, seed: int) -> OracleSummary:
    """Check the output order and swap bounds on ``samples`` seeded random
    permutations of 1..n (Fisher-Yates shuffle).  Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError(f"random suite needs n >= 2, got {n}")
    if samples < 1:
        raise ValueError(f"random suite needs samples >= 1, got {samples}")
    rng = random.Random(seed)

    def draw() -> Iterator[tuple[int, ...]]:
        for _ in range(samples):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            yield tuple(perm)

    return _summarize(n, draw(), seed)
