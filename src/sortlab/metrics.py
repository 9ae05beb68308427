"""Inversion counting and closed-form swap bounds.

An inversion is a pair of positions ``(i, j)`` with ``i < j`` and
``A[i] > A[j]``; the count measures how disordered an array is.  The
bounds below relate the double-loop sort's swap count to the inversion
count of its input.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence


def count_inversions(a: Sequence) -> int:
    """Count pairs ``i < j`` with ``a[i] > a[j]``.

    Each element is placed into a sorted list of the elements before it
    by one ``bisect_right``, and the elements right of that place are
    the earlier ones strictly greater, so duplicate pairs are never
    inversions (Knuth, TAOCP Vol. 3 §5.2.1).  That is at most
    n·⌈log2(n + 1)⌉ comparisons, plus the O(n^2) pointer moves of
    ``list.insert``, done in C.  Each comparison is ``x < y``, so keys
    need only ``<``, and must be totally ordered by it, as the sorters
    already assume.
    """
    seen: list = []
    total = 0
    for x in a:
        pos = bisect_right(seen, x)
        total += len(seen) - pos
        seen.insert(pos, x)
    return total


def inversion_delta(a: Sequence, p: int, q: int) -> int:
    """Change in ``count_inversions(a)`` if ``a[p]`` and ``a[q]`` were
    exchanged, in O(|q - p|) without touching ``a``.

    With ``p < q``, ``x = a[p]`` and ``y = a[q]``: equal keys change
    nothing.  Otherwise the pair (p, q) flips; each cell ``k`` between
    them whose ``a[k]`` lies strictly between x and y flips both (p, k)
    and (k, q); a cell equal to x or y flips one of the two; every other
    pair keeps its order.  So the change is ``+(1 + 2c + e)`` when
    ``x < y`` and ``-(1 + 2c + e)`` when ``x > y``, where c counts the
    in-between cells strictly inside and e those equal to x or y.  Only
    ``<`` is used, as in :func:`count_inversions`.  Raises ``ValueError``
    unless both ``p`` and ``q`` lie in ``0 .. len(a) - 1``.
    """
    n = len(a)
    if not 0 <= p < n or not 0 <= q < n:
        raise ValueError(f"positions must index a length-{n} sequence, got p={p}, q={q}")
    if p > q:
        p, q = q, p
    elif p == q:
        return 0
    x = a[p]
    y = a[q]
    if x < y:
        lo, hi, sign = x, y, 1
    elif y < x:
        lo, hi, sign = y, x, -1
    else:
        return 0
    between = 0
    ends = 0
    for k in range(p + 1, q):
        v = a[k]
        if lo < v:
            if v < hi:
                between += 1
            elif not hi < v:
                ends += 1
        elif not v < lo:
            ends += 1
    return sign * (1 + 2 * between + ends)


def max_inversions(n: int) -> int:
    """Largest possible inversion count for length ``n``: ``n(n-1)/2``,
    achieved by a strictly decreasing array."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return n * (n - 1) // 2


def swap_bounds(n: int, inversions: int) -> tuple[int, int, int]:
    """Closed-form swap bounds for a length-``n`` input with
    ``inversions`` inversions, as ``(upper_from_max_inversions,
    upper_from_input_inversions, lower)``.

    The two upper bounds are ``n(n-1)/2 + 1`` and ``I + 2(n-1)``; the
    lower bound is ``n - 1``.  For degenerate lengths below 2 the lower
    bound is 0 (there is no maximum element to relocate), and at n = 0
    the inversion-based upper bound is clamped to 0.
    """
    upper_total = max_inversions(n) + 1
    upper_adaptive = max(0, inversions + 2 * (n - 1))
    lower = max(0, n - 1)
    return upper_total, upper_adaptive, lower


def violated_bounds(n: int, inversions: int, swaps: int) -> list[str]:
    """Ids of the :func:`swap_bounds` that ``swaps`` escapes, in order:
    ``"theorem2"`` (above ``n(n-1)/2 + 1``), ``"theorem3"`` (above
    ``I + 2(n-1)``) and ``"theorem4"`` (below ``n - 1``).  Empty when the
    count lies inside all three.
    """
    upper_total, upper_adaptive, lower = swap_bounds(n, inversions)
    violated = []
    if swaps > upper_total:
        violated.append("theorem2")
    if swaps > upper_adaptive:
        violated.append("theorem3")
    if swaps < lower:
        violated.append("theorem4")
    return violated
