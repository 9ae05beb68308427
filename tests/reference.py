"""Plain, uninstrumented transcriptions of the six algorithms, written
straight from their loop definitions, plus a merge-based inversion
counter and the two input grammars the CLI reads: integer lists, read a
character at a time, and trace lines, read with ``json``.  The suite uses
these as independent oracles: they share no code with the package, so
agreement between the two is meaningful.

Each sorter returns (output, comparisons, swaps) where swaps counts
exchanges (adjacent shifts for the insertion sort).
"""

from __future__ import annotations

import json
import sys


def naive_icbics(values):
    a = list(values)
    n = len(a)
    comparisons = swaps = 0
    for i in range(n):
        for j in range(n):
            comparisons += 1
            if a[i] < a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, comparisons, swaps


def naive_exchange(values):
    a = list(values)
    n = len(a)
    comparisons = swaps = 0
    for i in range(n):
        for j in range(i + 1, n):
            comparisons += 1
            if a[i] > a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, comparisons, swaps


def naive_improved(values):
    a = list(values)
    n = len(a)
    comparisons = swaps = 0
    for i in range(1, n):
        for j in range(i):
            comparisons += 1
            if a[i] < a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, comparisons, swaps


def naive_desc_ineq(values):
    a = list(values)
    n = len(a)
    comparisons = swaps = 0
    for i in range(n):
        for j in range(n):
            comparisons += 1
            if a[i] > a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, comparisons, swaps


def naive_desc_loopswap(values):
    a = list(values)
    n = len(a)
    comparisons = swaps = 0
    for j in range(n):
        for i in range(n):
            comparisons += 1
            if a[i] < a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return a, comparisons, swaps


def naive_std_insertion(values):
    a = list(values)
    n = len(a)
    comparisons = moves = 0
    for i in range(1, n):
        k = i
        while k > 0:
            comparisons += 1
            if a[k - 1] > a[k]:
                a[k - 1], a[k] = a[k], a[k - 1]
                moves += 1
                k -= 1
            else:
                break
    return a, comparisons, moves


def merge_count_inversions(values):
    """O(n log n) inversion count by merge sort, an algorithm independent
    of the package's binary-insertion counter."""

    def rec(seq):
        if len(seq) <= 1:
            return seq, 0
        mid = len(seq) // 2
        left, inv_l = rec(seq[:mid])
        right, inv_r = rec(seq[mid:])
        merged = []
        inv = inv_l + inv_r
        li = ri = 0
        while li < len(left) and ri < len(right):
            if right[ri] < left[li]:
                merged.append(right[ri])
                ri += 1
                inv += len(left) - li
            else:
                merged.append(left[li])
                li += 1
        merged.extend(left[li:])
        merged.extend(right[ri:])
        return merged, inv

    return rec(list(values))[1]


# ------------------------------------------------------------ grammars

ASCII_WHITESPACE = " \t\n\r\x0b\x0c"


def _strip(text):
    start, end = 0, len(text)
    while start < end and text[start] in ASCII_WHITESPACE:
        start += 1
    while end > start and text[end - 1] in ASCII_WHITESPACE:
        end -= 1
    return text[start:end]


def _decimal(token):
    # An optional sign, then one or more ASCII digits, no more than Python's limit on reading them (0: none).
    digits = token[1:] if token[:1] in ("+", "-") else token
    limit = sys.get_int_max_str_digits()
    if not digits or any(c not in "0123456789" for c in digits) or 0 < limit < len(digits):
        return None
    value = 0
    for c in digits:
        value = value * 10 + "0123456789".index(c)
    return -value if token[:1] == "-" else value


def read_int_values(text):
    """The integers ``text`` lists, or None if it is refused: blank is the
    empty list; with a comma, each comma-separated piece is one value padded by
    ASCII whitespace; without one, runs of ASCII whitespace part the values."""
    text = _strip(text)
    separators = "," if "," in text else ASCII_WHITESPACE
    tokens, token = [], ""
    for c in text:
        if c in separators:
            tokens.append(token)
            token = ""
        else:
            token += c
    tokens.append(token)
    tokens = [_strip(token) for token in tokens] if separators == "," else [token for token in tokens if token]
    values = [_decimal(token) for token in tokens]
    return None if None in values else values


TRACE_KEYS = ("seq", "kind", "i", "j", "phase")


def read_trace_line(line):
    """The (seq, kind, i, j, phase) of one stripped trace line, or None: a JSON
    object of exactly the five keys, in order, spaced as ``json.dumps`` spaces
    them, with int seq >= 0, int positions >= 1, and a kind and phase sorters emit."""
    try:
        event = json.loads(line)
    except (ValueError, RecursionError):
        return None
    if type(event) is not dict or tuple(event) != TRACE_KEYS or json.dumps(event) != line:
        return None
    seq, kind, i, j, phase = event.values()
    if not all(type(v) is int for v in (seq, i, j)) or seq < 0 or i < 1 or j < 1:
        return None
    if kind not in ("compare", "swap") or phase not in ("selection", "insertion", "not_applicable"):
        return None
    return seq, kind, i, j, phase


def read_trace(lines):
    """The events of a trace's lines up to its first bad one, and that line's
    1-based number (None if every line is good).  A line of ASCII whitespace
    alone is skipped; each other line must hold an event whose seq rises."""
    events, last_seq = [], -1
    for number, line in enumerate(lines, 1):
        line = _strip(line)
        if not line:
            continue
        event = read_trace_line(line)
        if event is None or event[0] <= last_seq:
            return events, number
        events.append(event)
        last_seq = event[0]
    return events, None
