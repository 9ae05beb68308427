"""The trace format: its one line grammar, its writer and its readers.

``sort --trace`` writes one JSON object per event, one line each, through
``_write_trace_line``; ``iter_trace`` streams a trace back and
``load_trace`` reads it into a list, both refusing any line not in the
grammar.  ``_cut`` and ``_shown`` are the rule by which a reader echoes
outside input in its ``ValueError``, which ``cli`` shares.
"""

from __future__ import annotations

import gc
import re
import string
import sys
from itertools import chain, repeat
from operator import lt
from typing import Callable, Generator, Iterable, Iterator, Optional

from .sortcore import KIND_COMPARE, KIND_SWAP, PHASE_INSERTION, PHASE_NA, PHASE_SELECTION, TraceEvent


def _cut(text: str) -> str:
    # At most 200 characters of an error message or of its echo, then the text's length if longer.
    return text if len(text) <= 200 else f"{text[:200]}... ({len(text)} characters)"


def _shown(value: object) -> str:
    # A library reader's echo of outside input in its ValueError: its repr, cut at 200 characters.
    return _cut(repr(value))


# The kinds and phases sorters emit.  Each loaded one is swapped for the module's
# own string, so a long trace holds no per-event copies of these few values;
# the reader likewise reads each distinct position into one shared int.
_TRACE_WORDS = {word: word for word in (KIND_COMPARE, KIND_SWAP, PHASE_SELECTION, PHASE_INSERTION, PHASE_NA)}
# The one trace line grammar, spaced and ordered as _write_trace_line writes it.
_TRACE_LINE = re.compile(
    r'{"seq": (0|[1-9][0-9]*), "kind": "(compare|swap)", "i": ([1-9][0-9]*), "j": ([1-9][0-9]*), '
    r'"phase": "(selection|insertion|not_applicable)"}'
)
# The same grammar over a block of whole lines: each match is one line, "\n" and all.  A "\r"
# before the "\n" is padding the line reader strips, and text-mode writes on Windows put it there.
_TRACE_LINES = re.compile("^" + _TRACE_LINE.pattern + "\r?\n", re.MULTILINE)
# Characters iter_trace reads ahead per block, before it reads on to the end of a line.  Larger
# blocks cost less CPU per event and more peak memory; BENCH_block_reader.json has both.
_BLOCK = 16384


class _Positions(dict):
    # One reader's int for each distinct position text: a hit is a dict lookup in C, with no
    # Python call, and a miss reads the int and keeps it.
    def __missing__(self, text: str) -> int:
        self[text] = value = int(text)
        return value


def _write_trace_line(write: Callable[[str], object], event: TraceEvent) -> None:
    seq, kind, i, j, phase = event
    write(f'{{"seq": {seq}, "kind": "{kind}", "i": {i}, "j": {j}, "phase": "{phase}"}}\n')


def _read_trace(
    lines: Iterable[str], number: int, last_seq: int, position: Callable[[str], int]
) -> Generator[TraceEvent, None, int]:
    # The one trace reader: each line that is not blank (only ASCII whitespace), stripped, must be
    # of the grammar with seq above the last event's.  Lines are numbered from number + 1, and
    # position reads i and j; it returns the last seq read.
    for number, line in enumerate(lines, number + 1):
        line = line.strip(string.whitespace)
        if not line:
            continue
        match = _TRACE_LINE.fullmatch(line)
        try:
            if match is None:
                raise ValueError(f"not of the form {_TRACE_LINE.pattern}")
            seq, kind, i, j, phase = match.groups()
            try:
                seq, i, j = int(seq), position(i), position(j)
            except ValueError:  # past Python's limit on the digits int() reads
                raise ValueError(f"more than {sys.get_int_max_str_digits()} digits") from None
            if seq <= last_seq:
                raise ValueError(f"seq does not rise above {last_seq}")
        except ValueError as err:
            raise ValueError(f"trace line {number}: {err}: {_shown(line)}") from None
        last_seq = seq
        yield tuple.__new__(TraceEvent, (seq, _TRACE_WORDS[kind], i, j, _TRACE_WORDS[phase]))
    return last_seq


def _read_block(block: str, last_seq: int, position: Callable[[str], int]) -> Optional[list[TraceEvent]]:
    # The events of a block of whole lines, parsed by one regex pass, when every line is exactly
    # of the grammar and the seqs rise above last_seq; else None, for _read_trace to read or refuse
    # line by line.  The split puts each match's groups between the texts that no match took, so
    # when those are all empty, the matches, one line each, cover the whole block.
    parts = _TRACE_LINES.split(block)
    step = _TRACE_LINES.groups + 1
    if any(parts[::step]):
        return None
    seq, kind, i, j, phase = (parts[group::step] for group in range(1, step))
    try:
        seq, i, j = list(map(int, seq)), list(map(position, i)), list(map(position, j))
    except ValueError:  # past Python's limit on the digits int() reads
        return None
    if not all(map(lt, chain((last_seq,), seq), seq)):
        return None
    word = _TRACE_WORDS.__getitem__
    return list(map(tuple.__new__, repeat(TraceEvent), zip(seq, map(word, kind), i, j, map(word, phase))))


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Stream the events of a trace that ``sort --trace`` wrote.

    Each line that is not blank (only ASCII whitespace) must be one event
    in the writer's grammar, with its spacing and key order: ``seq`` from
    0 and rising (gaps allowed), ``i`` and ``j`` from 1, a kind and phase
    that sorters emit.  The file is opened at the first ``next`` and read
    ahead one block of whole lines (about 16 k characters) at a time,
    whose events are then yielded one by one.  Refusals stay lazy
    and per line: a bad line raises ``ValueError``, naming its 1-based
    number, only when the reader reaches it, after every event before it
    has been yielded.
    """
    # Bytes that are not UTF-8 read as U+FFFD, which the grammar refuses with its line.
    # Lines end at "\n" alone; the strip takes a "\r" before it, and the grammar refuses one inside.
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
        number, last_seq = 0, -1
        position = _Positions().__getitem__  # one int object per distinct position, for this reader
        while block := fh.read(_BLOCK) + fh.readline():
            events = _read_block(block, last_seq, position)
            if events is None:  # split at "\n" alone: str.splitlines also splits at "\r", "\x1c", "\x85"
                last_seq = yield from _read_trace(block.split("\n"), number, last_seq, position)
                number += block.count("\n")
            else:
                last_seq, number = events[-1].seq, number + len(events)
                yield from events


def write_trace(path: str, events: Iterable[TraceEvent]) -> None:
    """Write events as JSON lines, one object per event.  Raises ``ValueError``
    on an event whose line :func:`iter_trace` would not read back as that
    event, before writing it; the lines before it stay written."""
    last_seq = -1
    with open(path, "w", encoding="utf-8") as fh:
        for number, event in enumerate(events, 1):
            line = []  # the event's line as sort --trace writes it
            _write_trace_line(line.append, event)
            read = next(_read_trace(line, number - 1, last_seq, int))
            if read != event:
                raise ValueError(f"trace line {number}: {_shown(event)} would read back as {_shown(read)}")
            fh.write(line[0])
            last_seq = read.seq


def load_trace(path: str) -> list[TraceEvent]:
    """Read a whole trace into a list: ``list(iter_trace(path))``, refusing
    what :func:`iter_trace` refuses.  Events share their kind and phase
    strings and one int per distinct position, so a loaded event costs about
    121 bytes.

    CPython's cyclic collector is paused while the list is built, and
    ``gc.isenabled()`` restored on every exit, a refusal included: every
    event is a tuple subclass, which the collector keeps tracked and would
    traverse again and again as the list grows, though the reader makes no
    reference cycles.  Other threads run without it meanwhile.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(iter_trace(path))
    finally:
        if enabled:
            gc.enable()
