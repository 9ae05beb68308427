"""End-to-end tests for the command-line interface.

Everything goes through cli.main() so the exit-code contract is tested
exactly as a shell would see it: 0 success, 1 failed verification,
2 usage or input errors.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import asdict
from itertools import permutations, product
from pathlib import Path
from typing import Iterable, Optional
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import faults
import reference
import sortlab.cli as cli
from sortlab import replay_trace
from sortlab.cli import (
    BENCH_COLUMNS,
    build_parser,
    collect_bench_records,
    iter_trace,
    load_trace,
    main,
    parse_int_values,
    summarize_bench,
    write_bench_csv,
    write_trace,
)
from sortlab.oracle import EXHAUSTIVE_CAP
from sortlab.sortcore import (
    KIND_COMPARE,
    KIND_SWAP,
    PHASE_INSERTION,
    PHASE_NA,
    PHASE_SELECTION,
    TraceEvent,
)

CSV_HEADER = "algorithm,n,rep,seed,comparisons,swaps,wall_ns"


def follows_the_refusal_rule(err: str) -> bool:
    # What every exit-2 refusal prints: under 500 characters, and no character on a line that is
    # not printable.  Only "\n" ends a line here; str.splitlines would also end one at "\x1c".
    return len(err) < 500 and all(line.isprintable() for line in err.split("\n"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    if rc == 2:
        assert follows_the_refusal_rule(captured.err), captured.err
    return rc, captured.out, captured.err


# ----------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1,2,3", [1, 2, 3]),
        ("1, 2 , 3", [1, 2, 3]),
        ("1\n2\n3\n", [1, 2, 3]),
        ("", []),
        ("   ", []),
        (" 4 ", [4]),
        ("-7,0,7", [-7, 0, 7]),
    ],
)
def test_parse_int_values(text, expected):
    assert parse_int_values(text) == expected


@pytest.mark.parametrize(
    "text", ["1_0,2", "\uff13,\u0661", "2,\u00b2", "1 0_0", "+-1", "0x10", "1.0", "5,\x1f3", "5\u30003", "\x854", "1,two,3"]
)
def test_parse_int_values_takes_only_ascii_decimal_integers(text):
    with pytest.raises(ValueError, match="not a decimal integer"):
        parse_int_values(text)


# Integer lists and near misses: tokens that are integers or nearly, parted by separators ASCII or not;
# and text of signs, separators, ASCII whitespace and characters that look like it or like digits.
INT_TOKENS = st.one_of(
    st.integers().map(str),
    st.sampled_from(("1_0", "+-1", "+", "", "0x10", "1.0", "\u0663", "\uff13", "\x1c3", "3\x85", "\u30003")),
)
INT_TEXT = st.one_of(
    st.tuples(st.sampled_from((",", ", ", " ,", "\n", " \t", "\x1c", "\u3000")), st.lists(INT_TOKENS, max_size=6)).map(
        lambda parts: parts[0].join(parts[1])
    ),
    st.text(st.sampled_from("0123456789+-,_ \t\n\r\x0b\x0c\x1c\x85\u3000\u0663\uff13x."), max_size=30),
    st.text(max_size=30),
)


@given(INT_TEXT)
def test_parse_int_values_reads_what_the_reference_grammar_reads(text):
    expected = reference.read_int_values(text)
    try:
        assert parse_int_values(text) == expected
    except ValueError:
        assert expected is None


def test_signed_seeds_are_still_read(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "3", "--reps", "1", "--seed", "-5", "--format", "json")
    assert rc == 0
    assert json.loads(out)["records"][0]["seed"] == -5
    rc, out, _ = run(capsys, "verify", "--checks", "instability", "--samples", "1", "--seed", "+7")
    assert rc == 0
    assert json.loads(out)["random_suite"]["seed"] == 7


# -------------------------------------------------------------- sort


def test_sort_inline(capsys):
    rc, out, _ = run(capsys, "sort", "--algo", "icbics", "--input", "2,3,1")
    assert rc == 0
    assert json.loads(out) == {
        "algorithm": "icbics",
        "n": 3,
        "comparisons": 9,
        "swaps": 4,
        "output": [1, 2, 3],
        "sorted": True,
    }


def test_sort_reports_moves_for_insertion(capsys):
    rc, out, _ = run(capsys, "sort", "--algo", "std-insertion", "--input", "2,3,1")
    payload = json.loads(out)
    assert rc == 0
    assert payload["moves"] == 2
    assert "swaps" not in payload


def test_sort_exchange_comparison_count(capsys):
    rc, out, _ = run(capsys, "sort", "--algo", "exchange", "--input", "3,2,1")
    assert rc == 0
    assert json.loads(out)["comparisons"] == 3


def test_sort_descending_flag(capsys):
    rc, out, _ = run(capsys, "sort", "--algo", "icbics-desc-ineq", "--input", "2,1,3")
    payload = json.loads(out)
    assert rc == 0
    assert payload["output"] == [3, 2, 1]
    assert payload["sorted"] is True


def test_sort_empty_input(capsys):
    rc, out, _ = run(capsys, "sort", "--input", "")
    payload = json.loads(out)
    assert rc == 0
    assert payload["n"] == 0
    assert payload["output"] == []


def test_sort_file_input_line_format(tmp_path, capsys):
    source = tmp_path / "values.txt"
    source.write_text("5\n1\n4\n2\n3\n")
    rc, out, _ = run(capsys, "sort", "--input", str(source))
    assert rc == 0
    assert json.loads(out)["output"] == [1, 2, 3, 4, 5]


def test_sort_file_input_comma_format(tmp_path, capsys):
    source = tmp_path / "values.txt"
    source.write_text("5,1,4,2,3\n")
    rc, out, _ = run(capsys, "sort", "--input", str(source))
    assert rc == 0
    assert json.loads(out)["output"] == [1, 2, 3, 4, 5]


def long_x(prefix: str, length: int, fill: str = "x") -> str:
    # A message that echoes many "x", or ``fill``, cut at 200 characters, then the whole message's length.
    return prefix + fill * (200 - len(prefix)) + f"... ({length} characters)"


def neither(shown: str, token: str) -> str:
    return f"cannot read input: not a decimal integer: {token}, and no file is named {shown}"


# An --input that names no file and does not parse: its first bad token, then the argument, as
# reprs, the whole message cut at 200 characters.  Only ASCII whitespace pads or parts values: "\x1f"
# is whitespace to str.split, not to sort.  One that both parses and names a file is refused too,
# its hint escaped.
@pytest.mark.parametrize(
    "argument, reason",
    [
        pytest.param("1_0,2", neither("'1_0,2'", "'1_0'"), id="underscore"),
        pytest.param("\uff13,\u0661", neither("'\uff13,\u0661'", "'\uff13'"), id="non-ascii-digits"),
        pytest.param("5,\x1f3", neither(r"'5,\x1f3'", r"'\x1f3'"), id="non-ascii-space"),
        pytest.param("5\x1f3", neither(r"'5\x1f3'", r"'5\x1f3'"), id="non-ascii-separator"),
        pytest.param("1,x,3", neither("'1,x,3'", "'x'"), id="bad-inline-value"),
        pytest.param("no/such/file.txt", neither("'no/such/file.txt'", "'no/such/file.txt'"), id="missing-file"),
        pytest.param(
            "x" * 300, long_x("cannot read input: not a decimal integer: '", 587), id="echo-cut-at-200-characters"
        ),
        pytest.param(
            "1" * 5000,
            long_x(f"cannot read input: more than {sys.get_int_max_str_digits()} digits: '", 5288, fill="1"),
            id="past-the-limit-on-digits",
        ),
        pytest.param(
            "1\t2",
            r"cannot read input: both inline values and a file name; write './1\t2' to read the file",
            id="values-and-a-file-name-with-a-tab",
        ),
    ],
)
def test_sort_refuses_input_that_is_neither_a_file_nor_integers(capsys, monkeypatch, tmp_path, argument, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1\t2").write_text("3\n")
    rc, out, err = run(capsys, "sort", "--input", argument)
    assert (rc, out) == (2, "")
    assert err == f"sortlab sort: {reason}\n"
    assert len(err) < 500


def test_sort_names_an_input_file_that_does_not_parse(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for contents, error in [
        (b"3\n1\nx", "not a decimal integer: 'x'"),
        (b"3,1,,2", "not a decimal integer: ''"),
        (b"3\n\xff\n", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    ]:
        (tmp_path / "bad.txt").write_bytes(contents)
        rc, out, err = run(capsys, "sort", "--input", "bad.txt")
        assert (rc, out) == (2, "")
        assert err == f"sortlab sort: cannot read input: {error}, in file 'bad.txt'\n"


def test_load_trace_shares_one_int_per_position(tmp_path, capsys):
    # At n = 300 most positions lie past 256, beyond CPython's cache of small ints.
    trace_path = tmp_path / "trace.jsonl"
    values = ",".join(map(str, range(300, 0, -1)))
    assert run(capsys, "sort", "--input", values, "--trace", str(trace_path))[0] == 0
    shared = {}
    for event in load_trace(str(trace_path)):
        assert shared.setdefault(event.i, event.i) is event.i
        assert shared.setdefault(event.j, event.j) is event.j
    assert sorted(shared) == list(range(1, 301))


def test_load_trace_reads_crlf_line_ends(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert run(capsys, "sort", "--input", "4,1,3,2", "--trace", str(trace_path))[0] == 0
    events = load_trace(str(trace_path))
    crlf_path = tmp_path / "crlf.jsonl"
    crlf_path.write_bytes(trace_path.read_bytes().replace(b"\n", b"\r\n"))
    assert crlf_path.read_bytes().count(b"\r\n") == len(events) > 0
    assert load_trace(str(crlf_path)) == events


def test_replay_trace_takes_a_generator_over_the_loaded_events(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    values = [4, 7, 1, 6, 3, 5, 2, 9, 8]
    rc, out, _ = run(capsys, "sort", "--input", ",".join(map(str, values)), "--trace", str(trace_path))
    assert rc == 0
    events = load_trace(str(trace_path))
    replayed = replay_trace(values, (event for event in events))
    assert replayed == replay_trace(values, events) == json.loads(out)["output"]


@pytest.mark.parametrize(
    "line",
    [
        '{"seq": 0, "kind": "shift", "i": 1, "j": 2, "phase": "not_applicable"}',
        '{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "merge"}',
    ],
)
def test_load_trace_rejects_unknown_kind_or_phase(tmp_path, line):
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(line + "\n")
    # The refusal names the kinds and phases that sorters emit.
    accepted = re.escape('"kind": "(compare|swap)"') + ".*" + re.escape('"phase": "(selection|insertion|not_applicable)"')
    with pytest.raises(ValueError, match=accepted):
        load_trace(str(trace_path))


# Traces whose last line, and only that line, the reader refuses.
MALFORMED_TRACES = [
    '{"seq": 0, "kind": ["swap"], "i": 1, "j": 2, "phase": "selection"}',
    '{"seq": "x", "kind": "swap", "i": "1", "j": 2, "phase": "selection"}',
    '{"seq": 0, "kind": "swap", "i": 1, "j": 2.0, "phase": "selection"}',
    '{"seq": 0, "kind": "swap", "i": true, "j": 2, "phase": "selection"}',
    '{"kind": "swap", "i": 1, "j": 2, "phase": "selection"}',
    '{"seq": 0, "kind": "swap", "i": 1, "j": 2}',
    '{"seq": -1, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}',
    '{"seq": 1, "kind": "compare", "i": 1, "j": 2, "phase": "selection"}\n'
    '{"seq": 1, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}',
    "[0, 1, 2]",
    '{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"} '
    '{"seq": 1, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}',
    '{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}x',
    "seq 0 swap 1 2 selection",
    '{"seq": 0, "kind": "compare", "i": 1, "j": 2, "phase": "selection"}\n'
    '{"seq": 1, "kind": "swap", "i": 1, "j": 2}',
    # Nested deeper than the decoder's recursion limit.
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    # An integer longer than Python's default 4,300-digit limit for int().
    pytest.param(
        '{"seq": ' + "1" * 5000 + ', "kind": "swap", "i": 1, "j": 2, "phase": "selection"}', id="int-too-long"
    ),
    pytest.param(
        '{"seq": 0, "kind": "swap", "i": ' + "1" * 5000 + ', "j": 2, "phase": "selection"}', id="i-too-long"
    ),
    pytest.param(
        '{"seq": 0, "kind": "swap", "i": 1, "j": ' + "2" * 5000 + ', "phase": "selection"}', id="j-too-long"
    ),
    # Bytes that are not UTF-8, in a kind and in an extra key.
    pytest.param(
        b'{"seq": 0, "kind": "compare", "i": 1, "j": 2, "phase": "selection"}\n'
        b'{"seq": 1, "kind": "sw\xffap", "i": 1, "j": 2, "phase": "selection"}',
        id="not-utf8-kind",
    ),
    pytest.param(
        b'{"seq": 0, "kind": "compare", "i": 1, "j": 2, "phase": "selection", "note": "\xff"}',
        id="not-utf8-ignored-key",
    ),
    # Lines no sorter writes, though a JSON decoder would read them as an event.
    pytest.param('{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection", "i": 7}', id="repeated-key"),
    pytest.param(
        '{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection", "kind2": "merge"}', id="extra-key"
    ),
    pytest.param('{"seq":0,"kind":"swap","i":1,"j":2,"phase":"selection"}', id="compact-separators"),
    pytest.param('{"kind": "swap", "seq": 0, "i": 1, "j": 2, "phase": "selection"}', id="reordered-keys"),
    pytest.param('{"seq": 0, "kind": "swap", "i": 0, "j": 2, "phase": "selection"}', id="position-zero"),
    pytest.param('{"seq": 0, "kind": "swap", "i": 1, "j": -5, "phase": "selection"}', id="negative-position"),
    pytest.param("x" * 1_000_000, id="long-garbage"),
    # Characters that str.strip takes for whitespace but ASCII does not.
    pytest.param('\x1c{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}\x1c', id="wrapped-in-fs"),
    pytest.param(
        '\u3000{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}\u3000',
        id="wrapped-in-ideographic-space",
    ),
    pytest.param('\x85{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}\x85', id="wrapped-in-nel"),
    pytest.param('{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}\n\x1d', id="gs-only-line"),
    # A lone "\r" ends no line.
    pytest.param(
        '{"seq": 0, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}\r'
        '{"seq": 1, "kind": "swap", "i": 1, "j": 2, "phase": "selection"}',
        id="events-joined-by-cr",
    ),
]


@pytest.mark.parametrize("text", MALFORMED_TRACES)
def test_load_trace_rejects_malformed_events(tmp_path, text):
    trace_path = tmp_path / "trace.jsonl"
    newline = b"\n" if isinstance(text, bytes) else "\n"
    if isinstance(text, bytes):
        trace_path.write_bytes(text + newline)
    else:
        trace_path.write_text(text + newline, encoding="utf-8")
    with pytest.raises(ValueError) as refused:
        load_trace(str(trace_path))
    # The bad line is the last one, and the message names it and echoes at most a short part of it, escaped.
    # Lines end at "\n" alone, as load_trace reads them; str.splitlines would also end one at "\x1c".
    assert str(refused.value).startswith(f"trace line {text.count(newline) + 1}: ")
    assert len(str(refused.value)) < 1024
    assert str(refused.value).isprintable()
    # Between that head and the cut echo of the line stands one of the reader's own reasons, never Python's.
    bad_line = trace_path.read_bytes().decode("utf-8", "replace").split("\n")[-2].strip(reference.ASCII_WHITESPACE)
    head, echo = f"trace line {text.count(newline) + 1}: ", f": {cli._shown(bad_line)}"
    assert str(refused.value).endswith(echo)
    reason = str(refused.value)[len(head) : -len(echo)]
    assert re.fullmatch(r"not of the form .+|seq does not rise above [0-9]+|more than [0-9]+ digits", reason)
    # iter_trace first yields the event of each line before the bad one, then refuses it alike.
    streamed = []
    with pytest.raises(ValueError) as streaming:
        for event in iter_trace(str(trace_path)):
            streamed.append(event)
    assert str(streaming.value) == str(refused.value)
    data = trace_path.read_bytes()
    head_path = tmp_path / "head.jsonl"
    head_path.write_bytes(data[: data.rfind(b"\n", 0, -1) + 1])
    assert streamed == load_trace(str(head_path))
    assert len(streamed) == text.count(newline)


# Block sizes that end a block inside a line, at its end, and past several lines.
BLOCK_SIZES = (1, 7, 64, 300, 65_536)


def drain(events: Iterable[TraceEvent]) -> tuple[list[TraceEvent], Optional[str]]:
    # The events a reader yields, and the message of the ValueError that ends it (None if none).
    read = []
    try:
        for event in events:
            read.append(event)
    except ValueError as err:
        return read, str(err)
    return read, None


def read_by_lines(path: Path) -> tuple[list[TraceEvent], Optional[str]]:
    # The whole file through the line-at-a-time reader that iter_trace hands any other block to.
    with open(path, encoding="utf-8", errors="replace", newline="\n") as fh:
        return drain(cli._read_trace(fh, 0, -1, int))


def read_by_blocks(path: Path, block: int) -> tuple[list[TraceEvent], Optional[str]]:
    with mock.patch.object(cli, "_BLOCK", block):
        return drain(iter_trace(str(path)))


def written_lines(events: Iterable[TraceEvent]) -> list[str]:
    lines = []
    for event in events:
        cli._write_trace_line(lines.append, event)
    return lines


@pytest.mark.parametrize("text", MALFORMED_TRACES)
def test_iter_trace_refuses_a_malformed_row_blocks_in_as_the_line_reader_does(tmp_path, text):
    # The row follows 40 events, its seqs raised past theirs, so that at small block sizes it falls many
    # blocks in.  At every block size iter_trace yields what the line reader yields, then raises its message.
    head = written_lines(TraceEvent(seq, KIND_COMPARE, 1, 2, PHASE_SELECTION) for seq in range(40))
    row = (text if isinstance(text, bytes) else text.encode("utf-8")).replace(b'"seq": ', b'"seq": 4')
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_bytes("".join(head).encode() + row + b"\n")
    events, message = read_by_lines(trace_path)
    assert len(events) == 40 + row.count(b"\n")
    assert message.startswith(f"trace line {len(events) + 1}: ")
    for block in BLOCK_SIZES:
        assert read_by_blocks(trace_path, block) == (events, message)


def test_load_trace_leaves_the_collector_as_it_found_it(tmp_path):
    good_path, bad_path = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_trace(str(good_path), [GOOD_EVENT])
    bad_path.write_text("x\n")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert load_trace(str(good_path)) == [GOOD_EVENT]
            assert gc.isenabled() is enabled
            for refused in (bad_path, tmp_path / "absent.jsonl"):
                with pytest.raises((ValueError, OSError)):
                    load_trace(str(refused))
                assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_replaying_a_streamed_trace_holds_no_list_of_events(tmp_path, capsys):
    # At n = 300 an icbics trace has about 113 k events, about 13 MB as a list.
    trace_path = tmp_path / "trace.jsonl"
    values = list(range(1, 301))
    random.Random(0).shuffle(values)
    assert run(capsys, "sort", "--input", ",".join(map(str, values)), "--trace", str(trace_path))[0] == 0
    tracemalloc.start()
    try:
        replayed = replay_trace(values, iter_trace(str(trace_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert replayed == sorted(values)
    assert peak < 2_000_000


def test_sort_refuses_an_input_that_is_both_values_and_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "5").write_text("9\n8\n")
    rc, out, err = run(capsys, "sort", "--input", "5")
    assert rc == 2
    assert out == ""
    assert "./5" in err
    rc, out, _ = run(capsys, "sort", "--input", "./5")
    assert rc == 0
    assert json.loads(out)["output"] == [8, 9]


def test_sort_input_led_by_a_minus_sign_needs_the_equals_form(capsys):
    # argparse takes "-3,2" for an option, since it is not one negative number.
    rc, out, err = run(capsys, "sort", "--input", "-3,2")
    assert rc == 2
    assert out == ""
    assert "--input: expected one argument" in err
    rc, out, _ = run(capsys, "sort", "--input=-3,2")
    assert rc == 0
    assert json.loads(out)["output"] == [-3, 2]


def test_sort_flags_an_output_that_lost_an_element(capsys, monkeypatch):
    # Pairwise order alone would call [1, 3] sorted.
    info = cli.ALGORITHMS["icbics"]

    def lossy(values, observer=None):
        report = info.func(values, observer)
        return dataclasses.replace(report, output=report.output[:1] + report.output[2:])

    monkeypatch.setitem(cli.ALGORITHMS, "icbics", dataclasses.replace(info, func=lossy))
    rc, out, _ = run(capsys, "sort", "--input", "3,2,1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["output"] == [1, 3]
    assert payload["sorted"] is False


def test_sort_takes_inline_values_too_long_for_a_file_name(capsys):
    # 200 values make 692 characters, past any file system's name limit.
    values = list(range(200, 0, -1))
    rc, out, _ = run(capsys, "sort", "--algo", "std-insertion", "--input", ",".join(map(str, values)))
    assert rc == 0
    assert json.loads(out)["output"] == sorted(values)


def test_sort_unwritable_trace_never_runs_the_sorter(capsys, monkeypatch, tmp_path):
    calls = faults.count_runs(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for target in (str(tmp_path / "absent" / "trace.jsonl"), "", "x" * 3000):
        rc, out, err = run(capsys, "sort", "--input", "2,1", "--trace", target)
        assert (rc, out, calls) == (2, "", [])
        assert "cannot write trace" in err
    # The OSError's own echo of a name past any file system's limit is cut like any refusal.
    assert err == "sortlab sort: " + long_x("cannot write trace: [Errno 36] File name too long: '", 3053) + "\n"


def test_sort_refuses_a_trace_path_naming_the_input_file(capsys, monkeypatch, tmp_path):
    calls = faults.count_runs(monkeypatch)
    source = tmp_path / "in.txt"
    source.write_text("3\n1\n2\n")
    (tmp_path / "link.txt").symlink_to(source)
    monkeypatch.chdir(tmp_path)
    for given, trace in [("in.txt", "in.txt"), ("in.txt", "./in.txt"), ("in.txt", "link.txt"), ("link.txt", "in.txt")]:
        rc, out, err = run(capsys, "sort", "--input", given, "--trace", trace)
        assert (rc, out, calls) == (2, "", [])
        assert f"cannot write trace over the input file: {trace!r}" in err
        assert source.read_text() == "3\n1\n2\n"
    rc, out, _ = run(capsys, "sort", "--input", "in.txt", "--trace", "trace.jsonl")
    assert rc == 0
    assert json.loads(out)["output"] == [1, 2, 3]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_sort_trace_write_failing_mid_sort_is_usage_error(capsys, tmp_path):
    # 100 values make 10,000 compare events, many times one write buffer,
    # so the write fails while the sorter is still running.
    source = tmp_path / "values.txt"
    source.write_text("\n".join(str(v) for v in range(100, 0, -1)) + "\n")
    rc, out, err = run(capsys, "sort", "--input", str(source), "--trace", "/dev/full")
    assert (rc, out) == (2, "")
    assert "cannot write trace" in err


TRACE_INPUTS = ([4, 7, 1, 6, 3, 5, 2], [3, 1, 3, 2, 1, 3, 2])


@pytest.mark.parametrize("values", TRACE_INPUTS, ids=("permutation", "duplicates"))
@pytest.mark.parametrize("algo", list(cli.ALGORITHMS))
def test_sort_trace_file_is_the_json_dumps_of_each_event(tmp_path, capsys, algo, values):
    events = []
    cli.ALGORITHMS[algo].func(values, events.append)
    keys = ("seq", "kind", "i", "j", "phase")
    expected = "".join(json.dumps(dict(zip(keys, event))) + "\n" for event in events).encode()

    streamed = tmp_path / "streamed.jsonl"
    rc, _, _ = run(capsys, "sort", "--algo", algo, "--input", ",".join(map(str, values)), "--trace", str(streamed))
    assert rc == 0
    assert streamed.read_bytes() == expected
    written = tmp_path / "written.jsonl"
    write_trace(str(written), events)
    assert written.read_bytes() == expected
    assert load_trace(str(streamed)) == events


@pytest.mark.parametrize("algo", list(cli.ALGORITHMS))
def test_every_event_is_a_trace_event(tmp_path, algo):
    # A plain tuple equals the TraceEvent with the same fields, so the
    # equality checks elsewhere would not notice one.
    trace_path = tmp_path / "trace.jsonl"
    for n in range(5):
        for values in product((1, 2, 3), repeat=n):
            events = []
            cli.ALGORITHMS[algo].func(values, events.append)
            write_trace(str(trace_path), events)
            for event in events + load_trace(str(trace_path)):
                assert type(event) is TraceEvent
                assert event == TraceEvent(*event)
                assert (event.seq, event.kind, event.i, event.j, event.phase) == tuple(event)


GOOD_EVENT = TraceEvent(0, KIND_COMPARE, 1, 2, PHASE_SELECTION)


@pytest.mark.parametrize(
    "bad",
    [
        TraceEvent(1, "shift", 1, 2, PHASE_NA),
        TraceEvent(1, KIND_SWAP, 1, 2, "merge"),
        TraceEvent(1, ["swap"], 1, 2, PHASE_SELECTION),
        TraceEvent(1, KIND_SWAP, 1, 2, None),
        TraceEvent("1", KIND_SWAP, 1, 2, PHASE_SELECTION),
        TraceEvent(1, KIND_SWAP, "1", 2, PHASE_SELECTION),
        TraceEvent(1, KIND_SWAP, 1, 2.0, PHASE_SELECTION),
        TraceEvent(1, KIND_SWAP, True, 2, PHASE_SELECTION),
        TraceEvent(0, KIND_SWAP, 1, 2, PHASE_SELECTION),
        TraceEvent(-1, KIND_SWAP, 1, 2, PHASE_SELECTION),
        TraceEvent(1, KIND_SWAP, 0, 2, PHASE_NA),
        TraceEvent(1, KIND_SWAP, 1, -2, PHASE_NA),
    ],
)
def test_write_trace_refuses_what_load_trace_refuses(tmp_path, bad):
    trace_path = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError):
        write_trace(str(trace_path), [GOOD_EVENT, bad])
    # The refused event was never written; the one before it was.
    assert load_trace(str(trace_path)) == [GOOD_EVENT]


def test_write_trace_refuses_a_negative_first_seq(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    with pytest.raises(ValueError):
        write_trace(str(trace_path), [TraceEvent(-1, KIND_SWAP, 1, 2, PHASE_NA)])
    assert trace_path.read_text() == ""


@st.composite
def trace_events(draw, max_size=20):
    # seq rises from any start >= 0, with gaps; positions are any integers >= 1.
    seqs = sorted(draw(st.sets(st.integers(min_value=0), max_size=max_size)))
    kinds = st.sampled_from((KIND_COMPARE, KIND_SWAP))
    phases = st.sampled_from((PHASE_SELECTION, PHASE_INSERTION, PHASE_NA))
    positions = st.integers(min_value=1)
    return [TraceEvent(seq, draw(kinds), draw(positions), draw(positions), draw(phases)) for seq in seqs]


@given(events=trace_events())
def test_load_trace_reads_back_every_event_write_trace_accepts(tmp_path_factory, events):
    trace_path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    write_trace(str(trace_path), events)
    loaded = load_trace(str(trace_path))
    assert loaded == events
    for event in loaded:
        assert type(event) is TraceEvent
        assert event.kind is KIND_COMPARE or event.kind is KIND_SWAP
        assert event.phase is PHASE_SELECTION or event.phase is PHASE_INSERTION or event.phase is PHASE_NA


# Spellings of a value that the writer never writes, or writes only for another key.
WRONG_NUMBERS = st.sampled_from(("0", "-1", "01", "-0", "+1", "1.0", "1e3", "true", "null", '"1"', "1_0", "\u0663"))
WRONG_WORDS = st.sampled_from(
    ('"swap"', '"selection"', '"Swap"', '"merge"', '""', "swap", '["swap"]', '"\\u0073wap"', "1")
)


@st.composite
def trace_lines(draw):
    # A line as the writer writes it, padded by ASCII whitespace; or one with a single flaw: a value,
    # the keys, the spacing or the padding.
    parts = {
        "seq": str(draw(st.integers(0, 3) | st.integers(0, 10**20))),
        "kind": json.dumps(draw(st.sampled_from((KIND_COMPARE, KIND_SWAP)))),
        "i": str(draw(st.integers(1, 10**20))),
        "j": str(draw(st.integers(1, 10**20))),
        "phase": json.dumps(draw(st.sampled_from((PHASE_SELECTION, PHASE_INSERTION, PHASE_NA)))),
    }
    keys, comma, colon, pad = list(parts), ", ", ": ", " \t\r\x0b\x0c"
    flaw = draw(st.sampled_from((None, None, "value", "value", "keys", "spacing", "padding")))
    if flaw == "value":
        key = draw(st.sampled_from(keys))
        parts[key] = draw(WRONG_WORDS if key in ("kind", "phase") else WRONG_NUMBERS)
    elif flaw == "keys":
        parts["note"] = '"x"'
        keys = draw(st.permutations(keys + draw(st.sampled_from((["i"], ["note"], [])))))
    elif flaw == "spacing":
        comma, colon = draw(st.sampled_from(((",", ":"), (", ", ":"), (" ,", ": "), (",  ", ": "))))
    elif flaw == "padding":
        pad = "\x1c\x85\u3000\u2028"
    body = comma.join(f'"{key}"{colon}{parts[key]}' for key in keys)
    padding = st.text(st.sampled_from(pad), max_size=2)
    return draw(padding) + "{" + body + "}" + draw(padding)


@given(st.lists(trace_lines() | st.text(max_size=80).map(lambda text: text.replace("\n", "")), max_size=6))
def test_iter_trace_reads_a_line_iff_the_reference_grammar_does(tmp_path_factory, lines):
    trace_path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    trace_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    expected, refused = reference.read_trace(lines)
    read = []
    try:
        for event in iter_trace(str(trace_path)):
            read.append(event)
    except ValueError as err:
        assert str(err).startswith(f"trace line {refused}: ")
        assert str(err).isprintable()
    else:
        assert refused is None
    assert read == expected
    # Each event read writes back as the very line it came from, padding aside.
    stripped = [line.strip(reference.ASCII_WHITESPACE) for line in lines]
    written = []
    for event in read:
        cli._write_trace_line(written.append, event)
    assert written == [line + "\n" for line in stripped if line][: len(read)]


@st.composite
def long_traces(draw):
    # The lines of up to 60 events as the writer writes them, with up to three other lines put in
    # anywhere: a line of trace_lines(), any text, or ASCII whitespace alone.
    lines = [line[:-1] for line in written_lines(draw(trace_events(max_size=60)))]
    others = trace_lines() | st.text(max_size=80).map(lambda text: text.replace("\n", "")) | st.text(" \t\r")
    for index, line in draw(st.lists(st.tuples(st.integers(0, len(lines)), others), max_size=3)):
        lines.insert(index, line)
    return lines


@given(long_traces(), st.booleans())
def test_iter_trace_reads_block_by_block_what_the_reference_grammar_reads(tmp_path_factory, lines, last_newline):
    trace_path = tmp_path_factory.getbasetemp() / "long.jsonl"
    trace_path.write_text("\n".join(lines) + "\n" * last_newline, encoding="utf-8")
    expected, refused = reference.read_trace(lines)
    events, message = read_by_lines(trace_path)
    assert events == expected
    assert message is None if refused is None else message.startswith(f"trace line {refused}: ")
    for block in BLOCK_SIZES:
        read = read_by_blocks(trace_path, block)
        assert read == (events, message)
        # One string per kind and phase, and one int per position, for the whole reader.
        shared = {}
        for event in read[0]:
            assert event.kind is cli._TRACE_WORDS[event.kind] and event.phase is cli._TRACE_WORDS[event.phase]
            assert shared.setdefault(event.i, event.i) is event.i
            assert shared.setdefault(event.j, event.j) is event.j


def test_iter_trace_reads_a_last_line_that_has_no_newline(tmp_path):
    events = [TraceEvent(seq, KIND_COMPARE, 1, 2, PHASE_SELECTION) for seq in range(40)]
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("".join(written_lines(events))[:-1])
    for block in BLOCK_SIZES:
        assert read_by_blocks(trace_path, block) == (events, None)


GOOD_LINE = '{"seq": 17, "kind": "swap", "i": 1, "j": 2, "phase": "insertion"}'


@pytest.mark.parametrize(
    "number, bad, reason",
    [
        (8, GOOD_LINE.replace("17", "1" * 5000), f"more than {sys.get_int_max_str_digits()} digits"),
        (7, GOOD_LINE.replace("17", "16"), "seq does not rise above 16"),
        (8, GOOD_LINE, "seq does not rise above 17"),
    ],
    ids=["digit-limit", "first-line-repeats-a-seq", "second-line-repeats-a-seq"],
)
def test_iter_trace_refuses_a_line_of_the_third_block_by_its_number_in_the_file(tmp_path, number, bad, reason):
    # Line n holds seq 10 + n, so every line has one length, and a block of two lines' length reads
    # two lines and then on to the end of a third: the third block starts at line 7.
    events = [TraceEvent(10 + n, KIND_SWAP, 1, 2, PHASE_INSERTION) for n in range(1, 21)]
    lines = written_lines(events)
    assert len(set(map(len, lines))) == 1
    lines[number - 1] = bad + "\n"
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("".join(lines))
    assert read_by_blocks(trace_path, 2 * len(lines[0])) == (
        events[: number - 1],
        f"trace line {number}: {reason}: {cli._shown(bad)}",
    )


# -------------------------------------------------------------- glue


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "sort" in out and "verify" in out and "bench" in out


def test_verify_help_gives_the_accepted_n_max_range(capsys):
    assert main(["verify", "--help"]) == 0
    assert f"1..{EXHAUSTIVE_CAP}" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["sortlab", "sortlab.cli"])
def test_python_dash_m_runs_verify(module):
    # A module that only imports exits 0 with no output: a silent pass.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--n-max", "2", "--checks", "pi"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["all_passed"] is True
    assert payload["checks"]["pi"]["passed"] is True


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # The report of 30,000 values is larger than a pipe holds, so the write
    # fails whether or not the pipe is closed before the child reaches it.
    source = tmp_path / "values.txt"
    source.write_text("\n".join(map(str, range(30_000))) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "sortlab", "sort", "--algo", "std-insertion", "--input", str(source)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


# ------------------------------------------------------------- verify


def test_verify_selected_checks(capsys):
    rc, out, _ = run(capsys, "verify", "--checks", "correctness,instability", "--n-max", "4")
    assert rc == 0
    payload = json.loads(out)
    assert list(payload["checks"]) == ["correctness", "instability"]
    assert payload["all_passed"] is True
    assert payload["checks"]["correctness"]["passed"] is True
    assert payload["checks"]["instability"]["details"]["witness"]["violated_pair"] == [0, 1]


def test_verify_all_checks_quickly(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "4")
    assert rc == 0
    payload = json.loads(out)
    assert list(payload["checks"]) == list(cli.CHECK_IDS)
    assert payload["all_passed"] is True
    assert "random_suite" not in payload


def test_verify_with_samples(capsys):
    rc, out, _ = run(capsys, "verify", "--checks", "correctness", "--n-max", "3", "--samples", "10", "--seed", "3")
    assert rc == 0
    payload = json.loads(out)
    suite = payload["random_suite"]
    assert suite == {
        "n": 64,
        "samples": 10,
        "seed": 3,
        "bound_violations": 0,
        "max_swaps": suite["max_swaps"],
        "min_swaps": suite["min_swaps"],
        "passed": True,
    }


VALID_CHECKS = "valid: correctness, pi, lemma1, theorem2, theorem3, theorem4, instability"


@pytest.mark.parametrize(
    "argv, phrase",
    [
        (["verify", "--n-max", "0"], f"must be between 1 and {EXHAUSTIVE_CAP}"),
        (["verify", "--n-max", "x"], "invalid int value"),
        (["verify", "--samples", "-3"], "must be >= 0"),
        (["verify", "--checks", "pi,lemma1,pi"], "named only once"),
        (["bench", "--reps", "0"], "must be >= 1"),
        (["bench", "--reps", "2.5"], "invalid int value"),
        (["bench", "--sizes", "8,-1"], "each >= 0"),
        # Only ASCII decimal integers: no "_" separators, no other scripts' digits.
        (["bench", "--sizes", "1_6"], "expected comma-separated integers"),
        (["bench", "--reps", "\u0662"], "invalid int value"),
        (["bench", "--seed", "1_0"], "invalid int value"),
        (["verify", "--n-max", "0_3"], "invalid int value"),
        (["verify", "--samples", "\u0663"], "invalid int value"),
        (["verify", "--seed", "\uff11"], "invalid int value"),
        # A check list with an empty name, as --input and --sizes refuse an empty value.
        (["verify", "--checks", "pi,,lemma1"], "empty check name"),
        (["verify", "--checks", "pi,"], "empty check name"),
        # Only ASCII whitespace pads a value or parts a list.
        (["verify", "--n-max", "\u30002"], "invalid int value"),
        (["verify", "--samples", "3\x85"], "invalid int value"),
        (["verify", "--checks", "pi,\u3000lemma1"], "unknown checks"),
        (["bench", "--sizes", "8\x1f16"], "expected comma-separated integers"),
        # A missing or unknown subcommand, algorithm or check, and lengths out of range.
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'sort', 'verify', 'bench')"),
        (["sort", "--algo", "quicksort", "--input", "1"], "argument --algo: invalid choice: 'quicksort' (choose from "),
        (["verify", "--checks", "correctness,nonsense"], f"argument --checks: unknown checks ({VALID_CHECKS}): 'nonsense'"),
        (["bench", "--sizes", "16,oops"], "argument --sizes: expected comma-separated integers, got '16,oops'"),
        (["bench", "--sizes", ""], "argument --sizes: must name at least one input length, each >= 0, got ''"),
        # A message that echoes a long value is cut at 200 characters, then its length; so are unknown names, joined.
        (["bench", "--sizes", "x" * 1000], "... (1059 characters)"),
        (["bench", "--sizes", "1" + ",-1" * 333], "... (1072 characters)"),
        (["verify", "--checks", "x" * 1000], "... (1113 characters)"),
        (["verify", "--checks", "pi," * 333 + ","], "... (1041 characters)"),
        (["verify", "--checks", ",".join(["pi"] * 334)], "... (1061 characters)"),
        # argparse's own refusals are cut the same way: a bad choice, a bad integer, an extra argument.
        (["x" * 1000], long_x("argument command: invalid choice: '", 1076)),
        (["sort", "--algo", "x" * 1000, "--input", "1"], long_x("argument --algo: invalid choice: '", 1140)),
        (["bench", "--format", "x" * 1000], long_x("argument --format: invalid choice: '", 1065)),
        (["verify", "--n-max", "x" * 1000], long_x("argument --n-max: invalid int value: '", 1039)),
        (["verify", "--samples", "x" * 1000], long_x("argument --samples: invalid int value: '", 1041)),
        (["verify", "--seed", "x" * 1000], long_x("argument --seed: invalid int value: '", 1038)),
        (["bench", "--reps", "x" * 1000], long_x("argument --reps: invalid int value: '", 1038)),
        (["bench", "--seed", "x" * 1000], long_x("argument --seed: invalid int value: '", 1038)),
        (["verify", "x" * 1000], long_x("unrecognized arguments: ", 1024)),
        # Every refusal escapes what is not printable, as repr does, also where argparse echoes a value bare.
        (["verify", "--checks", "pi,\x1b[31mred\x07"], rf"unknown checks ({VALID_CHECKS}): '\x1b[31mred\x07'"),
        (["bench", "--s=\x1b[2J"], r"ambiguous option: --s=\x1b[2J could match --sizes, --seed"),
        (["verify", "--s=" + "x" * 1000], long_x("ambiguous option: --s=", 1052)),
    ],
)
def test_bad_arguments_get_argparse_usage_errors(capsys, argv, phrase):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("usage: sortlab ")
    assert phrase in err
    assert len(err) < 500


def leaves_out_trace_and_help(token: str) -> bool:
    # --trace writes a file and --help refuses nothing, and so do their abbreviations.
    name = token.split("=")[0]
    abbreviates = len(name) >= 3 and ("--trace".startswith(name) or "--help".startswith(name))
    return not token.startswith("-h") and not abbreviates


# Tokens a shell might pass: the subcommands, every option name and abbreviation argparse takes, alone or
# with "=TEXT", and any text.
OPTIONS = ("--algo", "--input", "--checks", "--n-max", "--samples", "--seed", "--sizes", "--reps", "--format")
NAMES = st.sampled_from(sorted({name[:k] for name in OPTIONS for k in range(3, len(name) + 1)}))
ARGV_TOKENS = st.one_of(
    st.sampled_from(("sort", "verify", "bench")),
    NAMES,
    st.tuples(NAMES, st.text(max_size=1200)).map("=".join),
    st.text(max_size=1200),
).filter(leaves_out_trace_and_help)


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("empty")


@given(st.lists(ARGV_TOKENS, max_size=5))
def test_every_refusal_is_short_and_printable(empty_dir, argv):
    # sort runs whole, where no file can be named by chance; verify and bench are only parsed, as they run long.
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(empty_dir)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv) if build_parser().parse_args(argv).command == "sort" else 0
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    if code == 2:
        assert follows_the_refusal_rule(err.getvalue()), err.getvalue()


@pytest.mark.parametrize("n_max", ["0", "9", "-2"])
def test_verify_n_max_out_of_range(capsys, n_max):
    rc, out, err = run(capsys, "verify", "--n-max", n_max)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: sortlab ")
    assert f"argument --n-max: must be between 1 and {EXHAUSTIVE_CAP}, got {n_max}\n" in err


def test_verify_negative_samples(capsys):
    rc, out, err = run(capsys, "verify", "--samples", "-3")
    assert (rc, out) == (2, "")
    assert err.startswith("usage: sortlab ")
    assert "argument --samples: must be >= 0" in err


@pytest.mark.parametrize("n_max", ["1", "2"])
def test_verify_small_n_max_still_finds_the_instability_witness(capsys, n_max):
    rc, out, _ = run(capsys, "verify", "--n-max", n_max)
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["checks"]["instability"]["details"]["searched_up_to"] == 3


def test_verify_pi_at_n_max_one_is_trivially_green(capsys):
    rc, out, _ = run(capsys, "verify", "--checks", "pi", "--n-max", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["checks"]["pi"]["details"]["inputs_examined"] == 1


def test_verify_failing_check_exits_one(capsys, monkeypatch):
    def forced_failure(values, claims, compares):
        return {claim: {"input": list(values), "reason": "forced"} for claim in claims}

    monkeypatch.setattr(cli, "_check_replay", forced_failure)
    rc, out, _ = run(capsys, "verify", "--checks", "pi", "--n-max", "2")
    assert rc == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["checks"]["pi"]["passed"] is False
    assert payload["checks"]["pi"]["counterexample"] == {"input": [1], "reason": "forced"}


def test_verify_output_matches_golden_file(capsys):
    # Written, from the repository root, by
    #   PYTHONPATH=src python -m sortlab verify --n-max 6 --samples 20 --seed 1 > tests/golden/verify_n6_samples20_seed1.json
    # A change that writes it again says why in CHANGES.md.
    golden = Path(__file__).parent / "golden" / "verify_n6_samples20_seed1.json"
    rc, out, _ = run(capsys, "verify", "--n-max", "6", "--samples", "20", "--seed", "1")
    assert rc == 0
    assert out == golden.read_text(encoding="utf-8")


def verify_theorems(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "5", "--checks", "theorem2,theorem3,theorem4")
    return rc, json.loads(out)["checks"]


def test_verify_extra_swap_breaks_theorem2_and_theorem3(capsys, monkeypatch):
    faults.install(monkeypatch, faults.edited(lambda v, r: faults.add_swaps(r, +1) if v == (1, 2, 3, 4) else r))
    rc, checks = verify_theorems(capsys)
    assert rc == 1
    assert checks["theorem2"]["passed"] is False
    assert checks["theorem2"]["counterexample"]["argmax_inputs"] == [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 2, 1]]
    assert checks["theorem3"]["passed"] is False
    assert checks["theorem3"]["counterexample"] == {
        "input": [1, 2, 3, 4],
        "inversions": 0,
        "swaps": 7,
        "violated": ["theorem3"],
    }
    assert checks["theorem3"]["details"] == {"inputs_examined": 9}
    assert checks["theorem4"]["passed"] is True
    assert checks["theorem4"]["details"]["inputs_examined"] == 152


def test_verify_lost_swap_breaks_theorem4(capsys, monkeypatch):
    faults.install(monkeypatch, faults.edited(lambda v, r: faults.add_swaps(r, -1) if v == (4, 1, 2, 3) else r))
    rc, checks = verify_theorems(capsys)
    assert rc == 1
    assert checks["theorem2"]["passed"] is True
    assert checks["theorem3"]["passed"] is True
    assert checks["theorem4"]["passed"] is False
    assert checks["theorem4"]["counterexample"] == {
        "input": [4, 1, 2, 3],
        "inversions": 3,
        "swaps": 2,
        "violated": ["theorem4"],
    }
    assert checks["theorem4"]["details"] == {"inputs_examined": 27}


@pytest.mark.parametrize(
    "target, examined",
    [
        # Counted as the survey's permutations of n = 0..4 in lexicographic
        # order, then the inputs over {1,2,3} of length 1..4.
        ((2, 1), 4),
        ((2, 3, 1), 8),
        ((1, 1, 2), 2 + 2 + 6 + 24 + 3 + 9 + 2),
    ],
)
def test_verify_correctness_reports_the_first_unsorted_output(capsys, monkeypatch, target, examined):
    faults.install(monkeypatch, faults.edited(lambda v, r: faults.reverse_output(r) if v == target else r))
    rc, out, _ = run(capsys, "verify", "--checks", "correctness", "--n-max", "4")
    assert rc == 1
    assert json.loads(out)["checks"]["correctness"] == {
        "passed": False,
        "counterexample": {"input": list(target), "output": sorted(target, reverse=True)},
        "details": {"inputs_examined": examined},
    }


def test_verify_samples_fail_on_an_unsorted_output(capsys, monkeypatch):
    sample = cli.RANDOM_SUITE_N
    faults.install(monkeypatch, faults.edited(lambda v, r: faults.reverse_output(r) if len(v) == sample else r))
    rc, out, _ = run(capsys, "verify", "--checks", "instability", "--samples", "3", "--seed", "1")
    assert rc == 1
    payload = json.loads(out)
    assert payload["random_suite"]["passed"] is False
    assert payload["random_suite"]["bound_violations"] == 0
    assert payload["all_passed"] is False


@pytest.mark.parametrize(
    "edit, failed",
    [
        pytest.param(faults.reverse_output, ["correctness"], id="output-reversed"),
        pytest.param(lambda r: faults.add_swaps(r, 2000), ["theorem2", "theorem3"], id="swaps+2000"),
        pytest.param(lambda r: faults.add_swaps(r, 200), ["theorem3"], id="swaps+200"),
        pytest.param(lambda r: dataclasses.replace(r, swaps=0), ["theorem4"], id="swaps-0"),
    ],
)
def test_verify_samples_name_each_failed_claim_and_its_input(capsys, monkeypatch, edit, failed):
    faults.install(monkeypatch, faults.edited(lambda v, r: edit(r) if len(v) == cli.RANDOM_SUITE_N else r))
    rc, out, _ = run(capsys, "verify", "--checks", "instability", "--samples", "3", "--seed", "1")
    assert rc == 1
    suite = json.loads(out)["random_suite"]
    assert suite["passed"] is False
    assert list(suite["failures"]) == failed
    # Every faked sample fails, so each claim fails first at the first sample.
    for claim, verdict in suite["failures"].items():
        assert verdict["passed"] is False
        assert verdict["details"] == {"inputs_examined": 1}
        assert len(verdict["counterexample"]["input"]) == cli.RANDOM_SUITE_N
        assert faults.recheck(claim, verdict["counterexample"]["input"]) == verdict["counterexample"]


def test_verify_sorts_each_permutation_once(capsys, monkeypatch):
    calls = []
    faults.install(monkeypatch, faults.counted(calls, []))
    rc, _, _ = run(capsys, "verify", "--n-max", "6")
    assert rc == 0
    # The survey sorts each of the 2! + ... + 6! = 872 permutations once,
    # and for correctness the two inputs of n <= 1; correctness adds only
    # the 120 inputs over {1,2,3}ⁿ, theorem3 the 5 sorted inputs, and the
    # instability search 5 inputs.
    assert len(calls) == 872 + 2 + 120 + 5 + 5


@pytest.mark.parametrize(
    "checks, reach, runs",
    [
        ([], 16, 1893),
        (["--checks", "pi,lemma1"], 16, 1893),
        (["--checks", "pi"], 16, 1893),
        (["--checks", "lemma1"], 10, 1281),
        (["--checks", "correctness,theorem2,theorem3,theorem4,instability"], 0, 0),
    ],
    ids=[f"checks{k}" for k in range(5)],
)
def test_verify_pi_and_lemma1_share_one_traced_sort_per_permutation(capsys, monkeypatch, checks, reach, runs):
    traced = []
    faults.install(monkeypatch, faults.counted([], traced))
    rc, _, _ = run(capsys, "verify", "--n-max", "6", *checks)
    assert rc == 0
    # The 1! + 2! + ... + 6! = 873 permutations, each sorted once with an observer; then, at every
    # length past 6 that the proofs reach, 1..n, n..1 and the drawn permutations once each, whichever
    # claims are open; none when neither pi nor lemma1 is selected.
    assert len(traced) == runs
    swept = [values for n in range(1, 7) for values in permutations(range(1, n + 1))] if reach else []
    ends = [tuple(v) for n in range(7, reach + 1) for v in (range(1, n + 1), range(n, 0, -1))]
    drawn = Counter(traced) - Counter(swept + ends)
    assert Counter(traced) - drawn == Counter(swept + ends)
    assert sorted(map(len, drawn.elements())) == [n for n in range(7, reach + 1) for _ in range(cli.TIE_SAMPLES)]
    assert all(sorted(values) == list(range(1, len(values) + 1)) for values in drawn)


def pi_failure(values, outer, expected, observed):
    return {"input": list(values), "outer": outer, "expected": expected, "observed": observed}


def lemma1_failure(values, seq, phase, expected, observed):
    return {"input": list(values), "seq": seq, "phase": phase, "expected": expected, "observed": observed}


def failed(counterexample, examined):
    return {"passed": False, "counterexample": counterexample, "details": {"inputs_examined": examined}}


PREFIX = "non-decreasing prefix"


@pytest.mark.parametrize(
    "rewrites, pi, lemma1",
    [
        pytest.param(
            {(3, 1, 2): faults.drop_last_swap, (2, 4, 1, 5, 3): faults.relabel_first_insertion_swap},
            failed(pi_failure((3, 1, 2), 3, PREFIX, [1, 3, 2]), 8),
            failed(lemma1_failure((2, 4, 1, 5, 3), 8, PHASE_SELECTION, 1, -1), 71),
            id="pi-fails-first",
        ),
        pytest.param(
            {(3, 1, 2): faults.relabel_first_insertion_swap, (2, 4, 1, 5, 3): faults.drop_last_swap},
            failed(pi_failure((2, 4, 1, 5, 3), 5, PREFIX, [1, 2, 3, 5, 4]), 71),
            failed(lemma1_failure((3, 1, 2), 4, PHASE_SELECTION, 1, -1), 8),
            id="lemma1-fails-first",
        ),
        pytest.param(
            # In the run, pi fails at the boundary of pass 1, before the swap at seq 6.
            {(2, 4, 1, 3): faults.drop_first_swap},
            failed(pi_failure((2, 4, 1, 3), 1, 4, 2), 20),
            failed(lemma1_failure((2, 4, 1, 3), 6, PHASE_INSERTION, -1, 1), 20),
            id="both-fail-on-one-input-pi-first-in-the-run",
        ),
        pytest.param(
            # In the run, lemma1 fails at seq 6, before pi's last boundary.
            {(2, 4, 1, 3): lambda events: faults.drop_last_swap(faults.relabel_first_insertion_swap(events))},
            failed(pi_failure((2, 4, 1, 3), 4, PREFIX, [1, 2, 4, 3]), 20),
            failed(lemma1_failure((2, 4, 1, 3), 6, PHASE_SELECTION, 1, -1), 20),
            id="both-fail-on-one-input-lemma1-first-in-the-run",
        ),
        pytest.param(
            {(2, 4, 1, 3): faults.drop_last_swap},
            failed(pi_failure((2, 4, 1, 3), 4, PREFIX, [1, 2, 4, 3]), 20),
            {
                "passed": True,
                "counterexample": None,
                "details": {
                    "inputs_examined": 153,
                    "swept_n": 5,
                    "method": "0-1 principle: all 0/1/2 words, on the kernel's network",
                    "assumes": "one list of compares per length; past swept_n, each claim and that list are checked"
                    " on the kernel's runs on 1..n, n..1 and 100 seeded permutations",
                    "proved_n": 10,
                },
            },
            id="pi-alone-fails",
        ),
    ],
)
def test_verify_pi_and_lemma1_report_together_as_alone(capsys, monkeypatch, rewrites, pi, lemma1):
    faults.install(monkeypatch, faults.rewritten(rewrites))

    def reported(checks):
        rc, out, _ = run(capsys, "verify", "--checks", checks, "--n-max", "5")
        entries = json.loads(out)["checks"]
        assert rc == (0 if all(entry["passed"] for entry in entries.values()) else 1)
        return entries

    assert reported("pi,lemma1") == {"pi": pi, "lemma1": lemma1}
    assert reported("pi") == {"pi": pi}
    assert reported("lemma1") == {"lemma1": lemma1}


# -------------------------------------------------------------- bench


def test_bench_csv_output(capsys):
    rc, out, err = run(capsys, "bench", "--sizes", "8,16", "--reps", "2", "--seed", "42")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == ",".join(BENCH_COLUMNS)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2 * 2 * 6
    for row in rows:
        assert row["algorithm"] in cli.ALGORITHMS
        assert int(row["n"]) in (8, 16)
        assert int(row["seed"]) == 42
        assert int(row["wall_ns"]) >= 0
    icbics_rows = [r for r in rows if r["algorithm"] == "icbics"]
    assert all(int(r["comparisons"]) == int(r["n"]) ** 2 for r in icbics_rows)
    for algo in cli.ALGORITHMS:
        assert f"{algo}:" in err


def test_bench_json_output(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "8", "--reps", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 2 * 6
    assert set(payload["summary"]) == set(cli.ALGORITHMS)
    for record in payload["records"]:
        assert list(record) == list(BENCH_COLUMNS)
    for stats in payload["summary"].values():
        assert stats["runs"] == 2
        assert stats["mean_wall_ns"] >= 0


def test_bench_csv_round_trip_is_exact():
    records = collect_bench_records([9, 14], reps=2, seed=6)
    stream = io.StringIO()
    write_bench_csv(records, stream)
    header, *rows = csv.reader(io.StringIO(stream.getvalue()))
    assert header == list(BENCH_COLUMNS)
    assert [cli.BenchRecord(name, *map(int, rest)) for name, *rest in rows] == records


def test_bench_json_round_trip_is_exact():
    records = collect_bench_records([7], reps=2, seed=8)
    revived = [
        cli.BenchRecord(**raw)
        for raw in json.loads(json.dumps([asdict(r) for r in records]))
    ]
    assert revived == records


def test_collect_bench_records_determinism():
    first = collect_bench_records([10, 20], reps=2, seed=4)
    second = collect_bench_records([10, 20], reps=2, seed=4)
    strip_wall = lambda recs: [(r.algorithm, r.n, r.rep, r.seed, r.comparisons, r.swaps) for r in recs]
    assert strip_wall(first) == strip_wall(second)
    assert len(first) == 2 * 2 * len(cli.ALGORITHMS)


def test_collect_bench_records_guards():
    with pytest.raises(ValueError):
        collect_bench_records([8], reps=1, seed=0, algorithms=["nope"])
    with pytest.raises(ValueError):
        collect_bench_records([8], reps=0, seed=0)
    with pytest.raises(ValueError):
        collect_bench_records([-1], reps=1, seed=0)


def test_collect_bench_records_checks_every_size_before_sorting(monkeypatch):
    # A bad size late in the list is refused before any sorter runs.
    calls = faults.count_runs(monkeypatch)
    with pytest.raises(ValueError, match="sizes must be >= 0, got -1"):
        collect_bench_records([512, -1], reps=1, seed=0)
    assert calls == []
    collect_bench_records([3], reps=1, seed=0)
    assert calls == [3] * len(cli.ALGORITHMS)


def test_summarize_bench_groups_by_algorithm():
    records = collect_bench_records([6], reps=3, seed=1, algorithms=["icbics", "exchange"])
    summary = summarize_bench(records)
    assert set(summary) == {"icbics", "exchange"}
    assert summary["icbics"]["runs"] == 3
    assert summary["icbics"]["mean_comparisons"] == 36.0
    assert summary["exchange"]["mean_comparisons"] == 15.0
