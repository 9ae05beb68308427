"""End-to-end tests for the command-line interface.

Everything goes through cli.main() so the exit-code contract is tested
exactly as a shell would see it: 0 success, 1 failed verification,
2 usage or input errors.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import faults
import sortlab.cli as cli
from sortlab import replay_trace
from sortlab.cli import (
    BENCH_COLUMNS,
    collect_bench_records,
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


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
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


# The repr of "x" * 300 cut at 200 characters, then the repr's length.
LONG_SHOWN = "'" + "x" * 199 + "... (302 characters)"


# An --input that names no file and does not parse: the argument and its first bad token, each as
# its repr cut at 200 characters.  Only ASCII whitespace pads or parts values: "\x1f" is whitespace
# to str.split, not to sort.
@pytest.mark.parametrize(
    "argument, shown, token",
    [
        pytest.param("1_0,2", "'1_0,2'", "'1_0'", id="underscore"),
        pytest.param("\uff13,\u0661", "'\uff13,\u0661'", "'\uff13'", id="non-ascii-digits"),
        pytest.param("5,\x1f3", r"'5,\x1f3'", r"'\x1f3'", id="non-ascii-space"),
        pytest.param("5\x1f3", r"'5\x1f3'", r"'5\x1f3'", id="non-ascii-separator"),
        pytest.param("1,x,3", "'1,x,3'", "'x'", id="bad-inline-value"),
        pytest.param("no/such/file.txt", "'no/such/file.txt'", "'no/such/file.txt'", id="missing-file"),
        pytest.param("x" * 300, LONG_SHOWN, LONG_SHOWN, id="echo-cut-at-200-characters"),
    ],
)
def test_sort_refuses_input_that_is_neither_a_file_nor_integers(capsys, argument, shown, token):
    rc, out, err = run(capsys, "sort", "--input", argument)
    assert (rc, out) == (2, "")
    reason = f"{shown} names no file, and is not a list of integers: not a decimal integer: {token}"
    assert err == f"sortlab sort: cannot read input: {reason}\n"


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
        assert err == f"sortlab sort: cannot read input: file 'bad.txt': {error}\n"


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


@pytest.mark.parametrize(
    "text",
    [
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
    ],
)
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
    for target in (str(tmp_path / "absent" / "trace.jsonl"), ""):
        rc, out, err = run(capsys, "sort", "--input", "2,1", "--trace", target)
        assert (rc, out, calls) == (2, "", [])
        assert "cannot write trace" in err


def test_sort_refuses_a_trace_path_naming_the_input_file(capsys, monkeypatch, tmp_path):
    calls = faults.count_runs(monkeypatch)
    source = tmp_path / "in.txt"
    source.write_text("3\n1\n2\n")
    (tmp_path / "link.txt").symlink_to(source)
    monkeypatch.chdir(tmp_path)
    for given, trace in [("in.txt", "in.txt"), ("in.txt", "./in.txt"), ("in.txt", "link.txt"), ("link.txt", "in.txt")]:
        rc, out, err = run(capsys, "sort", "--input", given, "--trace", trace)
        assert (rc, out, calls) == (2, "", [])
        assert f"cannot write trace: {trace!r} is the input file" in err
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
def trace_events(draw):
    # seq rises from any start >= 0, with gaps; positions are any integers >= 1.
    seqs = sorted(draw(st.sets(st.integers(min_value=0), max_size=20)))
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
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["sort", "--algo", "quicksort", "--input", "1"], "argument --algo: invalid choice: 'quicksort'"),
        (["verify", "--checks", "correctness,nonsense"], "argument --checks: unknown checks: nonsense; valid: "),
        (["bench", "--sizes", "16,oops"], "argument --sizes: expected comma-separated integers, got '16,oops'"),
        (["bench", "--sizes", ""], "argument --sizes: must name at least one input length, each >= 0, got ''"),
        # A value's echo is its repr cut at 200 characters, then the repr's length; unknown names, joined, likewise.
        (["bench", "--sizes", "x" * 1000], "... (1002 characters)"),
        (["bench", "--sizes", "1" + ",-1" * 333], "... (1002 characters)"),
        (["verify", "--checks", "x" * 1000], "... (1000 characters)"),
        (["verify", "--checks", "pi," * 333 + ","], "... (1002 characters)"),
        (["verify", "--checks", ",".join(["pi"] * 334)], "... (1003 characters)"),
    ],
)
def test_bad_arguments_get_argparse_usage_errors(capsys, argv, phrase):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("usage: sortlab ")
    assert phrase in err
    assert len(err) < 500


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
    def forced_failure(values, claims):
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
    "checks, expected",
    [
        ([], 873),
        (["--checks", "pi,lemma1"], 873),
        (["--checks", "pi"], 873),
        (["--checks", "lemma1"], 873),
        (["--checks", "correctness,theorem2,theorem3,theorem4,instability"], 0),
    ],
    ids=[f"checks{k}" for k in range(5)],
)
def test_verify_pi_and_lemma1_share_one_traced_sort_per_permutation(capsys, monkeypatch, checks, expected):
    traced = []
    faults.install(monkeypatch, faults.counted([], traced))
    rc, _, _ = run(capsys, "verify", "--n-max", "6", *checks)
    assert rc == 0
    # 1! + 2! + ... + 6! permutations, each sorted once with an observer;
    # none when neither pi nor lemma1 is selected.
    assert len(traced) == len(set(traced)) == expected


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
            {"passed": True, "counterexample": None, "details": {"inputs_examined": 153}},
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
