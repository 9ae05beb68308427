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
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import sortlab.cli as cli
import sortlab.oracle
import sortlab.sortcore
import sortlab.verify
from sortlab import VerificationVerdict, replay_trace
from sortlab.cli import (
    BENCH_COLUMNS,
    collect_bench_records,
    load_trace,
    main,
    parse_int_values,
    summarize_bench,
    write_bench_csv,
)
from sortlab.oracle import EXHAUSTIVE_CAP
from sortlab.sortcore import KIND_COMPARE, KIND_SWAP, PHASE_INSERTION, PHASE_SELECTION

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


def test_parse_int_values_rejects_garbage():
    with pytest.raises(ValueError):
        parse_int_values("1,two,3")


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


def test_sort_trace_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    rc, out, _ = run(capsys, "sort", "--input", "3,1,2", "--trace", str(trace_path))
    assert rc == 0
    payload = json.loads(out)

    lines = trace_path.read_text().splitlines()
    assert lines
    assert list(json.loads(lines[0])) == ["seq", "kind", "i", "j", "phase"]

    events = load_trace(str(trace_path))
    assert [e.seq for e in events] == list(range(len(events)))
    assert sum(1 for e in events if e.kind == "compare") == payload["comparisons"]
    assert sum(1 for e in events if e.kind == "swap") == payload["swaps"]
    assert replay_trace([3, 1, 2], events) == payload["output"]


def test_load_trace_shares_the_kind_and_phase_constants(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert run(capsys, "sort", "--input", "2,3,1", "--trace", str(trace_path))[0] == 0
    events = load_trace(str(trace_path))
    assert {e.kind for e in events} == {KIND_COMPARE, KIND_SWAP}
    assert all(e.kind is KIND_COMPARE or e.kind is KIND_SWAP for e in events)
    assert all(e.phase is PHASE_SELECTION or e.phase is PHASE_INSERTION for e in events)


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
    with pytest.raises(ValueError, match="unknown kind or phase"):
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
    ],
)
def test_load_trace_rejects_malformed_events(tmp_path, text):
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(text + "\n")
    with pytest.raises(ValueError):
        load_trace(str(trace_path))


def test_sort_unknown_algorithm_is_usage_error(capsys):
    rc, _, err = run(capsys, "sort", "--algo", "quicksort", "--input", "1")
    assert rc == 2
    assert "invalid choice" in err


def test_sort_bad_inline_input(capsys):
    rc, _, err = run(capsys, "sort", "--input", "1,x,3")
    assert rc == 2
    assert "cannot read input" in err


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


def test_sort_missing_file_is_input_error(capsys):
    rc, _, err = run(capsys, "sort", "--input", "no/such/file.txt")
    assert rc == 2
    assert "cannot read input" in err


def test_sort_unwritable_trace_is_usage_error(capsys, tmp_path):
    target = tmp_path / "absent" / "trace.jsonl"
    rc, _, err = run(capsys, "sort", "--input", "2,1", "--trace", str(target))
    assert rc == 2
    assert "cannot write trace" in err


# -------------------------------------------------------------- glue


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


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


def test_verify_unknown_check_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "--checks", "correctness,nonsense")
    assert rc == 2
    assert "unknown checks" in err


@pytest.mark.parametrize("n_max", ["0", "9", "-2"])
def test_verify_n_max_out_of_range(capsys, n_max):
    rc, _, err = run(capsys, "verify", "--n-max", n_max)
    assert rc == 2
    assert "--n-max" in err


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
    ],
)
def test_bad_arguments_get_argparse_usage_errors(capsys, argv, phrase):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("usage: sortlab ")
    assert phrase in err


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


def test_verify_argmax_sets_have_size_two(capsys):
    rc, out, _ = run(capsys, "verify", "--checks", "theorem2,theorem4", "--n-max", "6")
    assert rc == 0
    payload = json.loads(out)
    per_n = payload["checks"]["theorem2"]["details"]["per_n"]
    for n in range(3, 7):
        assert len(per_n[str(n)]["argmax_inputs"]) == 2
    argmin = payload["checks"]["theorem4"]["details"]["per_n"]
    for n in range(2, 7):
        assert len(argmin[str(n)]["argmin_inputs"]) == 1


def test_verify_negative_samples(capsys):
    rc, _, err = run(capsys, "verify", "--samples", "-3")
    assert rc == 2
    assert "--samples" in err


def test_verify_failing_check_exits_one(capsys, monkeypatch):
    def forced_failure(values):
        return VerificationVerdict("pi", False, {"input": list(values), "reason": "forced"})

    monkeypatch.setattr(cli, "check_pi_invariant", forced_failure)
    rc, out, _ = run(capsys, "verify", "--checks", "pi", "--n-max", "2")
    assert rc == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    assert payload["checks"]["pi"]["passed"] is False
    assert payload["checks"]["pi"]["counterexample"] == {"input": [1], "reason": "forced"}


def test_verify_output_matches_golden_file(capsys):
    # Generated with the per-check runners that the check registry
    # replaced; the printed JSON must not change by a byte.
    golden = Path(__file__).parent / "golden" / "verify_n6_samples20_seed1.json"
    rc, out, _ = run(capsys, "verify", "--n-max", "6", "--samples", "20", "--seed", "1")
    assert rc == 0
    assert out == golden.read_text(encoding="utf-8")


def skew_swaps(monkeypatch, target, delta):
    """Make icbics_sort report ``delta`` more swaps on input ``target``,
    wherever the checks and the survey call it."""
    real = sortlab.sortcore.icbics_sort

    def skewed(values, observer=None):
        report = real(values, observer)
        if tuple(values) == target:
            return dataclasses.replace(report, swaps=report.swaps + delta)
        return report

    for module in (sortlab.oracle, sortlab.verify, cli):
        monkeypatch.setattr(module, "icbics_sort", skewed)


def verify_theorems(capsys):
    rc, out, _ = run(capsys, "verify", "--n-max", "5", "--checks", "theorem2,theorem3,theorem4")
    return rc, json.loads(out)["checks"]


def test_verify_extra_swap_breaks_theorem2_and_theorem3(capsys, monkeypatch):
    skew_swaps(monkeypatch, (1, 2, 3, 4), +1)
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
    skew_swaps(monkeypatch, (4, 1, 2, 3), -1)
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


def test_bench_csv_counts_are_deterministic(capsys):
    _, first, _ = run(capsys, "bench", "--sizes", "12", "--reps", "3", "--seed", "9")
    _, second, _ = run(capsys, "bench", "--sizes", "12", "--reps", "3", "--seed", "9")

    def counts(text):
        return [row[:6] for row in csv.reader(io.StringIO(text))]

    assert counts(first) == counts(second)


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


def test_bench_contract_example(capsys):
    rc, out, _ = run(capsys, "bench", "--sizes", "100", "--reps", "3", "--seed", "1")
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 18
    assert all(int(r["comparisons"]) == 10000 for r in rows if r["algorithm"] == "icbics")


def test_bench_usage_errors(capsys):
    rc, _, _ = run(capsys, "bench", "--reps", "0")
    assert rc == 2
    rc, _, err = run(capsys, "bench", "--sizes", "16,oops")
    assert rc == 2
    assert "comma-separated integers" in err
    rc, _, err = run(capsys, "bench", "--sizes", "")
    assert rc == 2
    assert "at least one" in err


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


def test_summarize_bench_groups_by_algorithm():
    records = collect_bench_records([6], reps=3, seed=1, algorithms=["icbics", "exchange"])
    summary = summarize_bench(records)
    assert set(summary) == {"icbics", "exchange"}
    assert summary["icbics"]["runs"] == 3
    assert summary["icbics"]["mean_comparisons"] == 36.0
    assert summary["exchange"]["mean_comparisons"] == 15.0
