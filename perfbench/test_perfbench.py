"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from child import KERNEL_IDS, kernel_inputs, run_kernels  # noqa: E402


def scripted_clock(*ticks: int):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tracer = layers.SpanTracer(clock=scripted_clock(0, 10, 12, 20, 30, 40, 45, 100))
    tracer.enter("outer")  # 0
    tracer.enter("mid")  # 10
    tracer.enter("leaf")  # 12
    tracer.leave()  # 20: leaf 8
    tracer.leave()  # 30: mid 20, self 12
    tracer.enter("mid")  # 40
    tracer.leave()  # 45: mid 5, self 5
    tracer.leave()  # 100: outer 100, self 100 - 25
    assert tracer.spans[("leaf", "mid")] == [1, 8, 8]
    assert tracer.spans[("mid", "outer")] == [2, 25, 17]
    assert tracer.spans[("outer", None)] == [1, 100, 75]
    assert tracer.by_name()["mid"] == (2, 25, 17)


def test_spans_with_one_name_keep_each_parent_apart():
    tracer = layers.SpanTracer(clock=scripted_clock(0, 1, 3, 10, 11, 14, 17, 20))
    with tracer.span("a"):
        with tracer.span("x"):
            pass
    with tracer.span("b"):
        with tracer.span("x"):
            pass
    assert tracer.spans[("x", "a")] == [1, 2, 2]
    assert tracer.spans[("x", "b")] == [1, 3, 3]
    assert tracer.by_name()["x"] == (2, 5, 5)
    assert tracer.spans[("b", None)] == [1, 9, 6]


def _improved_truncated(values, observer=None):
    # The inner loop stops one short, so the last prefix cell is never compared.
    from sortlab.sortcore import SortReport

    a = list(values)
    comparisons = swaps = 0
    for i in range(1, len(a)):
        for j in range(i - 1):
            comparisons += 1
            if a[i] < a[j]:
                a[i], a[j] = a[j], a[i]
                swaps += 1
    return SortReport("improved", len(a), comparisons, swaps, a)


def _exchange_miscounted(values, observer=None):
    # Right output, wrong count: claims a full n*n loop.
    from sortlab.sortcore import SortReport

    return SortReport("exchange", len(values), len(values) ** 2, 0, sorted(values))


def _kernel_tally(algorithms) -> checks.Tally:
    inputs = kernel_inputs(seed=3)
    tally = checks.Tally()
    rows = json.loads(json.dumps(run_kernels(algorithms, inputs)))
    checks.check_kernels(tally, rows, inputs)
    return tally


def test_kernels_pass_at_this_commit():
    from sortlab import ALGORITHMS

    tally = _kernel_tally(ALGORITHMS)
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (len(KERNEL_IDS) * 4, 0, 0.0)


@pytest.mark.parametrize(
    ("algo", "wrong"),
    [("improved", _improved_truncated), ("exchange", _exchange_miscounted)],
)
def test_wrong_sorter_raises_fail_ratio(algo, wrong):
    from sortlab import ALGORITHMS

    broken = dict(ALGORITHMS)
    broken[algo] = replace(ALGORITHMS[algo], func=wrong)
    tally = _kernel_tally(broken)
    assert tally.failed == 4
    assert tally.fail_ratio == 4 / (len(KERNEL_IDS) * 4)
    assert all(note.startswith(f"kernels-bare {algo} ") for note in tally.notes)


def test_crashed_kernel_child_fails_every_call():
    tally = checks.Tally()
    checks.check_kernels(tally, None, kernel_inputs(seed=3))
    assert tally.failed == tally.attempted == len(KERNEL_IDS) * 4


def test_insertion_counts_closed_form():
    from sortlab import std_insertion_sort

    for values in ([3, 1, 2], [1, 2, 3], [3, 2, 1], [2, 4, 1, 3], kernel_inputs(seed=5)[1]):
        report = std_insertion_sort(values)
        assert checks.expected_counts("std-insertion", values) == (report.comparisons, report.swaps)


def test_verify_check_counts_each_check_and_a_failing_exit():
    payload = {
        "n_max": 8,
        "checks": {check_id: {"passed": True} for check_id in checks.VERIFY_CHECKS},
        "random_suite": {"passed": True, "samples": 1000, "seed": 7, "bound_violations": 0},
        "all_passed": True,
    }
    good = checks.Tally()
    checks.check_verify(good, 0, json.dumps(payload), seed=7)
    assert (good.attempted, good.failed) == (8, 0)
    bad = checks.Tally()
    checks.check_verify(bad, 1, json.dumps(payload), seed=7)
    assert (bad.attempted, bad.failed) == (8, 8)


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = layers.SpanTracer(clock=itertools.count().__next__)
    for root, name in (
        ("profile.trace_write", layers.SORT_TRACED),
        ("profile.observer_cost", layers.SORT_BARE),
        ("profile.trace_read", "cli.load_trace"),
    ):
        with tracer.span(root):
            with tracer.span(name):
                pass
    tracer.counts.update({"sortcore.bare.comparisons": 1, "sortcore.traced.events": 1, "cli.load_trace.events": 1})
    installed = {span for _, _, span in layers.WRAPPED} - {layers.SORTCORE} | {layers.SORT_BARE, layers.SORT_TRACED}
    cli_cpu = {check_id: 1.0 for check_id in (*checks.VERIFY_CHECKS, checks.RANDOM_SUITE)}
    names = set(layers.layer_metrics(tracer, installed, cli_cpu, 1.1))
    assert names == {m["name"] for m in spec["per_layer"]}


def test_missing_wrapped_name_is_reported_not_zero(monkeypatch):
    import sortlab.cli

    monkeypatch.delattr(sortlab.cli, "check_lemma1")
    tracer = layers.SpanTracer()
    with layers.instrument(tracer) as (installed, missing):
        pass
    assert missing == ["sortlab.cli.check_lemma1"]
    metrics = layers.layer_metrics(tracer, installed, {}, 1.0)
    assert "verify.lemma1.calls" not in metrics and "verify.lemma1.busy_s" not in metrics
    assert metrics["verify.pi.calls"] == (0, "count")
