"""Per-layer tracing for the benchmark's traced run.

The layers are sortlab's modules: ``sortcore``, ``metrics``, ``oracle``,
``verify`` and ``cli``.  :func:`instrument` replaces, in this process
only, the public functions each module imports from another (and the
sorters in ``ALGORITHMS``) by wrappers that record one span per call:
its name, start, end and the enclosing span.  Spans are aggregated by
(name, parent) into count, total time and self time as they close, so
the millions of n <= 8 calls of a verify sweep stay small in memory.

:func:`run_profile` runs every layer's work once, each part under a
root span; :func:`tracing_overhead` times a verify slice with and
without the wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

import checks
from child import (
    TRACE_FILE,
    read_kernel_inputs,
    read_trace_input,
    run_kernels,
    sort_argv,
    verify_argv,
    write_inputs,
)

SORT_BARE = "sortcore.bare"
SORT_TRACED = "sortcore.traced"
SORTCORE = "sortcore"

# (module, imported name, span name).  A sorter's span is bare or traced
# by whether the call passed an observer.
WRAPPED = (
    ("sortlab.cli", "icbics_sort", SORTCORE),
    ("sortlab.oracle", "icbics_sort", SORTCORE),
    ("sortlab.verify", "icbics_sort", SORTCORE),
    ("sortlab.oracle", "count_inversions", "metrics.count_inversions"),
    ("sortlab.verify", "count_inversions", "metrics.count_inversions"),
    ("sortlab.cli", "exhaustive_summary", "oracle.exhaustive_summary"),
    ("sortlab.cli", "random_suite", "oracle.random_suite"),
    ("sortlab.cli", "check_pi_invariant", "verify.pi"),
    ("sortlab.cli", "check_lemma1", "verify.lemma1"),
    ("sortlab.cli", "check_theorem_bounds", "verify.theorem_bounds"),
    ("sortlab.cli", "find_instability_witness", "verify.instability"),
    ("sortlab.cli", "write_trace", "cli.write_trace"),
    ("sortlab.cli", "load_trace", "cli.load_trace"),
    ("sortlab", "replay_trace", "sortcore.replay"),
)

OVERHEAD_ARGV = ["verify", "--n-max", "7", "--checks", "correctness,pi,lemma1,theorem3"]
OVERHEAD_PAIRS = 3
OBSERVER_COST_REPS = 3


class SpanTracer:
    """Spans aggregated by (name, parent name) into [count, total_ns, self_ns].

    A span's self time is its duration minus the durations of the spans
    opened directly inside it.  ``counts`` holds exact work counters
    recorded at the same boundaries.  Durations are this thread's CPU time,
    which leaves out the time a shared host runs other guests (steal).
    """

    def __init__(self, clock: Callable[[], int] = time.thread_time_ns) -> None:
        self.clock = clock
        self.spans: dict[tuple[str, Optional[str]], list[int]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[list] = []

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0])

    def leave(self) -> None:
        end = self.clock()
        name, start, inner = self._open.pop()
        total = end - start
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[2] += total
        key = (name, parent[0] if parent is not None else None)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += total
        agg[2] += total - inner

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def by_name(self) -> dict[str, tuple[int, int, int]]:
        """(calls, total_ns, self_ns) per span name, summed over parents."""
        out: dict[str, list[int]] = {}
        for (name, _), agg in self.spans.items():
            row = out.setdefault(name, [0, 0, 0])
            for k in range(3):
                row[k] += agg[k]
        return {name: tuple(row) for name, row in out.items()}

    def rows(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "count": c, "total_ns": t, "self_ns": s}
            for (name, parent), (c, t, s) in sorted(self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]


def _wrap_sorter(tracer: SpanTracer, func: Callable) -> Callable:
    enter, leave, counts = tracer.enter, tracer.leave, tracer.counts

    def sorter(*args, **kwargs):
        observer = args[1] if len(args) > 1 else kwargs.get("observer")
        enter(SORT_BARE if observer is None else SORT_TRACED)
        try:
            report = func(*args, **kwargs)
        finally:
            leave()
        if observer is None:
            counts["sortcore.bare.comparisons"] += report.comparisons
        else:
            counts["sortcore.traced.events"] += report.comparisons + report.swaps
        return report

    return sorter


def _wrap(tracer: SpanTracer, func: Callable, name: str) -> Callable:
    if name == SORTCORE:
        return _wrap_sorter(tracer, func)
    enter, leave, counts = tracer.enter, tracer.leave, tracer.counts

    def wrapped(*args, **kwargs):
        enter(name)
        try:
            result = func(*args, **kwargs)
        finally:
            leave()
        if name == "cli.write_trace":
            counts["cli.write_trace.bytes"] += os.path.getsize(args[0])
        elif name == "cli.load_trace":
            counts["cli.load_trace.events"] += len(result)
        return result

    return wrapped


@contextlib.contextmanager
def instrument(tracer: SpanTracer) -> Iterator[tuple[set[str], list[str]]]:
    """Install the wrappers; yields (span names installed, names missing).

    A name that no longer exists is reported missing, never as zero.
    Everything is restored on exit.
    """
    installed: set[str] = set()
    missing: list[str] = []
    saved = []
    algorithms, originals = None, {}
    try:
        for module_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            func = getattr(module, attr, None)
            if not callable(func):
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, func))
            setattr(module, attr, _wrap(tracer, func, span))
            installed.update((SORT_BARE, SORT_TRACED) if span == SORTCORE else (span,))
        algorithms = getattr(importlib.import_module("sortlab"), "ALGORITHMS", None)
        if isinstance(algorithms, dict):
            originals = dict(algorithms)
            for key, info in originals.items():
                algorithms[key] = dataclasses.replace(info, func=_wrap_sorter(tracer, info.func))
            installed.update((SORT_BARE, SORT_TRACED))
        else:
            missing.append("sortlab.ALGORITHMS")
        yield installed, missing
    finally:
        for module, attr, func in saved:
            setattr(module, attr, func)
        if originals:
            algorithms.update(originals)


def _call_cli(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def run_profile(seed: int, workdir: Path, tracer: SpanTracer) -> dict:
    """Run every layer's work once in this process, each part under a
    root span ``profile.<part>``, and return the outputs to check, the
    spans and the counters.

    The parts are the three workloads' work done in-process: the verify
    sweep, the trace round trip through ``cli``, bare ``icbics`` on the
    trace input (the base of the observer cost), and the bare kernels.
    """
    import sortlab
    from sortlab import cli

    workdir.mkdir(parents=True, exist_ok=True)
    write_inputs("trace-1000", seed, workdir)
    write_inputs("kernels-bare", seed, workdir)
    values = read_trace_input(workdir)
    kernel_inputs = read_kernel_inputs(workdir)
    trace = workdir / TRACE_FILE
    out: dict = {}
    with tracer.span("profile.verify"):
        out["verify"] = _call_cli(cli, verify_argv(seed))
    with tracer.span("profile.trace_write"):
        out["sort"] = _call_cli(cli, sort_argv(workdir))
    with tracer.span("profile.trace_read"):
        events = cli.load_trace(str(trace))
        out["readback"] = sortlab.replay_trace(values, events)
    del events
    out["swap_events"] = checks.count_swap_events(trace)
    trace.unlink()
    icbics = sortlab.ALGORITHMS["icbics"]
    with tracer.span("profile.observer_cost"):
        for _ in range(OBSERVER_COST_REPS):
            icbics.func(values)
    with tracer.span("profile.kernels"):
        out["kernels"] = run_kernels(sortlab.ALGORITHMS, kernel_inputs)
    out["spans"] = tracer.rows()
    out["counts"] = dict(tracer.counts)
    return out


def check_profile(tally: checks.Tally, out: dict, seed: int, workdir: Path) -> None:
    """The checks the untraced workloads get, on the profile's outputs."""
    values = read_trace_input(workdir)
    checks.check_verify(tally, out["verify"]["code"], out["verify"]["stdout"], seed)
    swaps = checks.check_sort(tally, out["sort"]["code"], out["sort"]["stdout"], values)
    checks.check_readback(tally, out["readback"], values, swaps, out["swap_events"])
    checks.check_kernels(tally, out["kernels"], read_kernel_inputs(workdir))


def tracing_overhead(tally: checks.Tally) -> float:
    """Traced over untraced CPU time of the same verify slice, run in this
    process in alternating pairs so that drift in machine speed hits both
    sides; the median of each side is used.  The slice holds the checks
    whose calls dominate the span count (no oracle cache, which would make
    repeats cheaper)."""
    from sortlab import cli

    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        start = time.thread_time()
        untraced_out = _call_cli(cli, OVERHEAD_ARGV)
        plain.append(time.thread_time() - start)
        with instrument(SpanTracer()):
            start = time.thread_time()
            traced_out = _call_cli(cli, OVERHEAD_ARGV)
            traced.append(time.thread_time() - start)
        tally.record(
            untraced_out == traced_out and untraced_out["code"] == 0,
            "tracing changes the output of " + " ".join(OVERHEAD_ARGV),
        )
    return statistics.median(traced) / statistics.median(plain)


def part_seconds(rows: list[dict]) -> dict[str, float]:
    """CPU seconds spent in each root ``profile.<part>`` span."""
    return {
        row["name"].split(".", 1)[1]: row["total_ns"] / 1e9
        for row in rows
        if row["parent"] is None and row["name"].startswith("profile.")
    }


def layer_metrics(
    tracer: SpanTracer,
    installed: set[str],
    cli_cpu: dict[str, float],
    overhead_x: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name as (value, unit).  A metric whose span
    was never installed, or whose base is zero, is left out: the caller
    reports it as absent."""
    spans = tracer.by_name()
    counts = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}

    def span_metrics(name: str, want_calls: bool = True) -> None:
        if name not in installed:
            return
        calls, _, self_ns = spans.get(name, (0, 0, 0))
        if want_calls:
            metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (self_ns / 1e9, "s")

    def ratio(name: str, num: float, den: float, unit: str) -> None:
        if den > 0:
            metrics[name] = (num / den, unit)

    span_metrics(SORT_BARE)
    if SORT_BARE in installed:
        comparisons = counts.get("sortcore.bare.comparisons", 0)
        metrics["sortcore.bare.comparisons"] = (comparisons, "count")
        ratio("sortcore.bare.ns_per_comparison", spans.get(SORT_BARE, (0, 0, 0))[2], comparisons, "ns")
    span_metrics(SORT_TRACED)
    if SORT_TRACED in installed:
        events = counts.get("sortcore.traced.events", 0)
        metrics["sortcore.traced.events"] = (events, "count")
        ratio("sortcore.traced.ns_per_event", spans.get(SORT_TRACED, (0, 0, 0))[2], events, "ns")
        traced = tracer.spans.get((SORT_TRACED, "profile.trace_write"), [0, 0, 0])
        bare = tracer.spans.get((SORT_BARE, "profile.observer_cost"), [0, 0, 0])
        if traced[0] == 1 and bare[0]:
            ratio("sortcore.observer_cost_x", traced[1], bare[1] / bare[0], "x")
    span_metrics("sortcore.replay", want_calls=False)
    span_metrics("metrics.count_inversions")
    span_metrics("oracle.exhaustive_summary")
    span_metrics("oracle.random_suite", want_calls=False)
    for check in ("pi", "lemma1", "theorem_bounds", "instability"):
        span_metrics(f"verify.{check}")
    for check_id, cpu_s in cli_cpu.items():
        metrics[f"cli.verify.{check_id}.cpu_s"] = (cpu_s, "s")
    if "cli.write_trace" in installed:
        metrics["cli.write_trace.busy_s"] = (spans.get("cli.write_trace", (0, 0, 0))[2] / 1e9, "s")
        metrics["cli.write_trace.bytes"] = (counts.get("cli.write_trace.bytes", 0), "bytes")
    if "cli.load_trace" in installed:
        load_ns = spans.get("cli.load_trace", (0, 0, 0))[2]
        metrics["cli.load_trace.busy_s"] = (load_ns / 1e9, "s")
        ratio("cli.load_trace.events_per_s", counts.get("cli.load_trace.events", 0), load_ns / 1e9, "1/s")
    metrics["tracing.overhead_x"] = (overhead_x, "x")
    return metrics
