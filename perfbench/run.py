"""sortlab benchmark: end-to-end workloads and a traced per-layer run.

Run from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload verify-n8 --seed 1 --seconds 30 --trace 0

Workloads, each run one child process at a time:

  verify-n8     ``sortlab verify --n-max 8 --samples 1000 --seed S``: the
                lab's headline command, ~230k tiny traced runs at n <= 8
                and the inversion recounts of lemma1; no trace I/O.
  trace-1000    ``sortlab sort --algo icbics --trace`` on a seeded shuffle
                of 1..1000, then a second child that loads and replays the
                trace: one huge trace, file writes and reads, memory bound.
  kernels-bare  every ``ALGORITHMS[id].func(data)`` with no observer on
                seeded shuffles at n = 64, 256, 1024 and reversed 1..1024:
                kernel-only costs, including the triangular loops.

``--trace 0`` sets the workload up several times, then repeats the
workload for about ``--seconds`` seconds, at least once, and reports
medians.  Times are CPU seconds (user + system, from ``os.wait4``): on a
shared virtual machine wall time also counts the time the host runs
other guests (steal).  CPU time still drifts with the host's load, by a
fifth or more between runs, so the reported times are rescaled to a
reference speed: a speed meter (``meter.py``) runs beside the workload
at the lowest priority, and each time is multiplied by METER_REF_LOOP_S
over the meter's mean CPU time per loop in the same run.  The benchmark
keeps itself, its children and the meter on one CPU (its own affinity,
inherited), so that the meter sees the speed the workload gets.

  setup_s       a fresh interpreter imports sortlab and writes the inputs
  cpu_ref_s     the workload's commands, from launch to exit
  peak_rss_mb   the largest child's own peak (see ``peak.py``)

The unscaled figures (``setup_cpu_s``, ``setup_wall_s``, ``cpu_s``,
``wall_s``) and ``meter_loop_ms`` are printed and recorded beside them.

``--trace 1`` profiles every layer once, whatever workload is named:
one untraced child per verify check, then the three workloads' work in
this process with every layer wrapped (see ``layers.py``), checked as in
the untraced runs, and the tracing overhead on a verify slice.

Every output is checked after its child exits; ``failed``/``attempted``
in the last line is the fail ratio.  The last line of standard output is
one JSON object; the lines before it are for people.  Spans and samples
are also written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from child import TRACE_FILE, read_kernel_inputs, read_trace_input, sort_argv, verify_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CLI = [sys.executable, "-c", "import peak; from sortlab.cli import entry; entry()"]
CHILD = [sys.executable, str(HERE / "child.py")]

WORKLOADS = ("verify-n8", "trace-1000", "kernels-bare")
SETUP_REPS = 7
# The meter's mean needs at least this many loops; it makes about four a
# second beside a busy workload.
METER_MIN_LOOPS = 10
# Reference speed: the meter's typical CPU time per loop beside a busy
# workload on a 2-vCPU Intel Xeon virtual machine with Python 3.11, so
# that reported times read close to CPU seconds there.
METER_REF_LOOP_S = 0.0025
# A child still running this many seconds after the run started is killed
# and counts as failed, so that a run ends within three minutes.
RUN_LIMIT_S = 170.0


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str


@dataclass
class Sample:
    """One repetition of a workload, summed over its children (RSS: the largest)."""

    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts one child at a time, waits for it with ``os.wait4`` (which
    gives the child's own CPU time) and reads the peak RSS the child wrote
    at exit (see ``peak.py``)."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.peak_file = workdir / "peak_kb.txt"
        # A fixed hash seed keeps set and dict layouts, and so timings, the
        # same from run to run; perfbench is on the path for ``import peak``.
        self.env = dict(os.environ, PERFBENCH_PEAK_FILE=str(self.peak_file), PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]))

    def run(self, argv: list[str]) -> ChildRun:
        out_path = self.workdir / "stdout.txt"
        self.peak_file.unlink(missing_ok=True)
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        try:
            rss_mb = int(self.peak_file.read_text(encoding="ascii")) / 1024.0
        except (OSError, ValueError):
            rss_mb = float("nan")
        return ChildRun(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime, rss_mb, stdout)


# ------------------------------------------------------------ workloads


def sample(*children: ChildRun) -> Sample:
    return Sample(
        sum(c.wall_s for c in children), sum(c.cpu_s for c in children), max(c.rss_mb for c in children)
    )


def rep_verify(runner: Runner, seed: int, tally: checks.Tally) -> Sample:
    child = runner.run(CLI + verify_argv(seed))
    checks.check_verify(tally, child.code, child.stdout, seed)
    return sample(child)


def rep_trace(runner: Runner, seed: int, tally: checks.Tally) -> Sample:
    workdir = runner.workdir
    values = read_trace_input(workdir)
    write = runner.run(CLI + sort_argv(workdir))
    read = runner.run(CHILD + ["readback", str(workdir)])
    swaps = checks.check_sort(tally, write.code, write.stdout, values)
    trace = workdir / TRACE_FILE
    swap_events = checks.count_swap_events(trace) if trace.is_file() else -1
    output = checks.parse_json(read.stdout) if read.code == 0 else None
    checks.check_readback(tally, output.get("output") if isinstance(output, dict) else None, values, swaps, swap_events)
    trace.unlink(missing_ok=True)
    return sample(write, read)


def rep_kernels(runner: Runner, seed: int, tally: checks.Tally) -> Sample:
    child = runner.run(CHILD + ["kernels", str(runner.workdir)])
    rows = checks.parse_json(child.stdout) if child.code == 0 else None
    checks.check_kernels(tally, rows, read_kernel_inputs(runner.workdir))
    return sample(child)


REPS = {"verify-n8": rep_verify, "trace-1000": rep_trace, "kernels-bare": rep_kernels}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def meter_loop_s(path: Path, start: float, end: float) -> float:
    """Mean CPU seconds per meter loop between two ``time.monotonic`` stamps."""
    rows = [tuple(map(float, line.split())) for line in path.read_text(encoding="ascii").splitlines()]
    inside = [cpu for stamp, cpu in rows if start < stamp <= end]
    return statistics.fmean(inside) if len(inside) >= METER_MIN_LOOPS else float("nan")


def untraced_run(workload: str, seed: int, seconds: int, runner: Runner, tally: checks.Tally) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, then repeat the workload while another
    repetition fits in ``seconds`` (always at least one), with the speed
    meter running beside it throughout."""
    meter_out = runner.workdir / "meter.txt"
    meter = subprocess.Popen([sys.executable, str(HERE / "meter.py"), str(meter_out)], cwd=ROOT)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            child = runner.run(CHILD + ["setup", workload, str(seed), str(runner.workdir)])
            if child.code != 0:
                raise RuntimeError(f"set-up of {workload} failed with exit code {child.code}")
            setups.append(sample(child))
        reps = []
        start = time.perf_counter()
        window_start = time.monotonic()
        while True:
            rep_start = time.perf_counter()
            reps.append(REPS[workload](runner, seed, tally))
            now = time.perf_counter()
            if now - start + (now - rep_start) > seconds or time.monotonic() > runner.deadline:
                break
        window_end = time.monotonic()
    finally:
        meter.terminate()
        meter.wait()
    loop_s = meter_loop_s(meter_out, window_start, window_end) if meter.returncode == 0 else float("nan")
    scale = METER_REF_LOOP_S / loop_s
    setup_cpu = summary([s.cpu_s for s in setups])
    cpu = summary([r.cpu_s for r in reps])
    stats = {
        "setup_s": ({"median": setup_cpu["median"] * scale, "n": setup_cpu["n"]}, "s"),
        "setup_cpu_s": (setup_cpu, "s"),
        "setup_wall_s": (summary([s.wall_s for s in setups]), "s"),
        "cpu_ref_s": ({"median": cpu["median"] * scale, "n": cpu["n"]}, "s"),
        "cpu_s": (cpu, "s"),
        "wall_s": (summary([r.wall_s for r in reps]), "s"),
        "meter_loop_ms": ({"median": loop_s * 1e3, "n": 1}, "ms"),
        "peak_rss_mb": (summary([r.rss_mb for r in reps]), "MB"),
    }
    detail = {"setups": [vars(s) for s in setups], "reps": [vars(r) for r in reps]}
    return stats, detail


# ---------------------------------------------------------- traced run


def cli_checks(runner: Runner, seed: int, tally: checks.Tally) -> tuple[dict[str, float], dict[str, dict]]:
    """One untraced ``verify --checks <id>`` child per check id, plus the
    random suite behind the cheapest check (correctness at n-max 1).
    Returns each child's CPU time and its result for that check."""
    cpu, results = {}, {}
    for check_id in checks.VERIFY_CHECKS:
        child = runner.run(CLI + ["verify", "--n-max", str(checks.N_MAX), "--checks", check_id])
        checks.check_verify(tally, child.code, child.stdout, seed, checks=(check_id,), suite=False)
        cpu[check_id] = child.cpu_s
        results[check_id] = ((checks.parse_json(child.stdout) or {}).get("checks") or {}).get(check_id)
    argv = ["verify", "--n-max", "1", "--checks", "correctness", "--samples", str(checks.SAMPLES), "--seed", str(seed)]
    child = runner.run(CLI + argv)
    checks.check_verify(tally, child.code, child.stdout, seed, checks=("correctness",), n_max=1)
    cpu[checks.RANDOM_SUITE] = child.cpu_s
    results[checks.RANDOM_SUITE] = (checks.parse_json(child.stdout) or {}).get(checks.RANDOM_SUITE)
    return cpu, results


def traced_run(seed: int, runner: Runner, tally: checks.Tally) -> tuple[dict, dict]:
    """The per-layer profile, checked like the untraced workloads, and its
    verify results compared with those of the untraced per-check children."""
    cli_cpu, cli_results = cli_checks(runner, seed, tally)
    sys.path.insert(0, str(SRC))
    tracer = layers.SpanTracer()
    workdir = runner.workdir / "traced"
    with layers.instrument(tracer) as (installed, missing):
        traced = layers.run_profile(seed, workdir, tracer)
    layers.check_profile(tally, traced, seed, workdir)
    payload = checks.parse_json(traced["verify"]["stdout"]) or {}
    traced_results = dict(payload.get("checks") or {}, **{checks.RANDOM_SUITE: payload.get(checks.RANDOM_SUITE)})
    for name, result in cli_results.items():
        tally.record(result is not None and traced_results.get(name) == result, f"traced {name} differs from untraced")
    overhead_x = layers.tracing_overhead(tally)
    metrics = layers.layer_metrics(tracer, installed, cli_cpu, overhead_x)
    detail = {
        "missing_wrapped_names": missing,
        "profile_cpu_s": layers.part_seconds(traced["spans"]),
        "spans": traced["spans"],
        "counts": traced["counts"],
    }
    return {name: ({"median": value, "n": 1}, unit) for name, (value, unit) in metrics.items()}, detail


# ----------------------------------------------------------- reporting


def expected_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def environment(seed: int) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_before": list(os.getloadavg()),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and
    # waited for, and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "sortlab" / "cli.py").is_file():
        print(f"perfbench: no sortlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # One CPU for this process, its children and the meter (see above).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(args.seed)
    print("env " + json.dumps(env))
    tally = checks.Tally()
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), deadline)
        if args.trace:
            stats, detail = traced_run(args.seed, runner, tally)
        else:
            stats, detail = untraced_run(args.workload, args.seed, args.seconds, runner, tally)
    env["loadavg_after"] = list(os.getloadavg())

    # A value that could not be measured (a killed child) is reported absent.
    stats = {name: (stat, unit) for name, (stat, unit) in stats.items() if math.isfinite(stat["median"])}
    for name, (stat, unit) in stats.items():
        spread = f"  n={stat['n']}" + (f" min={stat['min']:.6g} max={stat['max']:.6g}" if "min" in stat else "")
        print(f"{args.workload} {name} = {stat['median']:.6g} {unit} (median){spread}")
    print(f"{args.workload} fail_ratio = {tally.failed}/{tally.attempted} = {tally.fail_ratio:.6g}")
    for note in tally.notes:
        print(f"FAILED: {note}")
    expected = expected_metrics(bool(args.trace))
    absent = [name for name in expected if name not in stats]
    if absent:
        print("absent metrics: " + ", ".join(absent))
    print(f"loadavg after {env['loadavg_after']}")

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "env": env, "fail_notes": tally.notes, "absent": absent}
    record["metrics"] = {name: dict(stat, unit=unit) for name, (stat, unit) in stats.items()}
    record["detail"] = detail
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": stats[name][0]["median"], "unit": stats[name][1]} for name in expected if name in stats},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
