"""Code that runs in a fresh interpreter, launched by ``run.py``.

Each subcommand is one child process of the benchmark, started with the
repository's ``src`` on ``PYTHONPATH``:

    python3 perfbench/child.py setup WORKLOAD SEED DIR   # import sortlab, write inputs
    python3 perfbench/child.py kernels DIR               # the kernels-bare work
    python3 perfbench/child.py readback DIR              # trace-1000's read-back step

Results go to standard output as JSON; ``run.py`` checks them after the
child has exited, outside the timed region.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import peak  # noqa: F401  (reports this child's peak RSS at exit)

TRACE_N = 1000
KERNEL_SIZES = (64, 256, 1024)
# Every sorter id; the two triangular loops (exchange, improved) are kept
# beside the full n*n loops because kernel changes can move them apart.
KERNEL_IDS = ("icbics", "exchange", "improved", "icbics-desc-ineq", "icbics-desc-loops", "std-insertion")

TRACE_INPUT = "input.txt"
TRACE_FILE = "trace.jsonl"
KERNEL_INPUTS = "kernels.json"


def verify_argv(seed: int) -> list[str]:
    """The headline command of verify-n8."""
    return ["verify", "--n-max", "8", "--samples", "1000", "--seed", str(seed)]


def sort_argv(workdir: Path) -> list[str]:
    """The write step of trace-1000."""
    return ["sort", "--algo", "icbics", "--input", str(workdir / TRACE_INPUT), "--trace", str(workdir / TRACE_FILE)]


def trace_input(seed: int) -> list[int]:
    """Seeded shuffle of 1..1000, the input of trace-1000."""
    values = list(range(1, TRACE_N + 1))
    random.Random(seed).shuffle(values)
    return values


def kernel_inputs(seed: int) -> list[list[int]]:
    """Seeded shuffles at each of KERNEL_SIZES, then reversed 1..1024."""
    rng = random.Random(seed)
    inputs = []
    for n in KERNEL_SIZES:
        values = list(range(1, n + 1))
        rng.shuffle(values)
        inputs.append(values)
    inputs.append(list(range(KERNEL_SIZES[-1], 0, -1)))
    return inputs


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the files a workload reads; verify-n8 needs only its seed."""
    if workload == "trace-1000":
        (workdir / TRACE_INPUT).write_text("\n".join(map(str, trace_input(seed))) + "\n", encoding="utf-8")
    elif workload == "kernels-bare":
        (workdir / KERNEL_INPUTS).write_text(json.dumps(kernel_inputs(seed)), encoding="utf-8")


def read_trace_input(workdir: Path) -> list[int]:
    return [int(tok) for tok in (workdir / TRACE_INPUT).read_text(encoding="utf-8").split()]


def read_kernel_inputs(workdir: Path) -> list[list[int]]:
    return json.loads((workdir / KERNEL_INPUTS).read_text(encoding="utf-8"))


def run_kernels(algorithms, inputs: list[list[int]]) -> list[dict]:
    """Call ``algorithms[id].func(data)`` with no observer for every id
    and input; one result row per call."""
    rows = []
    for algo in KERNEL_IDS:
        func = algorithms[algo].func
        for data in inputs:
            report = func(data)
            rows.append(
                {"algo": algo, "comparisons": report.comparisons, "swaps": report.swaps, "output": report.output}
            )
    return rows


def setup(workload: str, seed: int, workdir: Path) -> None:
    import sortlab  # noqa: F401  (the import is part of what set-up costs)

    write_inputs(workload, seed, workdir)


def kernels(workdir: Path) -> None:
    from sortlab import ALGORITHMS

    json.dump(run_kernels(ALGORITHMS, read_kernel_inputs(workdir)), sys.stdout)


def readback(workdir: Path) -> None:
    from sortlab import replay_trace
    from sortlab.cli import load_trace

    events = load_trace(str(workdir / TRACE_FILE))
    json.dump({"output": replay_trace(read_trace_input(workdir), events)}, sys.stdout)


def main(argv: list[str]) -> None:
    command, *rest = argv
    if command == "setup":
        setup(rest[0], int(rest[1]), Path(rest[2]))
    elif command == "kernels":
        kernels(Path(rest[0]))
    elif command == "readback":
        readback(Path(rest[0]))
    else:
        raise SystemExit(f"child.py: unknown command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
