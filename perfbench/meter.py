"""Speed meter: runs a fixed pure-Python loop until stopped.

    python3 perfbench/meter.py OUT

The benchmark runs it at the lowest priority on the same CPU as the
workload's children, so it gets about one per cent of that CPU in short
slices spread over the whole run.  On a shared virtual machine the speed
of a CPU drifts by a fifth or more between runs, and the meter's loops
slow with it, so the workload's CPU time divided by the meter's mean CPU
time per loop is steadier than either (see ``run.py``).  The loop is
the comparison-and-swap double loop that sortlab's kernels run, on a
fixed input, and uses nothing outside this file.

Each loop appends ``<monotonic end> <thread CPU seconds>`` to a buffer;
SIGTERM writes the buffer to OUT and exits.
"""

import os
import signal
import sys
import time

SIZE = 200


def loop() -> int:
    a = list(range(SIZE, 0, -1))
    swaps = 0
    for i in range(SIZE):
        ai = a[i]
        for j in range(SIZE):
            aj = a[j]
            if ai < aj:
                a[i] = aj
                a[j] = ai
                ai = aj
                swaps += 1
    return swaps


def main(out_path: str) -> None:
    rows = []

    def stop(*_):
        with open(out_path, "w", encoding="ascii") as out:
            out.writelines(f"{end!r} {cpu!r}\n" for end, cpu in rows)
        sys.exit(0)

    signal.signal(signal.SIGTERM, stop)
    os.nice(19)
    while True:
        start = time.thread_time()
        loop()
        rows.append((time.monotonic(), time.thread_time() - start))


if __name__ == "__main__":
    main(sys.argv[1])
