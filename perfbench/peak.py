"""Write this process's peak resident memory to $PERFBENCH_PEAK_FILE at exit.

Every child of the benchmark imports this module first.  The figure is
``VmHWM`` from /proc/self/status, the high-water mark of the process's
own address space, in kB.  ``ru_maxrss`` (from ``wait4`` or
``RUSAGE_SELF``) is not used: at ``exec`` the kernel carries into it the
peak of the process that spawned the child, so a child smaller than the
benchmark's own process would report the benchmark's size.
"""

import atexit
import os


def _write_peak() -> None:
    path = os.environ.get("PERFBENCH_PEAK_FILE")
    if not path:
        return
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                with open(path, "w", encoding="ascii") as out:
                    out.write(line.split()[1])
                return


atexit.register(_write_peak)
