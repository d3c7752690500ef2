"""Run ``python -m hypergames.cli`` in this process and write its peak RSS.

Usage: ``python3 bench/cli_peak.py PEAK_FILE CLI_ARGS...``

At exit the process writes its ``VmHWM`` from ``/proc/self/status`` (kB) to
``PEAK_FILE``.  That is the high-water mark of this process's own address
space.  The ``ru_maxrss`` a parent reads from ``wait4`` is not: Linux records
the address space replaced at ``exec``, which after a fork or vfork holds the
parent's pages, so it reads at least the parent's RSS.
"""

import re
import runpy
import sys

peak_file = sys.argv[1]
sys.argv = ["hypergames.cli", *sys.argv[2:]]
try:
    runpy.run_module("hypergames.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kb = re.search(r"^VmHWM:\s+(\d+) kB", status.read(), re.M).group(1)
    with open(peak_file, "w", encoding="ascii") as out:
        out.write(peak_kb)
