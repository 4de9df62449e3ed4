"""Print the seconds a fresh interpreter takes to import sgnlab (with numpy
and scipy) and build one workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD
"""

from time import perf_counter

_T0 = perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]][0]()
print(f"{perf_counter() - _T0!r}")
