"""Time one fresh set-up: import qgeo and build a workload's inputs.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the elapsed seconds.  ``run.py`` starts this several times in fresh
interpreters and reports the median as ``setup_s``.
"""

from time import perf_counter

_t0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

common.import_qgeo()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), Path(sys.argv[3]))
print(perf_counter() - _t0)
