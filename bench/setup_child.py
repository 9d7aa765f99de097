"""Time one fresh-process set-up of a workload.

Set-up is ``import conicsteps``, building the workload's seeded inputs
(for ``cli``, writing its scene file) and one untimed warm-up op.  The
clock starts before any of that and after interpreter start.  Prints the
elapsed seconds; exits 1 if the warm-up op fails its check.

Usage::

    python3 bench/setup_child.py <workload> <seed> <workdir>
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by interpreter start)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import conicsteps  # noqa: E402,F401
import workloads  # noqa: E402

_w = workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
_ok = _w.check(0, _w.op(0))
_elapsed = time.perf_counter() - _T0

import statistics  # noqa: E402

import calibrate  # noqa: E402

print(_elapsed, statistics.median(calibrate.reference_seconds() for _ in range(5)))
sys.exit(0 if _ok else 1)
