"""A fixed reference computation, timed to track the machine's speed.

The machine this benchmark was sized on gives it two vCPUs of a shared
host whose speed drifts by up to 1.7x over minutes. The pipeline times
this computation at every phase boundary of every round; the mean
timing divided by ``NOMINAL_S`` is the run's slowdown.

The computation uses only Python and NumPy, never the program, so no
change to the program can change it: a small assignment of points to
centres, then a tally in a dict, the same mix of interpreter work and
small array operations as the program's hot path.
"""

from __future__ import annotations

import gc
import time

import numpy as np

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(64, 8))
_CENTRES = _rng.normal(size=(50, 8))
#: Iterations per timing.
_ITERATIONS = 400
#: Seconds one timing takes on the machine the benchmark was sized on
#: (2 vCPUs of an Intel Xeon host): 0.041-0.049 s in its fast state,
#: 0.055-0.062 s in its slow one. Run times are reported at this speed.
NOMINAL_S = 0.05


def reference_seconds() -> float:
    """Wall time of one run of the reference computation."""
    # Collection time grows with the program's heap; keep it out.
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        tally: dict[int, int] = {}
        for _ in range(_ITERATIONS):
            diff = _POINTS[:, None, :] - _CENTRES[None, :, :]
            nearest = np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)
            for index in nearest.tolist():
                tally[index] = tally.get(index, 0) + 1
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
