"""Calibrated time: CPU time scaled by the speed the host gives right now.

On a virtual machine of a shared host, the speed one CPU second buys moves
by tens of percent over minutes, with the load the host's other tenants put
on its cores and caches. That drift is the same for every commit measured, so
the benchmark divides it out. A fixed reference computation, owned by the
benchmark and never changed, runs right before and right after every timed
span. The span's CPU time is divided by the mean CPU time of the two
reference runs and multiplied by ``REF_SECONDS``. The result, in calibrated
seconds, is the CPU time the span would take on a host that runs the
reference in exactly ``REF_SECONDS``.

The reference mixes what the workloads spend their time on: interpreter
loops, small matrix products, einsum reductions and argsort over gallery-sized
rows. It calls nothing from the library, so no change to the library moves it.
"""

from __future__ import annotations

import time

import numpy as np

# one reference run counts as this many calibrated seconds; on a 2-core Intel
# Xeon VM it takes about this much CPU time in the host's quiet phases
REF_SECONDS = 0.2
ROUNDS = 300

_rng = np.random.default_rng(0)
_SQUARE = _rng.normal(size=(48, 48))
_ROWS = _rng.normal(size=(64, 2636))
_VOLUME = _rng.normal(size=(8, 16, 32, 16))


def reference() -> float:
    """Run the reference computation once; return the CPU seconds it took."""
    start = time.process_time()
    acc = 0.0
    for i in range(ROUNDS):
        acc += float((_SQUARE @ _SQUARE.T)[0, 0])
        acc += float(np.argsort(_ROWS[i % len(_ROWS)], kind="stable")[0])
        acc += float(np.einsum("bchw,bchw->bc", _VOLUME, _VOLUME).sum())
        s = 0
        for k in range(3000):
            s += k * k % 7
        acc += s
    seconds = time.process_time() - start
    if not np.isfinite(acc):
        raise RuntimeError("the reference computation gave a non-finite result")
    return seconds


def calibrated(cpu_seconds: float, ref_before: float, ref_after: float) -> float:
    """CPU seconds of a span, scaled by the reference runs around it."""
    return cpu_seconds * REF_SECONDS / ((ref_before + ref_after) / 2.0)
