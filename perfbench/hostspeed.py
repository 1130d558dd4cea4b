"""A fixed reference kernel that reads how fast the host runs right now.

The small VM behind ``baseline.json`` changes speed by up to 1.7x within
seconds and drifts by a quarter over minutes; the process's CPU time
follows its wall time, so the swings are slower execution, not stolen
time.  Every time the benchmark reports is therefore scaled to a host of
fixed speed: a span that took ``wall`` seconds, with the kernel taking
``k`` seconds around it, reports ``wall * REF_S / k``.

The kernel is the benchmark's own numpy code, a one-row forward pass
through a small ReLU net drawn at random, the same kind of work as the
weak-seed loop.  A change to achilles cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a quiet host: the unit of the reported seconds.
REF_S = 0.001
# One reading is the median of a few short bursts, so that one preemption
# inside the kernel does not set it.
_ROWS, _BURSTS = 50, 5

_rng = np.random.default_rng(0)
_LAYERS = [(_rng.standard_normal((a, b)), _rng.standard_normal(b)) for a, b in ((2, 24), (24, 24), (24, 2))]


def _burst() -> float:
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for _ in range(_ROWS):
        x = rng.uniform(-1.0, 1.0, (1, 2))
        for weight, bias in _LAYERS:
            x = np.maximum(x @ weight + bias, 0.0)
        float(x[0, 0] - x[0, 1])
    return time.perf_counter() - started


def kernel_s() -> float:
    """Wall seconds one burst of the reference kernel takes now."""
    return statistics.median(_burst() for _ in range(_BURSTS))


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds, for a span between
    two kernel readings."""
    return REF_S / ((before + after) / 2.0)
