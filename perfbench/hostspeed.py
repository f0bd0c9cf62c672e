"""Host-speed probe: a fixed kernel timed between units of the workload.

On a shared host the CPU speed a process gets drifts by tens of percent over
minutes, so raw wall times of the same code spread more between runs than a
regression bound allows.  The benchmark therefore times this probe next to
each unit of work (before every print) and scales that unit's time by
``REFERENCE_S / median(probe times)`` of its pass: the result reads as the
seconds the work would take on a host where the probe takes ``REFERENCE_S``.

The probe is benchmark code on NumPy only.  It shares no code with
powertrace, so a change to the program moves the scaled times and leaves the
probe alone.  Its mix follows the experiment's profile: per-sample sine and
Gaussian noise (tracesim), a cumulative-sum moving average with gathers
(detect.smooth) and per-row float formatting (CSV export).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe time on a 2-vCPU x86-64 cloud host at its usual speed; only
# fixes the scale of the reported seconds.
REFERENCE_S = 0.05

_N = 1 << 19
_ROWS = 6000


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    t = np.arange(_N, dtype=np.float64) / 10000.0
    values = np.sin(0.3 + 2.0 * np.pi * 37.0 * t) + rng.normal(0.0, 0.01, _N)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    idx = np.arange(_N)
    lo = np.maximum(idx - 25, 0)
    hi = np.minimum(idx + 26, _N)
    averaged = ((csum[hi] - csum[lo]) / (hi - lo)).astype(np.float32)
    rows = [f"{i / 10000.0:.6f},{averaged[i]:.6f}" for i in range(_ROWS)]
    del rows
    return time.perf_counter() - started


def scale(probe_times: list[float]) -> float:
    """Factor that turns seconds measured next to these probes into reference seconds."""
    return REFERENCE_S / statistics.median(probe_times)
