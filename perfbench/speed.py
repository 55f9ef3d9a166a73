"""Host-speed-adjusted timing.

On a shared host the speed of one core drifts by up to 2x within seconds,
and CPU time drifts with wall time, so raw seconds of identical work spread
far wider than any regression worth catching. Every timed call is therefore
bracketed by a probe: a fixed, benchmark-owned reference A* solve (393
expansions, a few ms) that exercises the same interpreter work as the
engines (tuples, dicts, a heap). A call's adjusted time is its raw time
scaled by PROBE_NOMINAL_S over the mean of the probes right before and right
after it: the time it would have taken on a host that runs the probe in
PROBE_NOMINAL_S. The probe never calls parsearch, so only the host moves it.
"""

from __future__ import annotations

import time

import oracle

PROBE_START = (5, 1, 3, 6, 2, 7, 8, 0, 9, 10, 4, 12, 13, 14, 11, 15)
PROBE_NOMINAL_S = 0.004  # about the probe's median on a 2-core Xeon, CPython 3.11.7


def probe() -> float:
    start = time.perf_counter()
    oracle.astar(PROBE_START, oracle.TILE_GOAL.__eq__, oracle.tile_edges, oracle.manhattan, 1000)
    return time.perf_counter() - start


class SpeedClock:
    """Times calls in raw and host-speed-adjusted seconds; consecutive calls
    share the probe between them."""

    def __init__(self):
        self._probe = probe()
        self.raw = 0.0  # of the last measured call
        self.adjusted = 0.0

    def measure(self, fn):
        before = self._probe
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.raw = time.perf_counter() - start
            self._probe = probe()
            self.adjusted = self.raw * PROBE_NOMINAL_S * 2 / (before + self._probe)
