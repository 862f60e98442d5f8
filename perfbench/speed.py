"""Correct timings for the machine's current speed.

The benchmark runs on shared machines whose speed changes by up to 1.8x
over seconds to tens of seconds. The cause is other tenants, not this
process: CPU time tracks wall time and no time is stolen. A fixed probe,
mixing interpreter work with small numpy calls like detnet's, is timed
between ops. Each op's time is multiplied by REF_MS / probe, where probe is
the mean of the readings before and after it. The result is the op's time
at the speed where the probe takes REF_MS.

The probe uses no detnet code, so a change to detnet cannot move it. On a
2-core Xeon VM, probe-corrected op times in the slow and fast states agreed
within 5% for the sim-modular, sim-walk, analytic and cli ops; raw times
differed by 60-75%.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REF_MS = 2.0  # about the probe's time in the fast state of the machine above
EVERY_S = 0.1  # speed states last seconds; a reading per 0.1 s keeps few ops astride a change

_FLOATS = [((i * 7919) % 10007) * 0.5 for i in range(20000)]
_rng = np.random.default_rng(0)


def _probe_work() -> float:
    ordered = sorted(_FLOATS)
    table = {i: ordered[i] * 0.5 for i in range(0, len(ordered), 4)}
    pos = np.zeros(2)
    acc = sum(table.values())
    for _ in range(150):
        step = _rng.normal(size=2)
        pos = pos + 0.1 * step / float(np.linalg.norm(step))
        acc += float(np.linalg.norm(pos))
    return acc


def probe_ms() -> float:
    """Best of three probe timings, in ms."""
    best = math.inf
    for _ in range(3):
        start = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best * 1e3


class SpeedTrack:
    """One correction factor per op, from probe readings taken at most every
    EVERY_S seconds between ops."""

    def __init__(self):
        self.factors: list[float] = []
        self.readings: list[float] = []
        self._pending = 0
        self._last = self._read()
        self._at = perf_counter()

    def _read(self) -> float:
        ms = probe_ms()
        self.readings.append(ms)
        return ms

    def op_done(self) -> None:
        self._pending += 1
        if perf_counter() - self._at >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        """Read the probe and give every op since the last reading its factor."""
        if not self._pending:
            return
        now = self._read()
        self.factors += [2.0 * REF_MS / (self._last + now)] * self._pending
        self._last, self._pending, self._at = now, 0, perf_counter()
