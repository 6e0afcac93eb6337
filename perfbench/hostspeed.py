"""Host-speed probe for the timing metrics.

On the shared 2-core host this benchmark was calibrated on, the speed
seen by one process drifts by 20-100 % within minutes (other tenants),
and a fixed replay's wall time drifts with it.  That drift, not the
program, would dominate run-to-run spread.  So each run also times a
fixed probe, independent of the program under test, right before and
after each measurement, and each measured time is reported scaled to a
host on which the probe takes ``REFERENCE_S``: ``scaled = wall *
REFERENCE_S / median(probes around it)``.  Scaling each measurement by
the probes around it, rather than by the run's median, follows drift
within the run.  The raw wall times are printed alongside.

The probe mixes what the scheduler's code does: a pointer chase through
a shuffled Python list (cache misses), dict updates, and small numpy
gathers and reductions.  On that host, over two minutes of a fixed
batch replay, it cut the quartile spread of the wall time from 0.16 to
0.08 (correlation 0.68); a pure integer loop cut nothing (0.16, 0.22).
Its data take about 5 MB.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Probe wall time of the reference host.
REFERENCE_S = 0.006

_SIZE = 1 << 16
_CHASE = 6000
_GATHERS = 60


def _chain(size: int, seed: int) -> List[int]:
    """``nxt[i]`` is the element after ``i`` in one shuffled cycle."""
    order = list(range(size))
    random.Random(seed).shuffle(order)
    nxt = [0] * size
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


_NEXT = _chain(_SIZE, 11)
_VALUES = [float(i) for i in range(_SIZE)]
_ARRAY = np.random.default_rng(1).random(1 << 17)
_INDEX = np.random.default_rng(2).integers(0, 1 << 17, 1 << 12)


def probe() -> float:
    """Wall time of one fixed probe."""
    nxt, values = _NEXT, _VALUES
    t0 = time.perf_counter()
    acc = {}
    j = 0
    for _ in range(_CHASE):
        j = nxt[j]
        acc[j & 4095] = acc.get(j & 4095, 0.0) + values[j]
    for _ in range(_GATHERS):
        _ARRAY[_INDEX].sum() + np.minimum(_ARRAY[:4096], 0.5).max()
    return time.perf_counter() - t0


def scale_of(probes: Sequence[float]) -> float:
    """Factor from wall time to reference-host time, given the probes
    taken around a measurement."""
    return REFERENCE_S / statistics.median(probes)


class HostSpeed:
    """Probe samples taken across one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, n: int = 3) -> List[float]:
        """Take ``n`` probes; returns them."""
        new = [probe() for _ in range(n)]
        self.samples.extend(new)
        return new

    def note(self) -> str:
        return (f"host probe median {statistics.median(self.samples) * 1e3:.2f}"
                f" ms over {len(self.samples)} samples, range "
                f"{min(self.samples) * 1e3:.2f}-"
                f"{max(self.samples) * 1e3:.2f} ms (reference "
                f"{REFERENCE_S * 1e3:g} ms)")
