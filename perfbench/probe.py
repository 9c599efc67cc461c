"""Machine-speed probe and the probe-normalised engine clock.

The host's speed drifts by tens of percent over seconds to minutes, so a
raw wall-clock session time mostly measures the neighbours.  A short,
fixed probe (interpreter loop, dict lookups, NumPy kernels — the mix the
engine itself runs) is timed at points interleaved through the run.  A
timed interval is then converted into *normalised seconds*:

    normalised = raw × REFERENCE_PROBE_MS / probe_ms

where ``probe_ms`` is the mean of the probe readings bounding the
interval, piecewise between consecutive readings.  The probe's own time
and the simulated user's time are excluded from the engine clock, so
neither shows in any metric.
"""

from __future__ import annotations

import bisect
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

__all__ = ["REFERENCE_PROBE_MS", "SAMPLE_INTERVAL_S", "Normaliser", "SpeedProbe", "Timeline"]

#: Probe reading that defines one normalised second: an interval over
#: which the probe read ``p`` ms counts ``REFERENCE_PROBE_MS / p`` times
#: its raw length.  A unit constant, close to the probe's typical reading
#: on a 2-vCPU x86 VM, so normalised and raw seconds read alike there.
REFERENCE_PROBE_MS = 3.0
#: Least engine time between two readings taken at probe opportunities:
#: well inside the 2–5 s over which the host's speed decorrelates, and
#: rare enough that the probe stays a small share of the run.
SAMPLE_INTERVAL_S = 0.2
#: Seed of the probe's fixed data, so every process runs the same probe.
PROBE_SEED = 20110829


class SpeedProbe:
    """A fixed ~3 ms unit of interpreter, dict-lookup and NumPy work.

    The dict-lookup part matters: the engine's hot paths are dictionary
    and list traffic as much as arithmetic, and a compute-only probe
    tracks their slowdowns far less closely.  The footprint is well under
    1 MB.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(PROBE_SEED)
        keys = [f"value-{i}" for i in range(4096)]
        self._table = {key: i for i, key in enumerate(keys)}
        self._lookups = [keys[int(i)] for i in rng.permutation(len(keys))]
        self._matrix = rng.random((48, 48))
        self._codes = rng.integers(0, 256, size=16384)
        self.sink = 0

    def measure_ms(self) -> float:
        """Run the probe once and return its duration in milliseconds."""
        start = time.perf_counter()
        table = self._table
        acc = 0
        for key in self._lookups:
            acc += table[key]
        for i in range(6000):
            acc ^= (i * 2654435761) & 0xFFFF
        product = self._matrix @ self._matrix
        counts = np.bincount(self._codes, minlength=256)
        order = np.argsort(self._codes, kind="stable")
        acc += int(counts[1]) + int(order[1]) + int(product[1, 1])
        elapsed = time.perf_counter() - start
        self.sink = acc  # keep the work observable
        return elapsed * 1000.0


class Timeline:
    """An engine clock that pauses for excluded work, plus probe readings.

    ``now()`` is wall time minus every interval spent inside
    :meth:`paused` — probe runs and the simulated user's answers.
    ``samples`` holds ``(engine time, probe ms)`` readings; a reading is
    the median of a few back-to-back probe runs.
    """

    def __init__(
        self,
        probe: SpeedProbe,
        repeats: int = 3,
        clock=time.perf_counter,
    ) -> None:
        self.probe = probe
        self.repeats = repeats
        self.samples: list[tuple[float, float]] = []
        self._clock = clock
        self._excluded = 0.0
        self._paused_at: float | None = None
        self._last_sample = float("-inf")

    def now(self) -> float:
        """Engine seconds: wall time with paused intervals removed."""
        if self._paused_at is not None:
            return self._paused_at - self._excluded
        return self._clock() - self._excluded

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Exclude the enclosed work from the engine clock (re-entrant)."""
        if self._paused_at is not None:
            yield
            return
        self._paused_at = self._clock()
        try:
            yield
        finally:
            self._excluded += self._clock() - self._paused_at
            self._paused_at = None

    def sample(self, repeats: int | None = None) -> float:
        """Take one probe reading now; its time is excluded."""
        with self.paused():
            at = self.now()
            runs = [self.probe.measure_ms() for _ in range(repeats or self.repeats)]
            reading = statistics.median(runs)
            self.samples.append((at, reading))
        self._last_sample = at
        return reading

    def maybe_sample(self) -> None:
        """Take a reading if the last one is at least ``SAMPLE_INTERVAL_S`` old."""
        if self.now() - self._last_sample >= SAMPLE_INTERVAL_S:
            self.sample()

    def write_hook(self, tid, attribute, old, new, source) -> None:
        """``Database`` write hook: a probe opportunity during the drain."""
        self.maybe_sample()


class Normaliser:
    """Maps engine seconds to probe-normalised seconds.

    Between consecutive readings ``(t_i, p_i)`` and ``(t_j, p_j)`` the
    clock runs at ``REFERENCE_PROBE_MS / ((p_i + p_j) / 2)``; before the
    first and after the last reading at that reading's rate.
    """

    def __init__(self, samples: list[tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("normalisation needs at least one probe reading")
        ordered = sorted(samples)
        self._times = [t for t, _ in ordered]
        self._probes = [p for _, p in ordered]
        self._cumulative = [0.0]
        for i in range(1, len(ordered)):
            self._cumulative.append(
                self._cumulative[-1] + (self._times[i] - self._times[i - 1]) * self._rate(i - 1)
            )

    def _rate(self, i: int) -> float:
        """Normalised seconds per raw second on segment ``i .. i+1``."""
        j = min(i + 1, len(self._probes) - 1)
        return REFERENCE_PROBE_MS / ((self._probes[i] + self._probes[j]) / 2.0)

    def at(self, t: float) -> float:
        """Normalised time of engine instant *t*."""
        times = self._times
        if t <= times[0]:
            return (t - times[0]) * REFERENCE_PROBE_MS / self._probes[0]
        last = len(times) - 1
        if t >= times[last]:
            return self._cumulative[last] + (t - times[last]) * REFERENCE_PROBE_MS / self._probes[last]
        i = bisect.bisect_right(times, t) - 1
        return self._cumulative[i] + (t - times[i]) * self._rate(i)

    def elapsed(self, start: float, end: float) -> float:
        """Normalised length of the engine interval ``[start, end]``."""
        return self.at(end) - self.at(start)
