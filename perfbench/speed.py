"""Wall time scaled by the machine's measured speed.

The cores this benchmark runs on are shared.  For seconds at a time a process
runs up to twice as slow, in wall and in CPU time alike, because of work
outside its own container; counted in plain seconds that gives spreads of
20% between runs of the same code.

Each measured child therefore runs the probe loop of
``probe/sitecustomize.py`` every 50 ms.  ``Clock`` turns a child's probe
samples into *reference seconds*: the time between two ``perf_counter``
readings spent outside probes, each stretch scaled by ``REFERENCE_PROBE_S /
probe duration``, where the duration is the median of the two probes on
either side of the stretch.  A reference second is a wall second on a core
where one probe takes ``REFERENCE_PROBE_S``, about what it takes on an idle
core of the 2.0 GHz Xeon this benchmark was written on.  ``perf_counter`` is
the system-wide monotonic clock, so the parent can place the child's start
and exit on the same axis; before the first and after the last probe the
nearest rate is used.
"""

from __future__ import annotations

import bisect
import statistics

REFERENCE_PROBE_S = 1.2e-3
WINDOW = 2            # probes on each side whose median sets a stretch's rate


class Clock:
    """Reference seconds from one process's probe samples."""

    def __init__(self, samples):
        samples = sorted(samples)
        self.starts = [s for s, _ in samples]
        self.ends = [e for _, e in samples]
        durations = [e - s for s, e in samples]
        n = len(durations)
        # stretch k runs from the end of probe k-1 to the start of probe k;
        # stretch n runs on after the last probe
        self._rates = [REFERENCE_PROBE_S / statistics.median(
            durations[max(0, k - WINDOW):min(n, k + WINDOW)])
            for k in range(n + 1)]
        cum = [0.0]
        for k in range(1, n):
            cum.append(cum[-1] + (self.starts[k] - self.ends[k - 1])
                       * self._rates[k])
        self._cum = cum

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            samples = [tuple(float(x) for x in ln.split()) for ln in fh]
        if not samples:
            raise ValueError("no speed samples in %s" % path)
        return cls(samples)

    def ref(self, t: float) -> float:
        """Reference seconds from the first probe's start to ``t``."""
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0:
            return (t - self.starts[0]) * self._rates[0]
        if t <= self.ends[k]:
            return self._cum[k]
        return self._cum[k] + (t - self.ends[k]) * self._rates[k + 1]

    def seconds(self, t0: float, t1: float) -> float:
        return self.ref(t1) - self.ref(t0)

    def wall_seconds(self, t0: float, t1: float) -> float:
        """Wall seconds in [t0, t1] outside the probes."""
        return (t1 - t0) - sum(max(0.0, min(e, t1) - max(s, t0))
                               for s, e in zip(self.starts, self.ends))
