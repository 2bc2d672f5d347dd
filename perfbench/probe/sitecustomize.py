"""Speed probe that Python starts in each measured child process.

``run.py`` puts this directory on ``PYTHONPATH`` and names an output file in
``PERFBENCH_PROBE_FILE``; Python imports this module at start-up.  It runs a
fixed probe loop now, every 50 ms from a timer signal, and at exit, and
writes the ``perf_counter`` start and end of each probe to that file.  The
loop does dict stores and builds small tuples, like rvq's inner loops, with
the garbage collector off.  ``speed.py`` turns the samples into reference
seconds.  Only built-in modules are imported, so the probe adds no import
time to the process it measures.
"""

import os

_OUT = os.environ.get("PERFBENCH_PROBE_FILE")
PROBE_LOOPS = 3000
INTERVAL_S = 0.05

if _OUT:
    import atexit
    import gc
    import signal
    import time

    _samples = []

    def _sample(signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            d = {}
            for i in range(PROBE_LOOPS):
                d[(i * 7) % 1000] = tuple(range(i % 10))
            _samples.append((t0, time.perf_counter()))
        finally:
            if enabled:
                gc.enable()

    def _finish():
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _sample()
        with open(_OUT, "w") as fh:
            fh.write("".join("%r %r\n" % s for s in _samples))

    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    atexit.register(_finish)
