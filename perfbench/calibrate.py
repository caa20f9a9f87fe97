"""Host-speed calibration for the srdepth benchmark.

On a shared host the CPU time of the same work drifts with what the other
tenants run: the loop below took 0.5 ms in one second and 0.9 ms in the
next, and a 448-op pass of ``corpus-depth`` took from 12 to 17.6 CPU seconds
within minutes.  While a child of the benchmark runs, a ``Sampler``
thread in the benchmark's process times a short fixed loop on the same CPU
every ``PERIOD_S``.  The mean sample over a pass tracks how much slower than
usual the host ran during it, and the end-to-end metrics scale CPU times by
``REFERENCE_S / mean sample``: the CPU time the work would take on a host
where the loop takes ``REFERENCE_S``.  The loop never touches srdepth, so a
change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from pathlib import Path

REFERENCE_S = 0.001  # fixed; changing it rescales every normalized metric
PERIOD_S = 0.05
LOOP = 600  # iterations: under 1 ms, so the sampler takes about 3% of the CPU


def _loop() -> int:
    # tuples, sorting, dict updates and frozenset hashing, like srdepth's own
    # face bookkeeping
    acc, seen = 0, {}
    for i in range(LOOP):
        t = tuple(sorted(((i * 7919) % 97, (i * 31) % 89, i % 13)))
        seen[t] = seen.get(t, 0) + 1
        acc ^= hash(frozenset(t))
    return acc


def sample_s() -> float:
    """CPU seconds of this thread for one run of the loop, timed after an
    untimed run that refills the caches the program left cold."""
    _loop()
    c0 = time.thread_time()
    _loop()
    return time.thread_time() - c0


class Sampler:
    """Samples the loop every PERIOD_S while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(sample_s())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append(sample_s())

    def scale(self) -> float:
        """Factor that turns a CPU time measured during the block into one at
        the reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)


def pin_to_current_cpu() -> int | None:
    """Keep this process, and every thread and child it starts later, on the
    CPU it runs on now, so that the sampler times the CPU the program runs
    on.  Returns that CPU, or None where affinity cannot be set."""
    try:
        # field 39 of /proc/self/stat, the 37th after the parenthesized name
        cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return cpu
