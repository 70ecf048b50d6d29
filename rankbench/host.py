"""Host-side measurements: the drift probe, peak memory, leak checks.

**Drift probe.** On a shared 2-core host a fixed numpy + dict kernel
ranged from 60 to 165 ms within one minute, in stretches of 5-10 s. The
probe times a small fixed kernel (about 5 ms on an idle host) just
before and just after each measured operation. One probe run is itself
noisy, so an operation's host reference is the median of every probe
run within :data:`REFERENCE_WINDOW_S` of it — short enough to follow the
drift, long enough to hold several probe runs. Dividing an operation's
time by its reference and multiplying by :data:`REFERENCE_NOMINAL_MS`
expresses it in ``ref-ms``: milliseconds on a host where the probe takes
exactly :data:`REFERENCE_NOMINAL_MS`.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import zlib
from pathlib import Path
from typing import List, Set, Tuple

import numpy as np

REFERENCE_NOMINAL_MS = 5.0
REFERENCE_WINDOW_S = 3.0
_SHM_DIR = Path("/dev/shm")


class DriftProbe:
    """A fixed kernel mixing numpy gathers, dict lookups and zlib
    compression — the kinds of work the ranked paths and their
    checkpoints do."""

    def __init__(self, repeats: int = 4) -> None:
        self.repeats = repeats
        rng = np.random.default_rng(20180416)
        size = 60_000
        self._values = rng.random(size)
        self._index = rng.integers(0, size, size)
        self._starts = np.arange(0, size, 40)
        self._table = {key: key * 3 for key in range(12_000)}
        self._keys = list(self._table)
        self._blob = rng.integers(0, 64, 64_000, dtype=np.uint8).tobytes()
        #: (perf_counter at the run's midpoint, ms) per probe run.
        self.samples: List[Tuple[float, float]] = []

    def _kernel(self) -> float:
        total = 0.0
        table = self._table
        for _ in range(self.repeats):
            gathered = self._values[self._index]
            total += float(np.add.reduceat(gathered, self._starts).sum())
            total += sum(table[key] for key in self._keys)
        return total + len(zlib.compress(self._blob, 6))

    def measure(self) -> float:
        """Time one kernel run in ms (scaled to the full 4-repeat kernel)
        and remember it."""
        started = time.perf_counter()
        self._kernel()
        ended = time.perf_counter()
        elapsed = (ended - started) * 1000.0 * 4 / self.repeats
        self.samples.append(((started + ended) / 2.0, elapsed))
        return elapsed

    @property
    def samples_ms(self) -> List[float]:
        return [elapsed for _, elapsed in self.samples]

    def reference_ms(self, start: float, end: float) -> float:
        """Median probe time within REFERENCE_WINDOW_S of [start, end]."""
        near = [elapsed for when, elapsed in self.samples
                if start - REFERENCE_WINDOW_S <= when
                <= end + REFERENCE_WINDOW_S]
        return statistics.median(near or self.samples_ms)


def normalized_ms(raw_ms: float, reference_ms: float) -> float:
    """``raw_ms`` on a host where the probe takes the nominal time."""
    return raw_ms * REFERENCE_NOMINAL_MS / reference_ms


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments() -> Set[str]:
    """Names of the shared-memory segments currently on the host."""
    try:
        return {entry.name for entry in _SHM_DIR.iterdir()}
    except OSError:
        return set()


def child_pids() -> List[int]:
    """Live (non-zombie) child processes of this process."""
    me = str(os.getpid())
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, ppid = fields[0], fields[1]
        if ppid == me and state != "Z":
            children.append(int(entry.name))
    return children


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, the one helper
    process ``multiprocessing`` starts on the first segment a run
    creates and would otherwise leave running until interpreter exit."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
