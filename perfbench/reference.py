"""A probe that measures how fast the host is while an op runs.

The benchmark's host is a small share of a shared machine, whose speed
drifts by tens of percent within seconds and minutes as neighbours come
and go.  While the ops run, a thread of the benchmark's own process,
on the same CPU, times a fixed small computation (``tick``) every
``INTERVAL_S``.  Each op's times are scaled by ``NOMINAL_TICK_S`` over
the typical tick time measured while it ran, so a figure reads in seconds
of a host running a tick in ``NOMINAL_TICK_S``.  A change of the
program moves the scaled figures as it moves the raw ones; a change of
host speed slows the op and the ticks alike, and cancels.

A tick is pure Python with rationals and a dictionary, like most of the
ops' work, and uses nothing of persistinfo.  It takes about 1% of the
CPU the op runs on.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

#: a typical tick time on a 2-vCPU Xeon VM, Python 3.11
NOMINAL_TICK_S = 300e-6
INTERVAL_S = 0.02


def tick() -> dict:
    acc, table = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, i + 7)
        table[i % 7, i % 5] = acc
    return table


class Probe:
    """Times ``tick`` every ``INTERVAL_S`` on a background thread, from
    ``with Probe() as probe:`` until the block ends."""

    def __init__(self) -> None:
        self._samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            tick()
            self._samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def take(self) -> list:
        """Tick times since the last call."""
        samples, self._samples = self._samples, []
        return samples


def typical(samples: list) -> float:
    """Mean of the middle 80% of tick times.  The trimmed tail holds the
    ticks that the op's process pre-empted, which the mean would let
    dominate."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def scale(samples: list) -> float:
    """Factor from seconds measured during ``samples`` to seconds at the
    nominal tick time."""
    return NOMINAL_TICK_S / typical(samples) if samples else 1.0
