"""A fixed reference computation that measures how fast the host runs right now.

The benchmark's host changes speed by up to 2x within seconds, and a fixed
pure-Python loop shows the same drift, so raw wall times of two runs a minute
apart are not comparable.  The benchmark therefore times this yardstick
between units of work and reports each timing scaled by
``REFERENCE_S / yardstick time``: the time the work would have taken at a
host speed where the yardstick takes exactly ``REFERENCE_S``.  The yardstick
is the benchmark's own code, so no change to the program moves it.

It mixes what a trial does: a Python method walk, numpy generator creation
and binomial draws.
"""

from __future__ import annotations

import multiprocessing
import statistics
from time import perf_counter

import numpy as np

#: Host speed that scaled timings refer to: the yardstick takes about 0.85 ms
#: on an unloaded core of the machine in NOTES.md and 1.2-1.9 ms when loaded.
REFERENCE_S = 0.001
#: Scale factors use the median of this many neighbouring yardstick samples.
WINDOW = 5


class _Walker:
    __slots__ = ("cursor", "n")

    def __init__(self, n: int):
        self.cursor = -1
        self.n = n

    def step(self):
        self.cursor += 1
        return self.cursor if self.cursor < self.n else None


def yardstick() -> int:
    total = 0
    for k in range(8):
        walker = _Walker(300)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=k, spawn_key=(k,))))
        while (i := walker.step()) is not None:
            if i % 10 == 0:
                total += int(gen.binomial(1 << 30, 0.5))
    return total


def time_yardstick() -> float:
    """Wall seconds of one yardstick run."""
    t0 = perf_counter()
    yardstick()
    return perf_counter() - t0


def _partner_loop(conn) -> None:
    while conn.recv():
        conn.send(time_yardstick())


class HostSpeed:
    """Yardstick samples taken between units of work: one before each unit
    and one after the last.

    With ``processes=2`` a partner process runs the yardstick alongside the
    caller and a sample is the mean of both times, so that it measures the
    speed of two busy cores, as a two-worker pool sees it.
    """

    def __init__(self, processes: int = 1) -> None:
        self.samples: list[float] = []
        self._conn = self._partner = None
        if processes == 2:
            ctx = multiprocessing.get_context("spawn")
            self._conn, child_conn = ctx.Pipe()
            self._partner = ctx.Process(target=_partner_loop, args=(child_conn,), daemon=True)
            self._partner.start()
            child_conn.close()

    def sample(self) -> None:
        if self._conn is None:
            self.samples.append(time_yardstick())
            return
        self._conn.send(True)
        mine = time_yardstick()
        self.samples.append((mine + self._conn.recv()) / 2)

    def close(self) -> None:
        """Stop the partner process, if any, and wait for it."""
        if self._partner is not None:
            self._conn.send(False)
            self._partner.join(timeout=30)
            self._conn.close()
            self._partner = self._conn = None

    def scale(self, unit: int) -> float:
        """Factor that turns unit ``unit``'s wall times into reference times."""
        lo = max(0, unit - WINDOW // 2)
        return REFERENCE_S / statistics.median(self.samples[lo:lo + WINDOW])
