"""Host-speed reference: a fixed kernel timed around every measured span.

On a shared host the same scan can take 1.5-2x longer in one minute than
in the next, in CPU time as well as wall time, because other guests
compete for the core's caches and memory bandwidth. A median over a run
does not remove that: whole runs land in slow minutes. So every repeat of
the workload and every set-up is bracketed by this kernel, which is
independent of the program, and its time is scaled by ``ROUND_S`` over
the mean of the two per-round reference times around it. The adjusted
time is what the span would take with the kernel at its nominal speed; a
slower program still reads slower by the same factor. Raw times are
reported alongside. Speed also swings by about 20% from one tenth of a
second to the next, which no reference can follow; the kernel runs for
about half a second around a set-up and two seconds around a repeat, so
that those swings average out in it as they do in the span.

The kernel mixes what the program's hot paths do: building many small
frozen dataclass instances from numpy integer arrays, a Python reduction
over them, and normalising densities on a few thousand grid points.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Nominal time of one kernel round: about its median on one 2.1 GHz Xeon
# core (KVM guest) with little competing load. It only sets the scale of
# the adjusted times.
ROUND_S = 0.03375
# Rounds taken around a set-up (a few seconds) and around a repeat of the
# workload (several seconds): the longer the span, the longer its reference.
SETUP_ROUNDS = 16
REPEAT_ROUNDS = 64

_PAIRS = np.random.default_rng(0).integers(0, 5, size=(2, 20_000))
_GRID = np.linspace(0.01, 3.0, 4096)
_COUNTS = np.arange(26.0)
_LOG_FACT = np.cumsum(np.log(np.maximum(_COUNTS, 1.0)))


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.b < 0:
            raise ValueError("negative count")


def kernel(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        pairs = [_Pair(int(a), int(b)) for a, b in zip(*_PAIRS)]
        diff = sum(p.a - p.b for p in pairs) / len(pairs)
        for k in range(1500):
            mu = 0.5 + (k % 11) * 0.1 + abs(diff)
            pmf = np.exp(_COUNTS * np.log(mu) - mu - _LOG_FACT)
            total += float(pmf[k % 26] / pmf.sum())
        for k in range(150):
            y = np.exp(-_GRID * (k % 7 + abs(diff))) * np.log1p(_GRID)
            y /= np.trapezoid(y, _GRID)
            total += float(y[k])
    return total


def measure(rounds: int) -> float:
    """Seconds per round of ``rounds`` kernel rounds."""
    t0 = time.perf_counter()
    kernel(rounds)
    return (time.perf_counter() - t0) / rounds


class HostClock:
    """Reference times per round, taken between measured spans."""

    def __init__(self, rounds: int = SETUP_ROUNDS):
        self.refs = [measure(rounds)]

    def factor(self, rounds: int) -> float:
        """Measure the reference again; the adjustment for the span just ended.

        Multiply the span's raw time by it: ``ROUND_S`` over the mean of the
        per-round reference times taken just before and just after the span.
        """
        self.refs.append(measure(rounds))
        return ROUND_S / ((self.refs[-2] + self.refs[-1]) / 2.0)

    def host_speed(self) -> float:
        """Median reference speed over the run, 1.0 being nominal."""
        return ROUND_S / statistics.median(self.refs)
