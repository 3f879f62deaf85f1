"""Timing of benchmark operations against a host-speed reference.

The machine this benchmark was built on runs the same code up to 1.5x
slower for tens of seconds at a time, as other tenants come and go.  Every
timed operation is therefore bracketed by a fixed calibration loop, and its
seconds are scaled to a host on which that loop takes ``HOST_NOMINAL_MS``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

HOST_NOMINAL_MS = 13.0


def host_reference() -> float:
    """Milliseconds for a fixed loop of interpreter work and small numpy
    calls, the mix the model's tape runs on."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    a = np.full((16, 16), 0.5)
    for _ in range(1000):
        a = np.tanh(a @ a * 0.01)
    return (time.perf_counter() - t0) * 1e3


def host_speed() -> float:
    """Median of three host_reference loops, in ms."""
    return statistics.median(host_reference() for _ in range(3))


@dataclass
class Round:
    """Seconds and outputs of one round of operations, with the host-speed
    reference (ms) measured around each timed operation."""

    seconds: dict[str, float] = field(default_factory=dict)
    host_ms: dict[str, float] = field(default_factory=dict)
    out: dict = field(default_factory=dict)

    def norm(self, key: str) -> float:
        """Seconds of operation ``key`` scaled to the reference host."""
        return self.seconds[key] * HOST_NOMINAL_MS / self.host_ms[key]


class Timer:
    """Times operations, probing host speed between consecutive ones."""

    def __init__(self) -> None:
        self.last = host_speed()
        self.host_ms = [self.last]

    def __call__(self, r: Round, key: str, fn):
        t0 = time.perf_counter()
        out = fn()
        r.seconds[key] = time.perf_counter() - t0
        after = host_speed()
        r.host_ms[key] = (self.last + after) / 2
        self.last = after
        self.host_ms.append(after)
        return out
