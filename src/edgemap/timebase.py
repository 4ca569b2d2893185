"""Monotonic scan clocks and duration parsing.

All durations and timestamps in the toolkit are integer microseconds.
The scan loop never reads the wall clock; it goes through one of the
clock objects below so the simulated backend can run on virtual time.
"""

from __future__ import annotations

import re
import time

#: one second in clock units
SECOND = 1_000_000
MILLISECOND = 1_000


class MonotonicClock:
    """Real clock backed by time.monotonic_ns, microsecond resolution."""

    is_virtual = False

    def now(self) -> int:
        return time.monotonic_ns() // 1_000

    def sleep(self, duration: int) -> None:
        if duration > 0:
            time.sleep(duration / SECOND)


class VirtualClock:
    """Discrete simulation clock. sleep() is an instantaneous advance."""

    is_virtual = True

    def __init__(self, start: int = 0):
        self._now = start

    def now(self) -> int:
        return self._now

    def sleep(self, duration: int) -> None:
        if duration < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += duration

    def advance_to(self, when: int) -> None:
        if when < self._now:
            raise ValueError(f"clock cannot move backwards ({self._now} -> {when})")
        self._now = when


_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(us|ms|s|min)\s*$")

_UNIT_US = {"us": 1, "ms": MILLISECOND, "s": SECOND, "min": 60 * SECOND}


def parse_duration(text: str) -> int:
    """Parse '100ms', '1s', '500us' or '5min' into microseconds."""
    m = _DURATION_RE.match(text)
    if not m:
        raise ValueError(f"invalid duration {text!r} (expected e.g. '100ms', '1s')")
    value, unit = m.groups()
    return int(float(value) * _UNIT_US[unit])


def format_duration(us: int) -> str:
    """Render microseconds compactly, preferring whole units."""
    for unit in ("min", "s", "ms"):
        size = _UNIT_US[unit]
        if us >= size and us % size == 0:
            return f"{us // size}{unit}"
    return f"{us}us"
