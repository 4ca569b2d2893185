import math

import pytest

from edgemap.timebase import (MonotonicClock, VirtualClock, format_duration,
                              parse_duration)


@pytest.mark.parametrize("text,expected", [
    ("100ms", 100_000),
    ("1s", 1_000_000),
    ("500us", 500),
    ("5min", 300_000_000),
    ("0s", 0),
    ("1.5s", 1_500_000),
    (" 250 ms ", 250_000),
])
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("text", ["", "100", "ms", "-1s", "1h", "1 2s"])
def test_parse_duration_rejects(text):
    with pytest.raises(ValueError):
        parse_duration(text)


@pytest.mark.parametrize("us,expected", [
    (300_000_000, "5min"),
    (1_000_000, "1s"),
    (100_000, "100ms"),
    (500, "500us"),
    (1_500, "1500us"),
])
def test_format_duration(us, expected):
    assert format_duration(us) == expected
    if us:
        assert parse_duration(expected) == us


class TestVirtualClock:
    def test_sleep_advances_exactly(self):
        clock = VirtualClock()
        clock.sleep(250)
        clock.sleep(0)
        assert clock.now() == 250

    def test_cannot_move_backwards(self):
        clock = VirtualClock(start=100)
        with pytest.raises(ValueError):
            clock.advance_to(99)
        with pytest.raises(ValueError):
            clock.sleep(-1)

    def test_on_advance_callback_sees_new_time(self):
        """The observer runs at the first advance that reaches its wake time,
        never before, and what it returns is its next wake time."""
        clock = VirtualClock()
        seen = []
        wakes = iter([10, 25, math.inf])

        def observer(now):
            seen.append(now)
            return next(wakes)

        clock.on_advance(observer)
        clock.advance_to(3)        # a new observer wakes at the next advance
        clock.advance_to(9)        # short of its wake time, 10
        clock.sleep(1)             # reaches 10 exactly
        clock.advance_to(24)
        clock.advance_to(30)       # passes 25
        clock.advance_to(10**12)   # inf: never again
        assert seen == [3, 10, 30]


def test_monotonic_clock_moves_forward():
    clock = MonotonicClock()
    t0 = clock.now()
    clock.sleep(2_000)  # 2ms
    assert clock.now() - t0 >= 1_000
