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
    ("1.001s", 1_001_000),
    ("1.003s", 1_003_000),
    ("2.999min", 179_940_000),
    ("0.001ms", 1),
    ("1.5us", 1),
    ("0.0019ms", 1),
])
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("unit", ["ms", "s", "min"])
def test_parse_duration_is_exact_to_the_microsecond(unit):
    scale = {"ms": 1_000, "s": 1_000_000, "min": 60_000_000}[unit]
    for thousandths in range(1, 3_000):
        text = f"{thousandths // 1000}.{thousandths % 1000:03d}{unit}"
        assert parse_duration(text) == thousandths * scale // 1000, text


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


def test_monotonic_clock_moves_forward():
    clock = MonotonicClock()
    t0 = clock.now()
    clock.sleep(2_000)  # 2ms
    assert clock.now() - t0 >= 1_000
