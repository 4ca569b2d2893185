import io
import ipaddress
import socket

import pytest
from hypothesis import given, settings, strategies as st

from edgemap.model import EventKind, IntrusionEvent
from edgemap.sink import (DeliveryReport, EventSink, FileOutput,
                          StdoutOutput, UdpOutput, format_intrusion,
                          format_line, format_operational, parse_line,
                          _fit_udp)

A = ipaddress.IPv4Address


def ev(kind=EventKind.PORT_OPENED, port=23, **kw):
    defaults = dict(address=A("10.0.0.2"), baseline_value="closed",
                    observed_value="open", scan_epoch=3)
    defaults.update(kw)
    return IntrusionEvent(kind=kind, port=port, **defaults)


class TestLineFormat:
    def test_intrusion_line(self):
        line = format_intrusion("edge-7", 3, 1234567, ev())
        assert line == ("node=edge-7 epoch=3 ts=1234567 kind=PortOpened "
                        "addr=10.0.0.2 port=23 baseline=closed observed=open")

    def test_values_with_spaces_are_quoted(self):
        line = format_operational("n", 0, 5, "store write failed")
        assert "message='store write failed'" in line
        assert parse_line(line)["message"] == "store write failed"

    def test_intrusion_round_trip(self):
        for kind in EventKind:
            port = 23 if kind in (EventKind.PORT_OPENED, EventKind.PORT_CLOSED,
                                  EventKind.BANNER_CHANGED) else None
            event = ev(kind=kind, port=port)
            line = format_intrusion("n", event.scan_epoch, 99, event)
            expected = [("node", "n"), ("epoch", "3"), ("ts", "99"),
                        ("kind", kind.wire_name), ("addr", "10.0.0.2")]
            expected += [("port", "23")] if port is not None else []
            expected += [("baseline", "closed"), ("observed", "open")]
            assert list(parse_line(line).items()) == expected

    def test_banner_values_survive_round_trip(self):
        event = ev(kind=EventKind.BANNER_CHANGED,
                   baseline_value="'SSH-2.0 a b\\r\\n'",
                   observed_value="'evil shell'")
        line = format_intrusion("n", 3, 0, event)
        assert list(parse_line(line).items()) == [
            ("node", "n"), ("epoch", "3"), ("ts", "0"), ("kind", "BannerChanged"),
            ("addr", "10.0.0.2"), ("port", "23"), ("baseline", event.baseline_value),
            ("observed", event.observed_value)]

    @settings(derandomize=True, max_examples=500)
    @given(st.text(alphabet="\"'\\# =_@%+,./:-aZ9\t\n\xe9", max_size=16))
    def test_any_value_parses_back(self, value):
        assert parse_line(format_line("n", 1, 2, [("v", value)]))["v"] == value

    def test_parse_rejects_non_kv_tokens(self):
        with pytest.raises(ValueError):
            parse_line("node=n epoch=1 ts=2 loose")


class TestOutputs:
    def test_stdout_output(self):
        buf = io.StringIO()
        StdoutOutput(buf).write_line("hello x=1")
        assert buf.getvalue() == "hello x=1\n"

    def test_file_output_appends(self, tmp_path):
        path = tmp_path / "events.log"
        out = FileOutput(path)
        out.write_line("a=1")
        out.write_line("b=2")
        assert path.read_text() == "a=1\nb=2\n"

    def test_udp_output_delivers(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as recv:
            recv.bind(("127.0.0.1", 0))
            recv.settimeout(2.0)
            port = recv.getsockname()[1]
            UdpOutput("127.0.0.1", port).write_line("kind=HostAdded addr=10.0.0.5")
            data, _ = recv.recvfrom(2048)
        assert data == b"kind=HostAdded addr=10.0.0.5"

    LONG_LINES = (
        "node=n kind=BannerChanged observed=" + "x" * 2000,
        # a quoted value with a space in it, and a key after it
        format_line("n", 1, 2, [("kind", "BannerChanged"), ("addr", "10.0.0.1"),
                                ("port", 22), ("baseline", "SSH-2.0 " + "x" * 600),
                                ("observed", "y")]),
    )

    def test_udp_datagram_capped_at_512(self):
        for long_line in self.LONG_LINES:
            payload = _fit_udp(long_line)
            assert len(payload) <= 512
            fields = parse_line(payload.decode())
            # keys survive; only values get truncated
            assert set(fields) == set(parse_line(long_line))
            assert fields["kind"] == "BannerChanged"

    def test_short_lines_pass_unmodified(self):
        assert _fit_udp("a=1 b=2") == b"a=1 b=2"
        exactly_512 = "a='x " + "y" * 506 + "'"
        assert _fit_udp(exactly_512) == exactly_512.encode()


class TestEventSink:
    def make(self, outputs=None, **kw):
        captured = []

        class Capture:
            name = "capture"

            def write_line(self, line):
                captured.append(line)

        sink = EventSink(outputs or (Capture(),), node_id="n", **kw)
        return sink, captured

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EventSink(())
        with pytest.raises(ValueError):
            EventSink((StdoutOutput(),), node_id="")

    def test_emit_intrusion_keeps_no_report_when_delivered(self):
        sink, captured = self.make()
        sink.emit_intrusion(ev(), ts=7)
        assert captured == [format_intrusion("n", 3, 7, ev())]
        assert sink.reports == []

    def test_one_failing_output_does_not_block_others(self):
        class Broken:
            name = "broken"

            def write_line(self, line):
                raise OSError("wire cut")

        sink, captured = self.make()
        sink.outputs = (Broken(),) + sink.outputs
        sink.emit_intrusion(ev(), ts=7)
        assert len(captured) == 1
        # the sink keeps the failures only
        assert sink.reports == [DeliveryReport("broken", False, "wire cut")]

    def test_reports_keep_the_latest_failure_per_output(self):
        class Failing:
            def __init__(self, name, fails_from):
                self.name, self.fails_from, self.calls = name, fails_from, 0

            def write_line(self, line):
                self.calls += 1
                if self.calls >= self.fails_from:
                    raise OSError(f"{self.name} failure {self.calls}")

        late, full_disk = Failing("late", 10_000), Failing("full-disk", 1)
        sink, captured = self.make()
        sink.outputs = (late, full_disk) + sink.outputs
        for _ in range(9_999):
            sink.emit_intrusion(ev(), ts=7)
        assert sink.reports == [DeliveryReport("full-disk", False, "full-disk failure 9999")]
        sink.emit_intrusion(ev(), ts=7)
        assert len(captured) == 10_000
        # one report per failing output, in output order, holding its last error
        assert sink.reports == [DeliveryReport("late", False, "late failure 10000"),
                                DeliveryReport("full-disk", False, "full-disk failure 10000")]

    def test_kinds_collects_each_emitted_kind_once(self):
        sink, _ = self.make()
        assert sink.kinds == set()
        for _ in range(3):
            sink.emit_intrusion(ev(), ts=0)
            sink.emit_intrusion(ev(kind=EventKind.HOST_ADDED, port=None), ts=0)
        sink.emit_operational("store write failed", epoch=1, ts=0)
        assert sink.kinds == {EventKind.PORT_OPENED, EventKind.HOST_ADDED}
