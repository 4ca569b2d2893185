import io
import ipaddress
import socket

import pytest

from edgemap.model import EventKind, IntrusionEvent
from edgemap.sink import (EventSink, FileOutput, OperationalEvent,
                          StdoutOutput, UdpOutput, format_intrusion,
                          format_operational, parse_intrusion, parse_line,
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
        line = format_operational("n", 0, 5, OperationalEvent("store write failed"))
        assert "message='store write failed'" in line
        assert parse_line(line)["message"] == "store write failed"

    def test_intrusion_round_trip(self):
        for kind in EventKind:
            port = 23 if kind in (EventKind.PORT_OPENED, EventKind.PORT_CLOSED,
                                  EventKind.BANNER_CHANGED) else None
            event = ev(kind=kind, port=port)
            line = format_intrusion("n", event.scan_epoch, 99, event)
            assert parse_intrusion(line) == event

    def test_banner_values_survive_round_trip(self):
        event = ev(kind=EventKind.BANNER_CHANGED,
                   baseline_value="'SSH-2.0 a b\\r\\n'",
                   observed_value="'evil shell'")
        line = format_intrusion("n", 3, 0, event)
        assert parse_intrusion(line) == event

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

    def test_udp_datagram_capped_at_512(self):
        long_line = "node=n kind=BannerChanged observed=" + "x" * 2000
        payload = _fit_udp(long_line)
        assert len(payload) <= 512
        fields = parse_line(payload.decode())
        # keys survive; only values get truncated
        assert set(fields) == {"node", "kind", "observed"}
        assert fields["kind"] == "BannerChanged"

    def test_short_lines_pass_unmodified(self):
        assert _fit_udp("a=1 b=2") == b"a=1 b=2"


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

    def test_emit_intrusion_returns_reports(self):
        sink, captured = self.make()
        reports = sink.emit_intrusion(ev(), ts=7)
        assert len(captured) == 1
        assert [(r.output, r.ok) for r in reports] == [("capture", True)]

    def test_one_failing_output_does_not_block_others(self):
        class Broken:
            name = "broken"

            def write_line(self, line):
                raise OSError("wire cut")

        sink, captured = self.make()
        sink.outputs = (Broken(),) + sink.outputs
        reports = sink.emit_intrusion(ev(), ts=7)
        assert [(r.output, r.ok) for r in reports] == [
            ("broken", False), ("capture", True)]
        assert reports[0].error == "wire cut"
        assert len(captured) == 1
        # the sink keeps the failures only
        assert sink.reports == [reports[0]]

    def test_safe_state_hook_fires_once_for_trigger_kinds(self):
        calls = []
        sink, _ = self.make(trigger_kinds=frozenset({EventKind.HOST_ADDED}),
                            safe_state_callback=calls.append)
        events = [ev(kind=EventKind.HOST_ADDED, port=None),
                  ev(kind=EventKind.HOST_ADDED, port=None,
                     address=A("10.0.0.9"))]
        sink.end_epoch(events, epoch=1, ts=0)
        assert calls == [events]

    def test_hook_skipped_without_trigger(self):
        calls = []
        sink, _ = self.make(trigger_kinds=frozenset({EventKind.HOST_REMOVED}),
                            safe_state_callback=calls.append)
        sink.end_epoch([ev()], epoch=1, ts=0)
        sink.end_epoch([], epoch=2, ts=0)
        assert calls == []

    def test_hook_failure_becomes_operational_warning(self):
        def hook(events):
            raise RuntimeError("relay stuck")

        sink, captured = self.make(trigger_kinds=frozenset({EventKind.PORT_OPENED}),
                                   safe_state_callback=hook)
        sink.end_epoch([ev()], epoch=1, ts=0)
        assert len(captured) == 1
        fields = parse_line(captured[0])
        assert fields["severity"] == "warning"
        assert "relay stuck" in fields["message"]
