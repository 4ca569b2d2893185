"""Event delivery to operators and centralized loggers.

One structured text line per event: space-separated key=value pairs,
values quoted when they contain whitespace.  The same line goes to every
configured output; UDP datagrams are fire-and-forget and capped at 512
bytes by truncating values, never keys.
"""

from __future__ import annotations

import shlex
import socket
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .model import KIND_BY_WIRE, IntrusionEvent

UDP_MAX_BYTES = 512

_BARE_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789._:/-")


class Severity(IntEnum):
    INFO = 0
    WARNING = 1
    ALERT = 2


@dataclass(frozen=True)
class OperationalEvent:
    """Non-intrusion condition worth reporting (store/transport trouble etc.)."""

    message: str
    severity: Severity = Severity.INFO


@dataclass(frozen=True)
class DeliveryReport:
    output: str
    ok: bool
    error: str = ""


def _quote(value: str) -> str:
    if value and all(c in _BARE_SAFE for c in value):
        return value
    return shlex.quote(value) if value else "''"


def format_line(node_id: str, epoch: int, ts: int, fields) -> str:
    parts = [f"node={_quote(node_id)}", f"epoch={epoch}", f"ts={ts}"]
    parts += [f"{key}={_quote(str(value))}" for key, value in fields]
    return " ".join(parts)


def format_intrusion(node_id: str, epoch: int, ts: int, event: IntrusionEvent) -> str:
    fields = [("kind", event.kind.wire_name), ("addr", str(event.address))]
    if event.port is not None:
        fields.append(("port", event.port))
    fields += [("baseline", event.baseline_value), ("observed", event.observed_value)]
    return format_line(node_id, epoch, ts, fields)


def format_operational(node_id: str, epoch: int, ts: int, event: OperationalEvent) -> str:
    return format_line(node_id, epoch, ts,
                       [("kind", "Operational"),
                        ("severity", event.severity.name.lower()),
                        ("message", event.message)])


def parse_line(line: str) -> dict:
    """Parse an event line back into a key -> value dict."""
    out = {}
    for token in shlex.split(line):
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"token {token!r} is not key=value")
        out[key] = value
    return out


def parse_intrusion(line: str) -> IntrusionEvent:
    fields = parse_line(line)
    import ipaddress
    return IntrusionEvent(
        kind=KIND_BY_WIRE[fields["kind"]],
        address=ipaddress.IPv4Address(fields["addr"]),
        port=int(fields["port"]) if "port" in fields else None,
        baseline_value=fields.get("baseline", ""),
        observed_value=fields.get("observed", ""),
        scan_epoch=int(fields["epoch"]))


# -- outputs ----------------------------------------------------------------

class StdoutOutput:
    name = "stdout"

    def __init__(self, stream=None):
        self._stream = stream

    def write_line(self, line: str) -> None:
        stream = self._stream if self._stream is not None else sys.stdout
        stream.write(line + "\n")
        stream.flush()


class FileOutput:
    def __init__(self, path):
        self.path = path
        self.name = f"file:{path}"

    def write_line(self, line: str) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


class UdpOutput:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.name = f"udp:{host}:{port}"

    def write_line(self, line: str) -> None:
        payload = _fit_udp(line)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(payload, (self.host, self.port))


def _fit_udp(line: str) -> bytes:
    payload = line.encode("utf-8")
    if len(payload) <= UDP_MAX_BYTES:
        return payload
    # shave the longest values first; keys always survive
    tokens = line.split(" ")
    while len(" ".join(tokens).encode("utf-8")) > UDP_MAX_BYTES:
        idx = max(range(len(tokens)), key=lambda i: len(tokens[i]))
        key, sep, value = tokens[idx].partition("=")
        if not sep or len(value) <= 4:
            tokens = tokens[:-1]
            continue
        tokens[idx] = f"{key}={value[:len(value) // 2]}"
    return " ".join(tokens).encode("utf-8")


@dataclass
class EventSink:
    """Serializes events to every configured output and drives the safe-state hook.

    `reports` keeps the failed deliveries; a delivered line leaves nothing behind.
    """

    outputs: tuple
    node_id: str = "edgemap"
    trigger_kinds: frozenset = frozenset()
    safe_state_callback: Optional[object] = None
    reports: list = field(default_factory=list)

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("at least one output must be configured")
        if not self.node_id:
            raise ValueError("node_id must be nonempty")

    def _deliver(self, line: str):
        reports = []
        for output in self.outputs:
            try:
                output.write_line(line)
                reports.append(DeliveryReport(output.name, True))
            except Exception as exc:  # one bad output never stops the loop
                reports.append(DeliveryReport(output.name, False, str(exc)))
        self.reports += [report for report in reports if not report.ok]
        return reports

    def emit_intrusion(self, event: IntrusionEvent, ts: int):
        line = format_intrusion(self.node_id, event.scan_epoch, ts, event)
        return self._deliver(line)

    def emit_operational(self, event: OperationalEvent, epoch: int, ts: int):
        line = format_operational(self.node_id, epoch, ts, event)
        return self._deliver(line)

    def end_epoch(self, events, epoch: int, ts: int) -> None:
        """Invoke the safe-state hook at most once per epoch, after emission."""
        if self.safe_state_callback is None:
            return
        if not any(event.kind in self.trigger_kinds for event in events):
            return
        try:
            self.safe_state_callback(events)
        except Exception as exc:
            self.emit_operational(
                OperationalEvent(f"safe-state hook failed: {exc}", Severity.WARNING),
                epoch, ts)
