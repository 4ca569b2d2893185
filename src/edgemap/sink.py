"""Event delivery to operators and centralized loggers.

One structured text line per event: space-separated key=value pairs,
each value a POSIX shell word (quoted when it holds anything but ASCII
letters, digits and `_@%+=:,./-`), so the line splits back by the
`edgemap.shellwords` rules.  The same line goes to every configured
output; UDP datagrams are fire-and-forget and capped at 512 bytes by
truncating values, never keys.
"""

from __future__ import annotations

import socket
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from shlex import quote

from .model import IntrusionEvent
from .shellwords import split_line

UDP_MAX_BYTES = 512


class Severity(IntEnum):
    INFO = 0
    WARNING = 1


@dataclass(frozen=True)
class DeliveryReport:
    output: str
    ok: bool
    error: str = ""


def format_line(node_id: str, epoch: int, ts: int, fields) -> str:
    parts = [f"node={quote(node_id)}", f"epoch={epoch}", f"ts={ts}"]
    parts += [f"{key}={quote(str(value))}" for key, value in fields]
    return " ".join(parts)


def format_intrusion(node_id: str, epoch: int, ts: int, event: IntrusionEvent) -> str:
    fields = [("kind", event.kind.wire_name), ("addr", str(event.address))]
    if event.port is not None:
        fields.append(("port", event.port))
    fields += [("baseline", event.baseline_value), ("observed", event.observed_value)]
    return format_line(node_id, epoch, ts, fields)


def format_operational(node_id: str, epoch: int, ts: int, message: str,
                       severity: Severity = Severity.INFO) -> str:
    """A non-intrusion condition worth reporting (store or transport trouble etc.)."""
    return format_line(node_id, epoch, ts,
                       [("kind", "Operational"),
                        ("severity", severity.name.lower()),
                        ("message", message)])


def parse_line(line: str) -> dict:
    """Parse an event line back into a key -> value dict."""
    out = {}
    for token in split_line(line):
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"token {token!r} is not key=value")
        out[key] = value
    return out


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
    # halve the longest value and quote it again, so the datagram still
    # parses; keys always survive
    fields = parse_line(line)
    while True:
        payload = " ".join(f"{key}={quote(value)}"
                           for key, value in fields.items()).encode("utf-8")
        longest = max(fields, key=lambda key: len(fields[key]))
        if len(payload) <= UDP_MAX_BYTES or not fields[longest]:
            return payload
        fields[longest] = fields[longest][:len(fields[longest]) // 2]


@dataclass
class EventSink:
    """Serializes events to every configured output.

    `reports` keeps the latest failed delivery of each output that has
    failed, in output order, and `kinds` the set of event kinds emitted,
    at most one entry per `EventKind`; so the sink stays bounded however
    long it runs, and a delivered line leaves nothing else behind.
    """

    outputs: tuple
    node_id: str = "edgemap"
    reports: list = field(default_factory=list)
    kinds: set = field(default_factory=set)

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("at least one output must be configured")
        if not self.node_id:
            raise ValueError("node_id must be nonempty")

    def _deliver(self, line: str) -> None:
        failed = {}
        for output in self.outputs:
            try:
                output.write_line(line)
            except Exception as exc:  # one bad output never stops the loop
                failed[output.name] = DeliveryReport(output.name, False, str(exc))
        if failed:
            latest = {report.output: report for report in self.reports} | failed
            self.reports = [latest.pop(output.name) for output in self.outputs
                            if output.name in latest]

    def emit_intrusion(self, event: IntrusionEvent, ts: int) -> None:
        self.kinds.add(event.kind)
        self._deliver(format_intrusion(self.node_id, event.scan_epoch, ts, event))

    def emit_operational(self, message: str, epoch: int, ts: int,
                         severity: Severity = Severity.INFO) -> None:
        self._deliver(format_operational(self.node_id, epoch, ts, message, severity))
