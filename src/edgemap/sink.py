"""Event delivery to operators and centralized loggers.

One structured text line per event: space-separated key=value pairs,
each value a POSIX shell word (quoted when it holds anything but ASCII
letters, digits and `_@%+=:,./-`), so the line splits back by the
`edgemap.shellwords` rules.  Only the node id (printable, so no line
break splits a line), baseline and observed values need quoting: kind,
dotted-quad address and port are safe words as they stand.  The same
line goes to every configured output; UDP datagrams are fire-and-forget
and capped at 512 bytes by truncating values, never keys.

This module alone turns a `--sink` spec (`stdout`, `file:<path>` or
`udp:<host>:<port>`) into an output.  Each output checks its spec, is
named by it, and knows its target, so `open_sink` refuses, before any
line is sent: a spec given twice; then, spec by spec, one at fault or one
whose target an earlier output has (the same file after
`os.path.realpath`, or the same UDP host, in any case, and port); then
the node id.  UDP goes over IPv4 only, so an IPv6 literal is refused, and
so is a host of digits and dots that is no dotted quad.  Host names are
not resolved, since a node's DNS may come up after the node: two names
for one address are not caught.
"""

from __future__ import annotations

import ipaddress
import os
import socket
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from shlex import quote

from .model import IntrusionEvent, dotted_quad
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
    kind, address, port, baseline, observed = event
    port = "" if port is None else f" port={port}"
    return (f"node={quote(node_id)} epoch={epoch} ts={ts} kind={kind._value_} "
            f"addr={dotted_quad(address)}{port} baseline={quote(baseline)} "
            f"observed={quote(observed)}")


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
    name = target = "stdout"

    def __init__(self, stream=None):
        self._stream = stream

    def write_line(self, line: str) -> None:
        stream = self._stream if self._stream is not None else sys.stdout
        stream.write(line + "\n")
        stream.flush()


class FileOutput:
    def __init__(self, spec: str):
        self.name = spec
        self.path = spec[5:]
        folder = os.path.dirname(self.path) or "."
        # each line reopens the file, so it is checked here, not created
        if not self.path:
            raise ValueError(f"sink {spec!r} is not file:<path>")
        if os.path.isdir(self.path):
            raise IsADirectoryError(f"sink {spec!r} is a directory")
        if not os.path.isdir(folder):
            raise NotADirectoryError(f"sink {spec!r}: {folder} is not a directory")
        self.target = os.path.realpath(self.path)

    def write_line(self, line: str) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")


class UdpOutput:
    def __init__(self, spec: str):
        self.name = spec
        host, _, port = spec[4:].rpartition(":")
        if not host or not port.isdecimal() or not 1 <= int(port) <= 65535:
            raise ValueError(f"sink {spec!r} is not udp:<host>:<port 1-65535>")
        if ":" in host or host.startswith("["):
            raise ValueError(f"sink {spec!r} names an IPv6 host; UDP sinks send over IPv4 only")
        if set(host) <= set("0123456789."):  # meant as a dotted quad, not a host name
            try:
                ipaddress.IPv4Address(host)
            except ValueError:
                raise ValueError(f"sink {spec!r}: {host} is not an IPv4 address") from None
        self.address = (host, int(port))
        self.target = (host.lower(), int(port))

    def write_line(self, line: str) -> None:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(_fit_udp(line), self.address)


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
        if not self.node_id or not self.node_id.isprintable():
            raise ValueError(f"--node-id must be nonempty and printable, not {self.node_id!r}")

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

    def emit_intrusion(self, event: IntrusionEvent, epoch: int, ts: int) -> None:
        """Deliver one event line, stamped with the epoch and scan-clock time given."""
        self.kinds.add(event.kind)
        self._deliver(format_intrusion(self.node_id, epoch, ts, event))

    def emit_operational(self, message: str, epoch: int, ts: int,
                         severity: Severity = Severity.INFO) -> None:
        self._deliver(format_operational(self.node_id, epoch, ts, message, severity))


def open_sink(specs: list, node_id: str, stream=None) -> EventSink:
    """The sink on the outputs `specs` name, `stdout` writing to `stream`.  A
    repeated spec is refused first, then each spec in order, then the node id."""
    repeated = sorted({spec for spec in specs if specs.count(spec) > 1})
    if repeated:  # an output named twice would get every line twice
        raise ValueError(f"sink given more than once: {', '.join(repeated)}")
    outputs, kinds = [], {"file:": FileOutput, "udp:": UdpOutput}
    for spec in specs:
        kind = spec[:spec.find(":") + 1]  # through the first colon, if any
        if spec != "stdout" and kind not in kinds:
            raise ValueError(f"unknown sink {spec!r}")
        output = StdoutOutput(stream) if spec == "stdout" else kinds[kind](spec)
        same = [other.name for other in outputs if other.target == output.target]
        if same:  # one target in two spellings would get every line twice too
            raise ValueError(f"sink {spec!r} names the same target as {same[0]!r}")
        outputs.append(output)
    return EventSink(tuple(outputs), node_id)
