"""Probe transport seam: the network primitives the scan engine composes.

Two backends implement this interface: the deterministic simulated
network (simnet) and the OS socket backend (osnet).  Both share the
packet accounting structure so traffic ceilings can be asserted the same
way against either.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import NamedTuple, Optional

from .errors import CapabilityUnsupported
from .model import IPv4, PortState
from .timebase import SECOND

# On-the-wire packet sizes in bytes.  Ethernet-framed minimum-size control
# packets: ARP and bare TCP segments pad to 60; an ICMP echo carries a
# standard 32-byte payload for 74.  Banner data adds a fixed 66 bytes of
# TCP/IP/Ethernet framing to the payload length.
ARP_BYTES = 60
ICMP_BYTES = 74
TCP_CONTROL_BYTES = 60
BANNER_FRAMING_BYTES = 66

PACKET_CLASSES = (
    "arp_request",
    "arp_reply",
    "icmp_request",
    "icmp_reply",
    "tcp_syn",
    "tcp_synack",
    "tcp_ack",
    "tcp_rst",
    "tcp_fin",
    "banner_data",
)

FIXED_SIZE = {
    "arp_request": ARP_BYTES,
    "arp_reply": ARP_BYTES,
    "icmp_request": ICMP_BYTES,
    "icmp_reply": ICMP_BYTES,
    "tcp_syn": TCP_CONTROL_BYTES,
    "tcp_synack": TCP_CONTROL_BYTES,
    "tcp_ack": TCP_CONTROL_BYTES,
    "tcp_rst": TCP_CONTROL_BYTES,
    "tcp_fin": TCP_CONTROL_BYTES,
}

TCP_CLASSES = ("tcp_syn", "tcp_synack", "tcp_ack", "tcp_rst", "tcp_fin")
DISCOVERY_CLASSES = ("arp_request", "arp_reply", "icmp_request", "icmp_reply")


# One row of per-second history: a packet count per class, in
# PACKET_CLASSES order, then the second's banner_data bytes.
_CELL = {cls: i for i, cls in enumerate(PACKET_CLASSES)}
_BANNER_BYTES_CELL = len(PACKET_CLASSES)
_ROW = len(PACKET_CLASSES) + 1
_ZERO_ROW = {typecode: bytes(array(typecode).itemsize * _ROW) for typecode in "Hq"}


class PacketCounters:
    """Per-class packet and byte accounting, kept as per-second rows.

    Seconds are integer buckets of the scan clock (timestamp // 1s).  The
    rows are the one record of the traffic: two arrays, the ascending
    busy seconds and one row of cells per busy second holding each
    class's packet count and the second's `banner_data` bytes, the one
    class whose size varies; every other class's bytes are its count
    times its `FIXED_SIZE`.  Cells start at 2 bytes and all widen to 8
    the first time a second overflows one.  Totals and peaks are read
    from the rows, summing one column at a time; `per_second` and
    `per_second_bytes` are copies of the columns, aligned with
    `seconds()`.

    `record` adds to the newest row, appending one when the second rolls
    over.  Packets are recorded in time order: one in a second before the
    newest raises ValueError and changes nothing.  It adds to the count
    cell in place; `_add`, which widens the cells, takes only an overflow
    and the bytes of a `banner_data` packet.  `record_exchange` is `record`
    of a request, then of its reply: in one call when both fall in the newest second.
    """

    def __init__(self):
        self._secs = array("q")
        self._cells = array("H")
        self._newest = None   # the last row's second
        self._last = 0        # index of the last row's first cell

    def _add(self, cell: int, n: int) -> None:
        try:
            self._cells[cell] += n
        except OverflowError:  # a second busier than 2-byte cells hold
            self._cells = array("q", self._cells)
            self._cells[cell] += n

    def record(self, cls: str, when: int, payload_len: int = 0) -> None:
        sec = when // SECOND
        if sec != self._newest:  # the second rolled over: a new last row
            if self._newest is not None and sec < self._newest:
                raise ValueError(f"packet in second {sec} recorded after second {self._newest}")
            cells = self._cells
            self._secs.append(sec)
            cells.frombytes(_ZERO_ROW[cells.typecode])
            self._newest, self._last = sec, len(cells) - _ROW
        cell = self._last + _CELL[cls]
        try:
            self._cells[cell] += 1
        except OverflowError:
            self._add(cell, 1)
        if cls == "banner_data":
            self._add(self._last + _BANNER_BYTES_CELL, payload_len + BANNER_FRAMING_BYTES)

    def record_exchange(self, cls: str, when: int, reply: str, reply_when: int) -> None:
        sec = when // SECOND
        if sec != self._newest or reply_when // SECOND != sec:
            self.record(cls, when)
            self.record(reply, reply_when)
            return
        request, answer = self._last + _CELL[cls], self._last + _CELL[reply]
        try:  # each cell on its own, so an overflow counts no packet twice
            self._cells[request] += 1
        except OverflowError:
            self._add(request, 1)
        try:
            self._cells[answer] += 1
        except OverflowError:
            self._add(answer, 1)

    @property
    def counts(self) -> dict:
        """Packets sent per class: the sums of the count columns."""
        cells = self._cells
        return {cls: sum(cells[i::_ROW]) for cls, i in _CELL.items()}

    @property
    def bytes(self) -> dict:
        """Bytes sent per class, worked out from the columns."""
        cells = self._cells
        return {cls: sum(cells[_BANNER_BYTES_CELL::_ROW]) if cls == "banner_data"
                else n * FIXED_SIZE[cls] for cls, n in self.counts.items()}

    @property
    def per_second(self) -> dict:
        """Each class's packet count per busy second, aligned with `seconds()`."""
        return {cls: self._cells[i::_ROW] for cls, i in _CELL.items()}

    @property
    def per_second_bytes(self) -> dict:
        """banner_data's bytes per busy second, aligned with `seconds()`."""
        return {"banner_data": self._cells[_BANNER_BYTES_CELL::_ROW]}

    def total_packets(self) -> int:
        return sum(self.counts.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def seconds(self):
        """Sorted array of all second buckets that saw any traffic."""
        return self._secs[:]

    def _row(self, sec: int):
        """`sec`'s row of cells, all zero if that second saw no traffic."""
        i = bisect_left(self._secs, sec)
        found = i < len(self._secs) and self._secs[i] == sec
        return self._cells[i * _ROW:(i + 1) * _ROW] if found else bytes(_ROW)

    def second_count(self, sec: int, classes=PACKET_CLASSES) -> int:
        row = self._row(sec)
        return sum(row[_CELL[cls]] for cls in classes)

    def second_bytes(self, sec: int, classes=PACKET_CLASSES) -> int:
        row = self._row(sec)
        return sum(row[_BANNER_BYTES_CELL] if cls == "banner_data"
                   else row[_CELL[cls]] * FIXED_SIZE[cls] for cls in classes)

    def peak(self, classes) -> int:
        """The busiest second's packet count summed over `classes`."""
        columns = [self._cells[_CELL[cls]::_ROW] for cls in classes]
        return max(map(sum, zip(*columns)), default=0)

    def snapshot(self) -> "PacketCounters":
        out = PacketCounters()
        out._secs = self._secs[:]
        out._cells = self._cells[:]
        out._newest, out._last = self._newest, self._last
        return out


# Tuples, not frozen dataclasses: one is built per probe, and a tuple
# builds in a fraction of the time.
class ProbeReply(NamedTuple):
    """Outcome of an ARP or ICMP probe."""

    replied: bool
    rtt: Optional[int] = None


class PortProbe(NamedTuple):
    """Outcome of a TCP port probe."""

    state: PortState
    banner: Optional[bytes] = None
    rtt: Optional[int] = None


class ProbeTransport:
    """Interface both backends implement.

    One transport instance serves one scan task at a time.  A backend
    without raw-SYN capability must raise CapabilityUnsupported from
    tcp_syn rather than silently falling back to a connect scan.
    """

    supports_arp: bool = False
    clock: object                # the backend's scan clock (timebase)
    counters: PacketCounters

    def arp_probe(self, target: IPv4, timeout: int) -> ProbeReply:
        raise CapabilityUnsupported("backend has no ARP capability")

    def icmp_ping(self, target: IPv4, timeout: int) -> ProbeReply:
        raise NotImplementedError

    def tcp_connect(self, target: IPv4, port: int, timeout: int,
                    banner_grab: bool = True, banner_max: int = 128) -> PortProbe:
        raise NotImplementedError

    def tcp_syn(self, target: IPv4, port: int, timeout: int) -> PortProbe:
        raise CapabilityUnsupported("backend cannot send raw SYN probes")
