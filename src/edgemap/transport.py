"""Probe transport seam: the network primitives the scan engine composes.

Two backends implement this interface: the deterministic simulated
network (simnet) and the OS socket backend (osnet).  Both share the
packet accounting structure so traffic ceilings can be asserted the same
way against either.
"""

from __future__ import annotations

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

_FIXED_SIZE = {
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


class PacketCounters:
    """Per-class cumulative and per-second packet/byte accounting.

    Seconds are integer buckets of the scan clock (timestamp // 1s), so a
    rate plot can be regenerated from `per_second` directly.
    """

    def __init__(self):
        self.counts = {cls: 0 for cls in PACKET_CLASSES}
        self.bytes = {cls: 0 for cls in PACKET_CLASSES}
        self.per_second = {cls: {} for cls in PACKET_CLASSES}
        self.per_second_bytes = {cls: {} for cls in PACKET_CLASSES}

    def record(self, cls: str, when: int, payload_len: int = 0) -> None:
        if cls == "banner_data":
            size = payload_len + BANNER_FRAMING_BYTES
        else:
            size = _FIXED_SIZE[cls]
        sec = when // SECOND
        self.counts[cls] += 1
        self.bytes[cls] += size
        bucket = self.per_second[cls]
        bucket[sec] = bucket.get(sec, 0) + 1
        bbucket = self.per_second_bytes[cls]
        bbucket[sec] = bbucket.get(sec, 0) + size

    def total_packets(self) -> int:
        return sum(self.counts.values())

    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def seconds(self):
        """Sorted list of all second buckets that saw any traffic."""
        seen = set()
        for bucket in self.per_second.values():
            seen.update(bucket)
        return sorted(seen)

    def second_count(self, sec: int, classes=PACKET_CLASSES) -> int:
        return sum(self.per_second[cls].get(sec, 0) for cls in classes)

    def second_bytes(self, sec: int, classes=PACKET_CLASSES) -> int:
        return sum(self.per_second_bytes[cls].get(sec, 0) for cls in classes)

    def snapshot(self) -> "PacketCounters":
        out = PacketCounters()
        out.counts = dict(self.counts)
        out.bytes = dict(self.bytes)
        out.per_second = {cls: dict(b) for cls, b in self.per_second.items()}
        out.per_second_bytes = {cls: dict(b) for cls, b in self.per_second_bytes.items()}
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
    supports_raw_syn: bool = False
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

    def tcp_exchange(self, target: IPv4, port: int, payload: bytes,
                     timeout: int) -> Optional[bytes]:
        """Connect, send payload, return the reply bytes (None if nothing came)."""
        raise NotImplementedError
