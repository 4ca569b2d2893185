"""Core domain types: scan configuration, host records, fingerprints, events.

Everything here is immutable after construction and free of I/O; an event
is a tuple value, built per deviation in a fraction of a dataclass's time.
Durations and timestamps are integer microseconds on the monotonic scan clock.

A host's port states are a PortTable: one byte per port from the lowest
probed port to the highest (0 = not probed, else the code of its state in
PORT_CODES), so a 1,024-port host holds about 1 KB of states.
"""

from __future__ import annotations

import hashlib
import ipaddress
import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from socket import inet_ntoa
from typing import Optional

from .timebase import SECOND, MILLISECOND

IPv4 = ipaddress.IPv4Address


@dataclass(frozen=True)
class AddressRange:
    """Inclusive IPv4 address interval.

    Parsed from either 'a.b.c.d-e.f.g.h', a single address, or a CIDR
    block (host addresses only, network/broadcast excluded).
    """

    low: IPv4
    high: IPv4

    def __post_init__(self):
        if self.high < self.low:
            raise ValueError(f"address range is empty: {self.low}-{self.high}")

    @classmethod
    def parse(cls, text: str) -> "AddressRange":
        text = text.strip()
        if "-" in text:
            lo, hi = text.split("-", 1)
            return cls(ipaddress.IPv4Address(lo.strip()), ipaddress.IPv4Address(hi.strip()))
        if "/" in text:
            net = ipaddress.IPv4Network(text, strict=False)
            # the endpoints of net.hosts(), read by index: a /31 or /32
            # has no network or broadcast address to leave out
            edge = 0 if net.prefixlen >= 31 else 1
            return cls(net[edge], net[-1 - edge])
        addr = ipaddress.IPv4Address(text)
        return cls(addr, addr)

    def __iter__(self):
        cur = int(self.low)
        end = int(self.high)
        while cur <= end:
            yield ipaddress.IPv4Address(cur)
            cur += 1

    def __str__(self) -> str:
        return f"{self.low}-{self.high}"


class PortState(Enum):
    OPEN = "open"          # handshake reached SYN+ACK
    CLOSED = "closed"      # RST received
    FILTERED = "filtered"  # no reply within the probe timeout


# A port state's one-byte code in a PortTable, keyed by the state's value:
# `_value_` is a plain attribute, while `value` is a property and a dict
# keyed by the members calls the Python-level Enum.__hash__.
PORT_CODES = {state._value_: code for code, state in enumerate(PortState, 1)}
OPEN_CODE = PORT_CODES["open"]
# the state of each code, by index; code 0 is a port not probed
PORT_STATES = (None, *PortState)


class PortTable(Mapping):
    """A host's port states: a read-only map from port to PortState.

    Stored as `first`, the lowest probed port, and `codes`, one byte per
    port from `first` to the highest probed port: 0 for a port not probed,
    else the state's code in PORT_CODES.  The table is canonical (no
    leading or trailing 0 byte; an empty one has `first` 0), so two tables
    are equal exactly when their maps are.  Iteration is in ascending port
    order.
    """

    __slots__ = ("first", "codes")

    def __init__(self, first: int, codes):
        codes = bytes(codes)
        stripped = codes.lstrip(b"\0")
        first += len(codes) - len(stripped)
        codes = stripped.rstrip(b"\0")
        if not codes:
            first = 0
        elif not (1 <= first and first + len(codes) <= 65536):
            raise ValueError(f"ports {first}..{first + len(codes) - 1} outside 1-65535")
        if codes.translate(None, bytes(range(len(PORT_STATES)))):
            raise ValueError("port state code out of range")
        self.first = first
        self.codes = codes

    @classmethod
    def from_mapping(cls, ports: Mapping) -> "PortTable":
        """The table of any mapping from int port to PortState."""
        if not ports:
            return cls(0, b"")
        first, last = min(ports), max(ports)
        if not (type(first) is int and type(last) is int and 1 <= first <= last <= 65535):
            raise ValueError(f"ports {first!r}..{last!r} are not ints in 1-65535")
        codes = bytearray(last - first + 1)
        for port, state in ports.items():
            if type(port) is not int:
                raise ValueError(f"port {port!r} is not an int")
            if type(state) is not PortState:
                raise ValueError(f"port {port}: {state!r} is not a PortState")
            codes[port - first] = PORT_CODES[state._value_]
        return cls(first, codes)

    def __getitem__(self, port):
        offset = port - self.first if type(port) is int else -1
        if 0 <= offset < len(self.codes) and self.codes[offset]:
            return PORT_STATES[self.codes[offset]]
        raise KeyError(port)

    def __iter__(self):
        return compress(range(self.first, self.first + len(self.codes)), self.codes)

    def __len__(self):
        return len(self.codes) - self.codes.count(0)

    def __eq__(self, other):
        if type(other) is PortTable:
            return self.first == other.first and self.codes == other.codes
        return Mapping.__eq__(self, other)

    def __repr__(self):
        return f"PortTable({dict(self.items())!r})"


@dataclass(frozen=True)
class ScanConfig:
    """All knobs of one scanner instance.  Durations in microseconds."""

    address_range: AddressRange
    port_range: tuple[int, int] = (1, 1024)
    ping_delay: int = 100 * MILLISECOND
    port_delay: int = 100 * MILLISECOND
    startup_delay_min: int = 60 * SECOND
    startup_delay_max: int = 300 * SECOND
    rescan_interval: int = 300 * SECOND
    seed: Optional[int] = None
    scan_silent_hosts: bool = False
    banner_grab: bool = True
    banner_max_bytes: int = 128
    rtt_anomaly_factor: float = 2.0
    rtt_anomaly_floor: int = 1 * MILLISECOND
    connect_timeout: int = 1 * SECOND
    ping_timeout: int = 1 * SECOND
    syn_scan: bool = False

    def __post_init__(self):
        lo, hi = self.port_range
        if not (1 <= lo <= hi <= 65535):
            raise ValueError(f"invalid port range {lo}..{hi}")
        if self.startup_delay_min < 0 or self.startup_delay_min > self.startup_delay_max:
            raise ValueError("invalid startup delay window")
        for name in ("ping_delay", "port_delay", "rescan_interval",
                     "connect_timeout", "ping_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if not 1.0 <= self.rtt_anomaly_factor < math.inf:  # nan fails both
            raise ValueError("rtt_anomaly_factor must be finite and >= 1.0")
        if self.rtt_anomaly_floor <= 0:
            raise ValueError("rtt_anomaly_floor must be strictly positive")
        if self.banner_max_bytes <= 0:
            raise ValueError("banner_max_bytes must be strictly positive")


def config_digest(config: ScanConfig) -> int:
    """Stable 64-bit digest over the fields that decide scan comparability.

    Two fingerprints may only be diffed when these fields match: the swept
    address range, the port interval, and the banner collection settings.
    Banners count as grabbed only when they are: a SYN scan reads none, so
    it never shares a digest with a connect scan that grabs them, and the
    banner size cap counts only when banners are grabbed.  Timing knobs and
    the PRNG seed deliberately do not contribute.
    """
    grabbed = config.banner_grab and not config.syn_scan
    canon = "|".join([
        str(config.address_range),
        f"{config.port_range[0]}-{config.port_range[1]}",
        f"b1|{config.banner_max_bytes}" if grabbed else "b0",
    ])
    h = hashlib.sha256(canon.encode("ascii")).digest()
    return int.from_bytes(h[:8], "big")


@dataclass(frozen=True)
class HostRecord:
    """One discovered host's echo RTT samples, port states and banners.
    Its address is its `hosts` key, and `alive` follows from the samples."""

    rtt_samples: tuple[int, ...] = ()
    ports: Mapping[int, PortState] = field(default_factory=dict)  # a PortTable once built
    banners: Mapping[int, bytes] = field(default_factory=dict)

    @property
    def alive(self) -> str:
        """`up` (answered ICMP echo) or `silent` (answered ARP only)."""
        return "up" if self.rtt_samples else "silent"

    def __post_init__(self):
        if type(self.ports) is not PortTable:
            object.__setattr__(self, "ports", PortTable.from_mapping(self.ports))
        first, codes = self.ports.first, self.ports.codes
        for port, banner in self.banners.items():
            if not (type(port) is int and 0 <= port - first < len(codes)
                    and codes[port - first] == OPEN_CODE):
                raise ValueError(f"banner recorded for non-open port {port}")
            if not isinstance(banner, bytes):
                raise ValueError("banners must be byte strings")


@dataclass(frozen=True)
class NetworkFingerprint:
    """Timestamped result of one full sweep; the first one is the baseline."""

    started_at: int
    finished_at: int
    config_digest: int
    hosts: Mapping[IPv4, HostRecord]  # each record keyed by its host's address
    trusted: bool = False

    def __post_init__(self):
        if self.finished_at < self.started_at:
            raise ValueError("fingerprint finished before it started")

    def open_port_count(self) -> int:
        return sum(rec.ports.codes.count(OPEN_CODE) for rec in self.hosts.values())


class EventKind(Enum):
    """A deviation's kind.  The value is its wire name, and the declaration
    order is the canonical order of the kinds raised at one address."""

    HOST_ADDED = "HostAdded"
    HOST_REMOVED = "HostRemoved"
    PORT_OPENED = "PortOpened"
    PORT_CLOSED = "PortClosed"
    BANNER_CHANGED = "BannerChanged"
    LATENCY_ANOMALY = "LatencyAnomaly"


# keyed by `kind._value_`, as PORT_CODES is by the state's, so no lookup calls Enum.__hash__
_KIND_RANK = {kind._value_: rank for rank, kind in enumerate(EventKind)}

_PORT_KINDS = {kind._value_ for kind in (EventKind.PORT_OPENED, EventKind.PORT_CLOSED,
                                         EventKind.BANNER_CHANGED)}


class IntrusionEvent(namedtuple("IntrusionEvent",
                                "kind address port baseline_value observed_value")):
    """One classified deviation between the baseline and a current scan; a
    plain tuple value, as the loop that emits it supplies the epoch."""

    __slots__ = ()

    def __new__(cls, kind: EventKind, address: IPv4, port: Optional[int] = None,
                baseline_value: str = "", observed_value: str = ""):
        if kind._value_ in _PORT_KINDS:
            if port is None:
                raise ValueError(f"{kind.value} requires a port")
        elif port is not None:
            raise ValueError(f"{kind.value} must not carry a port")
        return tuple.__new__(cls, (kind, address, port, baseline_value, observed_value))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates through it

    def sort_key(self):
        return (self.address._ip, _KIND_RANK[self.kind._value_],
                -1 if self.port is None else self.port)


def dotted_quad(address: IPv4) -> str:
    """str(address), from its integer rather than the Python-level __str__."""
    return inet_ntoa(address._ip.to_bytes(4, "big"))
