"""Deterministic simulated network backend.

Hosts are declarative specs; timed script actions mutate the network
while a virtual clock drives all timing.  Packet accounting follows the
classic probe message sequences exactly: a SYN scan of an open port is
SYN / SYN+ACK / RST (3 packets), of a closed port SYN / RST (2); a
connect scan of an open port completes the handshake, optionally reads
the service banner, then resets.

Reachability model: a host answers anything only while it participates
in ARP (a device with ARP disabled is link-layer dark, per the stealth
host configuration).  ICMP echo additionally requires echo enabled.
RTT is base_rtt * latency_factor + uniform jitter, in microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from . import modbus
from .errors import MalformedScript
from .model import IPv4, PortState
from .rng import Prng
from .timebase import VirtualClock
from .transport import PacketCounters, PortProbe, ProbeReply, ProbeTransport

# Looked up once: reading an Enum member off its class costs ~0.2 us in
# CPython 3.11, as much as a third of a closed-port probe.
_OPEN, _CLOSED, _FILTERED = PortState.OPEN, PortState.CLOSED, PortState.FILTERED

# A filtered port carries nothing but its state, so every such probe shares one.
_FILTERED_PROBE = PortProbe(_FILTERED)


@dataclass(frozen=True)
class SimHostSpec:
    """Declarative behavior of one simulated host."""

    address: IPv4
    mac: bytes = b"\x02\x00\x00\x00\x00\x00"
    arp_enabled: bool = True
    icmp_echo_enabled: bool = True
    open_ports: dict = field(default_factory=dict)   # port -> banner bytes or None
    filtered_ports: frozenset = frozenset()
    base_rtt: int = 500
    rtt_jitter: int = 0
    modbus_identity: Optional[dict] = None           # object id -> string

    def __post_init__(self):
        if self.base_rtt <= 0:
            raise ValueError("base_rtt must be positive")
        if self.rtt_jitter < 0:
            raise ValueError("rtt_jitter cannot be negative")
        if len(self.mac) != 6:
            raise ValueError("mac must be 6 bytes")
        overlap = set(self.open_ports) & set(self.filtered_ports)
        if overlap:
            raise ValueError(f"ports cannot be both open and filtered: {sorted(overlap)}")


# -- timed script actions ---------------------------------------------------

@dataclass(frozen=True)
class AddHost:
    at: int
    spec: SimHostSpec


@dataclass(frozen=True)
class RemoveHost:
    at: int
    address: IPv4


@dataclass(frozen=True)
class OpenPort:
    at: int
    address: IPv4
    port: int
    banner: Optional[bytes] = None


@dataclass(frozen=True)
class ClosePort:
    at: int
    address: IPv4
    port: int


@dataclass(frozen=True)
class SetLatencyFactor:
    at: int
    address: IPv4
    factor: float


@dataclass(frozen=True)
class SetIcmpEcho:
    at: int
    address: IPv4
    enabled: bool


@dataclass(frozen=True)
class SetArp:
    at: int
    address: IPv4
    enabled: bool


Action = Union[AddHost, RemoveHost, OpenPort, ClosePort,
               SetLatencyFactor, SetIcmpEcho, SetArp]


@dataclass(frozen=True)
class SimScript:
    """Ordered list of timed actions; times must be non-decreasing."""

    actions: tuple = ()

    def __post_init__(self):
        last = 0
        for action in self.actions:
            if action.at < last:
                raise MalformedScript(
                    f"script action times must be non-decreasing (saw {action.at} after {last})")
            last = action.at


class _HostState:
    """Mutable runtime state derived from a SimHostSpec."""

    def __init__(self, spec: SimHostSpec):
        self.address = spec.address
        self.arp_enabled = spec.arp_enabled
        self.icmp_echo_enabled = spec.icmp_echo_enabled
        self.open_ports = dict(spec.open_ports)
        self.filtered_ports = set(spec.filtered_ports)
        self.base_rtt = spec.base_rtt
        self.rtt_jitter = spec.rtt_jitter
        self.latency_factor = 1.0
        self.modbus_identity = dict(spec.modbus_identity) if spec.modbus_identity else None


class SimNetwork(ProbeTransport):
    """Simulated-network probe transport with exact packet accounting."""

    supports_arp = True
    supports_raw_syn = True

    def __init__(self, hosts=(), script: SimScript = SimScript(), seed: int = 0):
        self._clock = VirtualClock()
        self._counters = PacketCounters()
        # keyed by int(address): an IPv4Address hashes through hex(), and
        # every probe looks its target up here
        self._hosts: dict[int, _HostState] = {}
        for spec in hosts:
            if int(spec.address) in self._hosts:
                raise MalformedScript(f"duplicate initial host {spec.address}")
            self._hosts[int(spec.address)] = _HostState(spec)
        self._script = script
        self._next_action = 0
        self._prng = Prng(seed)
        self._clock.on_advance(self._apply_due)

    @property
    def clock(self) -> VirtualClock:
        return self._clock

    @property
    def counters(self) -> PacketCounters:
        return self._counters

    # -- script handling ----------------------------------------------------

    def simnet_advance(self, until: int) -> int:
        """Advance the virtual clock, applying all due script actions."""
        before = self._next_action
        self._clock.advance_to(until)
        return self._next_action - before

    def _apply_due(self, now: int):
        """Clock observer: apply the actions due by `now`, return the next
        action's time (math.inf once the script is done)."""
        actions = self._script.actions
        while self._next_action < len(actions) and actions[self._next_action].at <= now:
            self._apply(actions[self._next_action])
            self._next_action += 1
        if self._next_action < len(actions):
            return actions[self._next_action].at
        return math.inf

    def _apply(self, action: Action) -> None:
        if isinstance(action, AddHost):
            key = int(action.spec.address)
            if key in self._hosts:
                raise MalformedScript(f"AddHost for existing address {action.spec.address}")
            self._hosts[key] = _HostState(action.spec)
            return
        host = self._hosts.get(int(action.address))
        if host is None:
            raise MalformedScript(
                f"{type(action).__name__} references unknown address {action.address}")
        if isinstance(action, RemoveHost):
            del self._hosts[int(action.address)]
        elif isinstance(action, OpenPort):
            host.open_ports[action.port] = action.banner
            host.filtered_ports.discard(action.port)
        elif isinstance(action, ClosePort):
            host.open_ports.pop(action.port, None)
            host.filtered_ports.discard(action.port)
        elif isinstance(action, SetLatencyFactor):
            host.latency_factor = action.factor
        elif isinstance(action, SetIcmpEcho):
            host.icmp_echo_enabled = action.enabled
        elif isinstance(action, SetArp):
            host.arp_enabled = action.enabled
        else:
            raise MalformedScript(f"unknown action {action!r}")

    # -- probe primitives ---------------------------------------------------

    def _rtt(self, host: _HostState) -> int:
        rtt = int(host.base_rtt * host.latency_factor)
        if host.rtt_jitter:
            rtt += self._prng.below(host.rtt_jitter + 1)
        return max(rtt, 1)

    def _reachable(self, target: IPv4) -> Optional[_HostState]:
        host = self._hosts.get(int(target))
        if host is None or not host.arp_enabled:
            return None
        return host

    def _echo(self, request: str, reply: str, host: Optional[_HostState],
              timeout: int) -> ProbeReply:
        """One request/reply exchange with a host that answers, or with nobody."""
        t0 = self._clock.now()
        self._counters.record(request, t0)
        if host is not None:
            rtt = self._rtt(host)
            if rtt <= timeout:
                self._counters.record(reply, t0 + rtt)
                self._clock.advance_to(t0 + rtt)
                return ProbeReply(True, rtt)
        self._clock.advance_to(t0 + timeout)
        return ProbeReply(False)

    def arp_probe(self, target: IPv4, timeout: int) -> ProbeReply:
        return self._echo("arp_request", "arp_reply", self._reachable(target), timeout)

    def icmp_ping(self, target: IPv4, timeout: int) -> ProbeReply:
        host = self._reachable(target)
        if host is not None and not host.icmp_echo_enabled:
            host = None
        return self._echo("icmp_request", "icmp_reply", host, timeout)

    def _syn(self, target: IPv4, port: int, timeout: int) -> PortProbe:
        """Send a SYN and settle every outcome but an open port.

        A filtered or closed port comes back as a finished probe with the
        clock already past it.  An open port comes back with its SYN+ACK
        recorded and the clock still at the send time, so the caller
        finishes the exchange.
        """
        t0 = self._clock.now()
        self._counters.record("tcp_syn", t0)
        host = self._reachable(target)
        if host is not None and port not in host.filtered_ports:
            rtt = self._rtt(host)
            if rtt <= timeout:
                if port in host.open_ports:
                    self._counters.record("tcp_synack", t0 + rtt)
                    return PortProbe(_OPEN, None, rtt)
                self._counters.record("tcp_rst", t0 + rtt)  # target refuses
                self._clock.advance_to(t0 + rtt)
                return PortProbe(_CLOSED, None, rtt)
        self._clock.advance_to(t0 + timeout)
        return _FILTERED_PROBE

    def _reset(self, when: int) -> None:
        self._counters.record("tcp_rst", when)
        self._clock.advance_to(when)

    def tcp_syn(self, target: IPv4, port: int, timeout: int) -> PortProbe:
        probe = self._syn(target, port, timeout)
        if probe.state is _OPEN:
            self._reset(self._clock.now() + probe.rtt)  # scanner tears down half-open
        return probe

    def tcp_connect(self, target: IPv4, port: int, timeout: int,
                    banner_grab: bool = True, banner_max: int = 128) -> PortProbe:
        probe = self._syn(target, port, timeout)
        if probe.state is not _OPEN:
            return probe
        t0, rtt = self._clock.now(), probe.rtt
        self._counters.record("tcp_ack", t0 + rtt)
        banner = self._hosts[int(target)].open_ports[port]
        if banner_grab and banner:
            # service pushes its banner one round trip after the handshake
            self._counters.record("banner_data", t0 + 2 * rtt, len(banner))
            self._reset(t0 + 2 * rtt)
            return PortProbe(_OPEN, banner[:banner_max], rtt)
        self._reset(t0 + rtt)
        return probe

    def tcp_exchange(self, target: IPv4, port: int, payload: bytes,
                     timeout: int) -> Optional[bytes]:
        probe = self._syn(target, port, timeout)
        if probe.state is not _OPEN:
            return None
        t0, rtt = self._clock.now(), probe.rtt
        self._counters.record("tcp_ack", t0 + rtt)
        self._counters.record("banner_data", t0 + rtt, len(payload))
        reply = self._answer(self._hosts[int(target)], port, payload)
        if reply is not None:
            self._counters.record("banner_data", t0 + 2 * rtt, len(reply))
        self._reset(t0 + 2 * rtt)
        return reply

    def _answer(self, host: _HostState, port: int, payload: bytes) -> Optional[bytes]:
        if host.modbus_identity is not None:
            try:
                tid, unit = modbus.parse_device_id_request(payload)
            except Exception:
                return None
            return modbus.build_device_id_response(tid, unit, host.modbus_identity)
        # a non-Modbus service just talks its banner back
        return host.open_ports[port]
