"""Deterministic simulated network backend.

Hosts are declarative specs; a timed script action swaps one host's
spec for another, while a virtual clock drives all timing.  Packet
accounting follows the classic probe message sequences exactly: a SYN
scan of an open port is SYN / SYN+ACK / RST (3 packets), of a closed
port SYN / RST (2); a connect scan of an open port completes the
handshake, optionally reads the service banner, then resets.

Reachability model: a host answers anything only while it participates
in ARP (a device with ARP disabled is link-layer dark, per the stealth
host configuration).  ICMP echo additionally requires echo enabled.
RTT is base_rtt * latency_factor + uniform jitter, in microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
    arp_enabled: bool = True
    icmp_echo_enabled: bool = True
    open_ports: dict = field(default_factory=dict)   # port -> banner bytes or None
    filtered_ports: frozenset = frozenset()
    base_rtt: int = 500
    rtt_jitter: int = 0
    latency_factor: float = 1.0   # set only by a set-latency action

    def __post_init__(self):
        if self.base_rtt <= 0:
            raise ValueError("base_rtt must be positive")
        if self.rtt_jitter < 0:
            raise ValueError("rtt_jitter cannot be negative")
        if not 0 < self.latency_factor < math.inf:  # false for nan too
            raise ValueError(f"latency factor must be finite and positive, "
                             f"got {self.latency_factor}")
        # sorted, not min and max: sorting has a fast path for comparing
        # ints, and a firewalled host lists a thousand filtered ports
        ports = sorted([*self.open_ports, *self.filtered_ports])
        for port in ports[:1] + ports[-1:]:
            if not 0 < port < 65536:
                raise ValueError(f"port {port} is outside 1-65535")
        overlap = self.filtered_ports.intersection(self.open_ports)
        if overlap:
            raise ValueError(f"ports cannot be both open and filtered: {sorted(overlap)}")


class SimNetwork(ProbeTransport):
    """Simulated-network probe transport with exact packet accounting.

    A timed action `(at, address, spec)` gives the host at `address` that
    spec from time `at` on, or removes it when the spec is None.
    `scenario.loads` works out every spec and orders the actions by time;
    the network trusts them.  Due actions are applied where host state is
    read, so an action at t is in effect for every probe sent at or after t.
    """

    supports_arp = True

    def __init__(self, hosts=(), actions: tuple = (), seed: int = 0):
        self.clock = VirtualClock()
        self.counters = PacketCounters()
        # keyed by int(address): an IPv4Address hashes through hex(), and
        # every probe looks its target up here
        self._hosts = {int(spec.address): spec for spec in hosts}
        # the last port probe's target and its key: a scan sends a host's
        # ports back to back, and int() of an IPv4Address is a Python call
        self._target, self._key = None, None
        self._actions = actions
        self._next_action = 0
        self._due = actions[0][0] if actions else math.inf
        self._prng = Prng(seed)

    def _apply_due(self) -> None:
        """Swap in the host specs due by now; note when the next action is due."""
        now, actions = self.clock.now(), self._actions
        while self._next_action < len(actions) and actions[self._next_action][0] <= now:
            _, address, spec = actions[self._next_action]
            if spec is None:
                del self._hosts[int(address)]
            else:
                self._hosts[int(address)] = spec
            self._next_action += 1
        self._due = (actions[self._next_action][0] if self._next_action < len(actions)
                     else math.inf)

    # -- probe primitives ---------------------------------------------------

    def _rtt(self, host: SimHostSpec) -> int:
        rtt = int(host.base_rtt * host.latency_factor)
        if host.rtt_jitter:
            rtt += self._prng.below(host.rtt_jitter + 1)
        return max(rtt, 1)

    def _reachable(self, target: IPv4) -> Optional[SimHostSpec]:
        """The host answering at `target` now; no probe reads host state
        before this, or before the same steps inlined in `_syn`."""
        if self.clock.now() >= self._due:
            self._apply_due()
        host = self._hosts.get(int(target))
        if host is None or not host.arp_enabled:
            return None
        return host

    def _echo(self, request: str, reply: str, host: Optional[SimHostSpec],
              timeout: int) -> ProbeReply:
        """One request/reply exchange with a host that answers, or with nobody."""
        t0 = self.clock.now()
        self.counters.record(request, t0)
        if host is not None:
            rtt = self._rtt(host)
            if rtt <= timeout:
                self.counters.record(reply, t0 + rtt)
                self.clock.advance_to(t0 + rtt)
                return ProbeReply(True, rtt)
        self.clock.advance_to(t0 + timeout)
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

        Every port probe runs through here, so a closed or filtered one is
        settled in this frame: `_reachable`'s checks, `_rtt`'s draw in the
        same order, and the clock moved in place, never backwards.
        """
        clock = self.clock
        t0 = clock._now
        if t0 >= self._due:
            self._apply_due()
        if target is not self._target:
            self._target, self._key = target, int(target)
        host = self._hosts.get(self._key)
        self.counters.record("tcp_syn", t0)
        if host is not None and host.arp_enabled and port not in host.filtered_ports:
            rtt = int(host.base_rtt * host.latency_factor)
            if host.rtt_jitter:
                rtt += self._prng.below(host.rtt_jitter + 1)
            if rtt < 1:
                rtt = 1
            if rtt <= timeout:
                if port in host.open_ports:
                    self.counters.record("tcp_synack", t0 + rtt)
                    return PortProbe(_OPEN, None, rtt)
                self.counters.record("tcp_rst", t0 + rtt)  # target refuses
                clock._now = t0 + rtt
                return PortProbe(_CLOSED, None, rtt)
        if timeout < 0:  # the clock never moves backwards
            raise ValueError(f"negative timeout {timeout}")
        clock._now = t0 + timeout
        return _FILTERED_PROBE

    def _reset(self, when: int) -> None:
        self.counters.record("tcp_rst", when)
        self.clock.advance_to(when)

    def tcp_syn(self, target: IPv4, port: int, timeout: int) -> PortProbe:
        probe = self._syn(target, port, timeout)
        if probe.state is _OPEN:
            self._reset(self.clock.now() + probe.rtt)  # scanner tears down half-open
        return probe

    def tcp_connect(self, target: IPv4, port: int, timeout: int,
                    banner_grab: bool = True, banner_max: int = 128) -> PortProbe:
        probe = self._syn(target, port, timeout)
        if probe.state is not _OPEN:
            return probe
        t0, rtt = self.clock.now(), probe.rtt
        self.counters.record("tcp_ack", t0 + rtt)
        banner = self._hosts[self._key].open_ports[port]  # the host _syn just reached
        if banner_grab and banner:
            # service pushes its banner one round trip after the handshake
            self.counters.record("banner_data", t0 + 2 * rtt, len(banner))
            self._reset(t0 + 2 * rtt)
            return PortProbe(_OPEN, banner[:banner_max], rtt)
        self._reset(t0 + rtt)
        return probe
