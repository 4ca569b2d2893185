"""Deterministic simulated network backend.

Hosts are declarative specs; a timed script action swaps one host's
spec for another, while a virtual clock drives all timing.  Packet
accounting follows the classic probe message sequences exactly, each
reply one RTT after its request: an echo is request / reply; a SYN scan
of an open port is SYN / SYN+ACK / RST (3 packets), of a closed port
SYN / RST (2).  A connect scan of an open port sends its ACK with the
SYN+ACK, takes a nonempty banner, when grabbing, one more RTT later,
then resets with the last packet.  A probe nobody answers is its request
alone.  The clock is left at the last packet, or at the timeout.

Reply rule, applied to every probe by `SimNetwork._exchange`: a host
answers only while it is present and participates in ARP (a device with
ARP disabled is link-layer dark, per the stealth host configuration),
the probed port is not filtered, and, for an ICMP echo, echo is enabled.
Only a host that answers draws its RTT, once per probe: base_rtt *
latency_factor plus, when rtt_jitter is set, a uniform draw in
[0, rtt_jitter], then at least 1, in microseconds.  A reply later than
the timeout is silence.  A target's reply plan, its spec and what that
fixes of every reply, is built when the target changes and dropped
whenever a due action applies.
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

# Silence carries no RTT or banner, so every silent probe shares one outcome.
_FILTERED_PROBE = PortProbe(_FILTERED)
_NO_REPLY = ProbeReply(False)

_ECHO_REPLY = {"arp_request": "arp_reply", "icmp_request": "icmp_reply"}


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
        # the last probe's target and its reply plan: a scan probes a host's ports in a row
        self._target = self._host = self._fixed_rtt = self._closed_probe = None
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
        self._target = None  # the plan may be stale
        self._due = (actions[self._next_action][0] if self._next_action < len(actions)
                     else math.inf)

    # -- probe primitives ---------------------------------------------------

    def _exchange(self, request: str, target: IPv4, timeout: int, port: Optional[int] = None,
                  connect: bool = False, banner_grab: bool = False, banner_max: int = 0):
        """Send `request` to `target` and settle the whole exchange, all in this frame.

        Without a port this is an ARP or ICMP echo and returns a
        ProbeReply; with one it is a SYN, of a connect scan when `connect`
        is set, and returns a PortProbe.  It records every packet of the
        exchange and leaves the clock at the last one, or at the timeout.
        No probe reads host state before the due actions are applied here.
        """
        clock = self.clock
        t0 = clock._now
        if t0 >= self._due:
            self._apply_due()
        if target is not self._target:  # a new target: build its reply plan
            host = self._host = self._hosts.get(int(target))
            if host is not None:
                fixed = self._fixed_rtt = int(host.base_rtt * host.latency_factor)
                self._closed_probe = (None if host.rtt_jitter
                                      else PortProbe(_CLOSED, None, max(fixed, 1)))
            self._target = target
        host = self._host
        if (host is not None and host.arp_enabled and port not in host.filtered_ports
                and (host.icmp_echo_enabled or request != "icmp_request")):
            rtt = self._fixed_rtt
            if host.rtt_jitter:
                rtt += self._prng.below(host.rtt_jitter + 1)
            if rtt < 1:
                rtt = 1
            if rtt <= timeout:
                if port is None:
                    self.counters.record_exchange(request, t0, _ECHO_REPLY[request], t0 + rtt)
                    clock._now = t0 + rtt
                    return ProbeReply(True, rtt)
                if port in host.open_ports:
                    counters, end, banner = self.counters, t0 + rtt, None
                    counters.record(request, t0)
                    counters.record("tcp_synack", end)
                    if connect:
                        counters.record("tcp_ack", end)
                        served = host.open_ports[port]
                        if banner_grab and served:
                            end += rtt  # the service pushes it a round trip after the handshake
                            counters.record("banner_data", end, len(served))
                            banner = served[:banner_max]
                    counters.record("tcp_rst", end)  # the scanner tears the connection down
                    clock.advance_to(end)
                    # tuple.__new__ skips the NamedTuple's Python-level __new__
                    return tuple.__new__(PortProbe, (_OPEN, banner, rtt))
                self.counters.record_exchange(request, t0, "tcp_rst", t0 + rtt)  # refused
                clock._now = t0 + rtt
                return self._closed_probe or tuple.__new__(PortProbe, (_CLOSED, None, rtt))
        if timeout < 0:  # the clock never moves backwards
            raise ValueError(f"negative timeout {timeout}")
        self.counters.record(request, t0)
        clock._now = t0 + timeout
        return _NO_REPLY if port is None else _FILTERED_PROBE

    def arp_probe(self, target: IPv4, timeout: int) -> ProbeReply:
        return self._exchange("arp_request", target, timeout)

    def icmp_ping(self, target: IPv4, timeout: int) -> ProbeReply:
        return self._exchange("icmp_request", target, timeout)

    def tcp_syn(self, target: IPv4, port: int, timeout: int) -> PortProbe:
        return self._exchange("tcp_syn", target, timeout, port)

    def tcp_connect(self, target: IPv4, port: int, timeout: int,
                    banner_grab: bool = True, banner_max: int = 128) -> PortProbe:
        return self._exchange("tcp_syn", target, timeout, port, True, banner_grab, banner_max)
