"""Per-host scan procedures composed from transport primitives.

Discovery probes (ARP/ICMP) use a fixed listening window of the probe
timeout: the result is taken when the window closes, then the configured
ping delay elapses before the next probe.  That keeps the broadcast-heavy
discovery phase at a hard ceiling of one exchange per window regardless
of how fast hosts answer.  Port probes are reply-driven: the next probe
starts one port delay after the previous one resolved, which is what
bounds TCP traffic to the documented packets-per-second envelope.
"""

from __future__ import annotations

from typing import Callable, Optional

from .model import (PORT_CODES, Alive, HostRecord, IPv4, NetworkFingerprint,
                    PortTable, ScanConfig, config_digest)
from .transport import ProbeTransport

StopFn = Optional[Callable[[], bool]]

RTT_SAMPLE_COUNT = 3  # median of three tolerates one outlier cheaply


class SweepAborted(Exception):
    """Raised internally when a stop request interrupts a sweep."""


def discover_host(target: IPv4, config: ScanConfig,
                  transport: ProbeTransport, stop: StopFn = None):
    """Classify a host as Up / SilentUp / Down and collect RTT samples.

    With ARP capability: ARP first; a responder is then pinged.  Without
    it, ICMP alone decides between Up and Down.  Up hosts contribute
    RTT_SAMPLE_COUNT echo samples spaced by the ping delay.
    """
    clock, window, delay = transport.clock, config.ping_timeout, config.ping_delay

    def windowed(probe):
        """Run one discovery probe, hold its full listening window, then pace."""
        if stop is not None and stop():
            raise SweepAborted
        t0 = clock.now()
        result = probe(target, window)
        remaining = t0 + window - clock.now()
        if remaining > 0:
            clock.sleep(remaining)
        clock.sleep(delay)
        return result

    if transport.supports_arp and not windowed(transport.arp_probe).replied:
        return Alive.DOWN, ()
    samples = []
    while len(samples) < RTT_SAMPLE_COUNT:
        ping = windowed(transport.icmp_ping)
        if not ping.replied:
            break
        samples.append(ping.rtt)
    if samples:
        return Alive.UP, tuple(samples)
    return (Alive.SILENT_UP if transport.supports_arp else Alive.DOWN), ()


def scan_host_ports(target: IPv4, config: ScanConfig, transport: ProbeTransport,
                    order, stop: StopFn = None):
    """Probe every port of the configured range once, in the given order.

    Returns the port states as a PortTable and the banners by port.
    """
    # everything but the port is fixed for the host, so bind it once
    syn_scan, syn, connect = config.syn_scan, transport.tcp_syn, transport.tcp_connect
    timeout, grab, most = config.connect_timeout, config.banner_grab, config.banner_max_bytes
    sleep, delay = transport.clock.sleep, config.port_delay
    first = config.port_range[0]
    codes, code_of = bytearray(config.port_range[1] - first + 1), PORT_CODES
    banners = {}
    for port in order:
        if stop is not None and stop():
            raise SweepAborted
        result = (syn(target, port, timeout) if syn_scan
                  else connect(target, port, timeout, grab, most))
        codes[port - first] = code_of[result.state._value_]
        if result.banner:
            banners[port] = result.banner
        sleep(delay)
    return PortTable(first, codes), banners


def full_sweep(config: ScanConfig, transport: ProbeTransport, schedule,
               stop: StopFn = None) -> NetworkFingerprint:
    """One complete pass over the address range in schedule order.

    A stop request interrupts it (SweepAborted).  A transport failure
    ends it too, and reaches the caller as raised: a host the sweep could
    not probe is never reported as absent.
    """
    clock = transport.clock
    started = clock.now()
    hosts = {}
    for addr in schedule.host_order:
        alive, samples = discover_host(addr, config, transport, stop)
        if alive is Alive.DOWN:
            continue
        ports, banners = {}, {}
        eligible = alive is Alive.UP or (alive is Alive.SILENT_UP and config.scan_silent_hosts)
        if eligible:
            ports, banners = scan_host_ports(addr, config, transport,
                                             schedule.port_order(addr), stop)
        hosts[addr] = HostRecord(address=addr, alive=alive, rtt_samples=samples,
                                 ports=ports, banners=banners)
    return NetworkFingerprint(
        started_at=started, finished_at=clock.now(),
        config_digest=config_digest(config), hosts=hosts, trusted=False)
