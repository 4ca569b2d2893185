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

from . import modbus
from .errors import TransportDown
from .model import (Alive, HostRecord, IPv4, NetworkFingerprint, ScanConfig,
                    config_digest)
from .transport import ProbeTransport

StopFn = Optional[Callable[[], bool]]

RTT_SAMPLE_COUNT = 3  # median of three tolerates one outlier cheaply


class SweepAborted(Exception):
    """Raised internally when a stop request interrupts a sweep."""


def _check_stop(stop: StopFn) -> None:
    if stop is not None and stop():
        raise SweepAborted


def _windowed(transport: ProbeTransport, probe, window: int, delay: int):
    """Run a discovery probe, hold its full listening window, then pace."""
    clock = transport.clock
    t0 = clock.now()
    result = probe()
    remaining = t0 + window - clock.now()
    if remaining > 0:
        clock.sleep(remaining)
    clock.sleep(delay)
    return result


def discover_host(target: IPv4, config: ScanConfig,
                  transport: ProbeTransport, stop: StopFn = None):
    """Classify a host as Up / SilentUp / Down and collect RTT samples.

    With ARP capability: ARP first; a responder is then pinged.  Without
    it, ICMP alone decides between Up and Down.  Up hosts contribute
    RTT_SAMPLE_COUNT echo samples spaced by the ping delay.
    """
    samples = []
    if transport.supports_arp:
        _check_stop(stop)
        arp = _windowed(transport,
                        lambda: transport.arp_probe(target, config.ping_timeout),
                        config.ping_timeout, config.ping_delay)
        if not arp.replied:
            return Alive.DOWN, ()
    _check_stop(stop)
    first = _windowed(transport,
                      lambda: transport.icmp_ping(target, config.ping_timeout),
                      config.ping_timeout, config.ping_delay)
    if not first.replied:
        if transport.supports_arp:
            return Alive.SILENT_UP, ()
        return Alive.DOWN, ()
    samples.append(first.rtt)
    while len(samples) < RTT_SAMPLE_COUNT:
        _check_stop(stop)
        ping = _windowed(transport,
                         lambda: transport.icmp_ping(target, config.ping_timeout),
                         config.ping_timeout, config.ping_delay)
        if ping.replied:
            samples.append(ping.rtt)
        else:
            break
    return Alive.UP, tuple(samples)


def scan_host_ports(target: IPv4, config: ScanConfig, transport: ProbeTransport,
                    order, stop: StopFn = None):
    """Probe every port of the configured range once, in the given order."""
    # everything but the port is fixed for the host, so bind it once
    timeout = config.connect_timeout
    if config.syn_scan:
        syn = transport.tcp_syn
        send = lambda port: syn(target, port, timeout)
    else:
        connect, grab, most = (transport.tcp_connect, config.banner_grab,
                               config.banner_max_bytes)
        send = lambda port: connect(target, port, timeout, grab, most)
    sleep, delay = transport.clock.sleep, config.port_delay
    ports = {}
    banners = {}
    for port in order:
        if stop is not None and stop():
            raise SweepAborted
        result = send(port)
        ports[port] = result.state
        if result.banner:
            banners[port] = result.banner
        sleep(delay)
    return ports, banners


def full_sweep(config: ScanConfig, transport: ProbeTransport, schedule,
               stop: StopFn = None) -> NetworkFingerprint:
    """One complete pass over the address range in schedule order.

    A host that fails mid-scan is treated as Down and the sweep carries
    on; only an explicit stop request interrupts it (SweepAborted).
    """
    clock = transport.clock
    started = clock.now()
    hosts = {}
    for addr in schedule.host_order:
        try:
            alive, samples = discover_host(addr, config, transport, stop)
        except TransportDown:
            continue
        if alive is Alive.DOWN:
            continue
        ports, banners = {}, {}
        eligible = alive is Alive.UP or (alive is Alive.SILENT_UP and config.scan_silent_hosts)
        if eligible:
            try:
                ports, banners = scan_host_ports(addr, config, transport,
                                                 schedule.port_order(addr), stop)
            except TransportDown:
                continue
        hosts[addr] = HostRecord(address=addr, alive=alive, rtt_samples=samples,
                                 ports=ports, banners=banners)
    return NetworkFingerprint(
        started_at=started, finished_at=clock.now(),
        config_digest=config_digest(config), hosts=hosts, trusted=False)


def modbus_identify(target: IPv4, transport: ProbeTransport,
                    port: int = 502, timeout: int = 1_000_000):
    """Read the Basic device identification objects over Modbus/TCP.

    Returns an object-id -> string map, or None when the service does not
    speak device identification (garbage reply, Modbus exception, or no
    reply at all).  Structurally corrupt identification responses raise
    MalformedResponse instead of being silently dropped.
    """
    request = modbus.build_device_id_request(tid=1, unit=1)
    reply = transport.tcp_exchange(target, port, request, timeout)
    if reply is None:
        return None
    try:
        return modbus.parse_device_id_response(reply)
    except ValueError:
        return None
