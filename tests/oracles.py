"""Independent brute-force reimplementations used to cross-check the package.

Nothing in here calls into edgemap's diff or store logic; results are
compared structurally against the package output in the tests.
"""

import shlex
import statistics
import zlib


def _median(samples):
    ordered = sorted(samples)
    return ordered[(len(ordered) - 1) // 2]


def brute_force_diff(baseline, current, factor, floor):
    """Return the expected event set as (int_addr, wire_kind, port) tuples.

    Written as plain nested loops from first principles so it shares no
    code path with edgemap.diffing.
    """
    out = set()
    for addr, rec in current.hosts.items():
        if addr not in baseline.hosts:
            out.add((int(addr), "HostAdded", None))
    for addr, rec in baseline.hosts.items():
        if addr not in current.hosts:
            out.add((int(addr), "HostRemoved", None))
    for addr in baseline.hosts:
        if addr not in current.hosts:
            continue
        old = baseline.hosts[addr]
        new = current.hosts[addr]
        for port in old.ports:
            if port not in new.ports:
                continue
            before = old.ports[port].value
            after = new.ports[port].value
            if before != "open" and after == "open":
                out.add((int(addr), "PortOpened", port))
            if before == "open" and after != "open":
                out.add((int(addr), "PortClosed", port))
            if before == "open" and after == "open":
                if old.banners.get(port) != new.banners.get(port):
                    out.add((int(addr), "BannerChanged", port))
        if old.rtt_samples and new.rtt_samples:
            m0 = _median(old.rtt_samples)
            m1 = _median(new.rtt_samples)
            if m1 > m0 * factor and m1 - m0 > floor:
                out.add((int(addr), "LatencyAnomaly", None))
    return out


def event_tuples(events):
    return {(int(e.address), e.kind.value, e.port) for e in events}


def median_low_oracle(samples):
    assert _median(samples) == statistics.median_low(samples)
    return _median(samples)


def dumps_v1(fp):
    """The version 1 record of a fingerprint, one `port` line per probed port.

    The store still reads v1 records (a node's trusted baseline may predate
    v2) but writes only v2; this is the v1 writer, kept to make v1 inputs.
    """
    lines = ["edgemap-fingerprint v1", f"digest {fp.config_digest:016x}",
             f"trusted {int(fp.trusted)}", f"started {fp.started_at}",
             f"finished {fp.finished_at}"]
    for addr in sorted(fp.hosts, key=int):
        rec = fp.hosts[addr]
        lines.append(f"host {addr} {rec.alive}")
        if rec.rtt_samples:
            lines.append("rtt " + " ".join(map(str, rec.rtt_samples)))
        lines += [f"port {port} {state.value}" for port, state in rec.ports.items()]
        lines += [f"banner {port} {rec.banners[port].hex()}" for port in sorted(rec.banners)]
    body = ("\n".join(lines) + "\nend\n").encode("ascii")
    return body + b"checksum %08x\n" % zlib.crc32(body)


def reference_intrusion_line(node_id, epoch, ts, event):
    """An event line by the generic rule: each value through
    shlex.quote(str(value)), the address through str()."""
    fields = [("node", node_id), ("epoch", epoch), ("ts", ts),
              ("kind", event.kind.value), ("addr", str(event.address))]
    if event.port is not None:
        fields.append(("port", event.port))
    fields += [("baseline", event.baseline_value), ("observed", event.observed_value)]
    return " ".join(f"{key}={shlex.quote(str(value))}" for key, value in fields)


def reference_probe(spec, request, port, t0, timeout, draw, connect=False,
                    banner_grab=True, banner_max=128):
    """One simulated probe by the rules of the simnet module docstring.

    `spec` is the target's SimHostSpec, or None where no host is;
    `request` is "arp_request", "icmp_request" or "tcp_syn"; `connect`
    picks a connect scan over a SYN scan; `draw(n)` is the network's
    jitter stream, uniform in [0, n).  Returns the packets as (class,
    time, banner length) tuples, the result as a plain tuple (an echo's
    (replied, rtt), a port's (state value, banner, rtt)) and the clock
    after the probe.
    """
    rtt = None
    if (spec is not None and spec.arp_enabled and port not in spec.filtered_ports
            and (spec.icmp_echo_enabled or request != "icmp_request")):
        rtt = int(spec.base_rtt * spec.latency_factor)
        if spec.rtt_jitter:
            rtt += draw(spec.rtt_jitter + 1)
        rtt = max(rtt, 1)
    if rtt is None or rtt > timeout:  # silence: the scanner waits out the timeout
        silent = (False, None) if port is None else ("filtered", None, None)
        return [(request, t0, 0)], silent, t0 + timeout
    replied = t0 + rtt
    if port is None:
        reply = {"arp_request": "arp_reply", "icmp_request": "icmp_reply"}[request]
        return [(request, t0, 0), (reply, replied, 0)], (True, rtt), replied
    if port not in spec.open_ports:  # refused
        return [("tcp_syn", t0, 0), ("tcp_rst", replied, 0)], ("closed", None, rtt), replied
    packets = [("tcp_syn", t0, 0), ("tcp_synack", replied, 0)]
    banner, end = None, replied
    if connect:
        packets.append(("tcp_ack", replied, 0))
        served = spec.open_ports[port]
        if banner_grab and served:  # pushed one round trip after the handshake
            end = replied + rtt
            packets.append(("banner_data", end, len(served)))
            banner = served[:banner_max]
    packets.append(("tcp_rst", end, 0))
    return packets, ("open", banner, rtt), end
