import ipaddress
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_config
from oracles import reference_probe
from edgemap.model import PortState
from edgemap.probe import scan_host_ports
from edgemap.rng import Prng
from edgemap.simnet import SimHostSpec, SimNetwork
from edgemap.transport import (DISCOVERY_CLASSES, FIXED_SIZE, PACKET_CLASSES, TCP_CLASSES,
                               TCP_CONTROL_BYTES, PacketCounters)

A = ipaddress.IPv4Address
SEC = 1_000_000


def one_host(**kw):
    spec = SimHostSpec(address=A("10.0.0.1"), **kw)
    return SimNetwork([spec]), spec.address


def delta(net, fn):
    """Packet-count delta of one probe call, as a {class: count} dict."""
    before = dict(net.counters.counts)
    fn()
    after = net.counters.counts
    return {cls: after[cls] - n for cls, n in before.items() if after[cls] != n}


class TestMessageSequences:
    """Exact per-probe packet traces for every probe flavor."""

    def test_syn_scan_open_port(self):
        net, addr = one_host(open_ports={22: None}, base_rtt=300)
        probe = None

        def run():
            nonlocal probe
            probe = net.tcp_syn(addr, 22, SEC)

        assert delta(net, run) == {"tcp_syn": 1, "tcp_synack": 1, "tcp_rst": 1}
        assert probe.state is PortState.OPEN
        assert probe.rtt == 300
        assert net.clock.now() == 300

    def test_syn_scan_closed_port(self):
        net, addr = one_host(base_rtt=300)
        assert delta(net, lambda: net.tcp_syn(addr, 22, SEC)) == {
            "tcp_syn": 1, "tcp_rst": 1}

    def test_syn_scan_filtered_port_times_out(self):
        net, addr = one_host(filtered_ports=frozenset({23}))
        probe = net.tcp_syn(addr, 23, SEC)
        assert probe.state is PortState.FILTERED
        assert net.counters.counts["tcp_syn"] == 1
        assert net.counters.total_packets() == 1
        assert net.clock.now() == SEC  # waited the full timeout

    def test_connect_scan_open_with_banner(self):
        net, addr = one_host(open_ports={22: b"SSH-2.0\r\n"}, base_rtt=200)
        assert delta(net, lambda: net.tcp_connect(addr, 22, SEC)) == {
            "tcp_syn": 1, "tcp_synack": 1, "tcp_ack": 1,
            "banner_data": 1, "tcp_rst": 1}
        assert net.clock.now() == 400  # handshake rtt + banner rtt

    def test_connect_scan_open_without_banner(self):
        net, addr = one_host(open_ports={22: None})
        assert delta(net, lambda: net.tcp_connect(addr, 22, SEC)) == {
            "tcp_syn": 1, "tcp_synack": 1, "tcp_ack": 1, "tcp_rst": 1}

    def test_connect_scan_closed(self):
        net, addr = one_host()
        assert delta(net, lambda: net.tcp_connect(addr, 22, SEC)) == {
            "tcp_syn": 1, "tcp_rst": 1}

    def test_banner_grab_disabled_skips_data(self):
        net, addr = one_host(open_ports={22: b"SSH-2.0\r\n"})
        probe = net.tcp_connect(addr, 22, SEC, banner_grab=False)
        assert probe.state is PortState.OPEN and probe.banner is None
        assert net.counters.counts["banner_data"] == 0

    def test_banner_truncated_to_max(self):
        net, addr = one_host(open_ports={22: b"x" * 100})
        probe = net.tcp_connect(addr, 22, SEC, banner_max=16)
        assert probe.banner == b"x" * 16


class TestByteAccounting:
    def test_fixed_class_sizes(self):
        net, addr = one_host(open_ports={22: None})
        net.arp_probe(addr, SEC)
        net.icmp_ping(addr, SEC)
        net.tcp_syn(addr, 22, SEC)
        c = net.counters
        assert c.bytes["arp_request"] == 60 and c.bytes["arp_reply"] == 60
        assert c.bytes["icmp_request"] == 74 and c.bytes["icmp_reply"] == 74
        for cls in ("tcp_syn", "tcp_synack", "tcp_rst"):
            assert c.bytes[cls] == 60 * c.counts[cls]

    def test_banner_bytes_are_payload_plus_framing(self):
        banner = b"SSH-2.0-OpenSSH_8.9p1 edge1\r\n"
        assert len(banner) == 29
        net, addr = one_host(open_ports={22: banner})
        net.tcp_connect(addr, 22, SEC)
        assert net.counters.bytes["banner_data"] == 95  # 29 + 66

    def test_per_second_buckets_reconstruct_totals(self):
        net, addr = one_host(open_ports={5: None, 7: b"hello\r\n"}, base_rtt=400)
        for port in range(1, 9):
            net.tcp_connect(addr, port, SEC)
            net.clock.sleep(300_000)
        c = net.counters
        seconds = c.seconds()
        assert list(seconds) == sorted(set(seconds)) and len(seconds) > 1
        for cls in c.counts:
            assert sum(c.second_count(sec, (cls,)) for sec in seconds) == c.counts[cls]
            assert sum(c.second_bytes(sec, (cls,)) for sec in seconds) == c.bytes[cls]
        assert c.bytes["banner_data"] == 7 + 66
        assert sum(map(c.second_count, seconds)) == c.total_packets()
        assert sum(map(c.second_bytes, seconds)) == c.total_bytes()


class TestPacketCounters:
    def test_each_busy_second_has_its_own_row_and_an_earlier_one_raises(self):
        c = PacketCounters()
        c.record("icmp_request", 2 * SEC)
        c.record("tcp_syn", 5 * SEC)
        c.record("tcp_rst", 5 * SEC + 1)        # a second already in the history
        c.record("banner_data", 7 * SEC, 10)    # two quiet seconds on each side
        c.record("tcp_syn", 9 * SEC)
        c.record("tcp_syn", 9 * SEC + 3)        # the newest second again
        assert list(c.seconds()) == [2, 5, 7, 9]
        assert [c.second_count(sec) for sec in (2, 5, 7, 9)] == [1, 2, 1, 2]
        assert c.second_count(5, ("tcp_rst",)) == 1
        assert c.second_count(9, ("tcp_syn",)) == 2
        assert c.second_bytes(7) == 10 + 66
        assert c.second_bytes(2) == 74
        assert c.second_count(3) == 0 and c.second_bytes(3) == 0
        assert c.second_count(10) == 0
        before = (c.counts, c.bytes, list(c.seconds()), c.per_second, c.per_second_bytes)
        with pytest.raises(ValueError, match="second 8 recorded after second 9"):
            c.record("banner_data", 8 * SEC, 10)
        assert (c.counts, c.bytes, list(c.seconds()), c.per_second, c.per_second_bytes) == before
        # an exchange whose request is in an earlier second counts neither packet
        with pytest.raises(ValueError, match="second 8 recorded after second 9"):
            c.record_exchange("tcp_syn", 8 * SEC, "tcp_rst", 9 * SEC + 5)
        assert (c.counts, c.bytes, list(c.seconds()), c.per_second, c.per_second_bytes) == before
        c.record("tcp_ack", 9 * SEC + 4)        # the counters still take the newest second
        assert c.second_count(9) == 3

    def test_a_very_busy_second_counts_exactly(self):
        c = PacketCounters()
        for _ in range(70_000):
            c.record("tcp_syn", 3 * SEC)
            c.record("banner_data", 3 * SEC, 100)
        c.record("tcp_syn", 4 * SEC)
        assert c.counts["tcp_syn"] == 70_001
        assert c.second_count(3, ("tcp_syn",)) == 70_000
        assert c.second_bytes(3, ("banner_data",)) == 70_000 * 166
        assert c.second_count(4) == 1 and c.second_bytes(4) == 60

    def test_a_count_past_two_bytes_widens_the_cells(self):
        # no banner bytes: the 65,536th packet of one class in one second
        # is what overflows a 2-byte cell
        c = PacketCounters()
        c.record("arp_request", 2 * SEC)
        for _ in range(65_536):
            c.record("tcp_syn", 3 * SEC)
        c.record("tcp_syn", 4 * SEC)
        c.record("tcp_rst", 4 * SEC)
        assert c.counts["tcp_syn"] == 65_537 and c.counts["arp_request"] == 1
        assert list(c.per_second["tcp_syn"]) == [0, 65_536, 1]
        assert c.peak(TCP_CLASSES) == 65_536 and c.peak(DISCOVERY_CLASSES) == 1
        assert c.second_count(4) == 2 and c.second_bytes(4) == 2 * TCP_CONTROL_BYTES
        # an exchange whose request or reply is the one to overflow: the
        # cells widen once, and each packet counts once
        for full in ("tcp_syn", "tcp_rst"):
            c = PacketCounters()
            for _ in range(65_535):
                c.record(full, 5 * SEC)
            c.record_exchange("tcp_syn", 5 * SEC + 1, "tcp_rst", 5 * SEC + 300)
            c.record_exchange("tcp_syn", 5 * SEC + 400, "tcp_rst", 5 * SEC + 700)
            assert c.counts == {**dict.fromkeys(PACKET_CLASSES, 0), "tcp_syn": 2, "tcp_rst": 2,
                                full: 65_537}
            assert list(c.seconds()) == [5] and c.second_count(5) == 65_539
            assert list(c.per_second[full]) == [65_537]

    # a lone packet: (class, gap after the previous packet, banner payload
    # length); a payload above 32,767 bytes overflows a 2-byte cell in two
    # packets.  Or an exchange, through record_exchange: (class, gap, reply
    # class, reply gap), the reply 1us-2s after the request, so that some
    # exchanges cross into the next second.
    lone = st.tuples(st.sampled_from(PACKET_CLASSES),
                     st.integers(0, 3 * SEC), st.integers(0, 40_000))
    exchange = st.tuples(st.sampled_from(sorted(FIXED_SIZE)), st.integers(0, 3 * SEC),
                         st.sampled_from(sorted(FIXED_SIZE)), st.integers(1, 2 * SEC))
    streams = st.lists(st.one_of(lone, exchange), max_size=60)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(streams)
    def test_rows_agree_with_a_plain_dict_oracle(self, stream):
        c = PacketCounters()
        counts = dict.fromkeys(PACKET_CLASSES, 0)
        sizes = dict.fromkeys(PACKET_CLASSES, 0)
        by_second = {}  # second -> {class: [packets, bytes]}

        def count(cls, when, payload=0):
            size = payload + 66 if cls == "banner_data" else FIXED_SIZE[cls]
            counts[cls] += 1
            sizes[cls] += size
            cell = by_second.setdefault(when // SEC, {}).setdefault(cls, [0, 0])
            cell[0] += 1
            cell[1] += size

        when = 0
        for item in stream:
            when += item[1]
            if len(item) == 3:
                cls, _, payload = item
                c.record(cls, when, payload)
                count(cls, when, payload)
            else:
                cls, _, reply, reply_gap = item
                c.record_exchange(cls, when, reply, when + reply_gap)
                count(cls, when)
                when += reply_gap
                count(reply, when)
        assert c.counts == counts and c.bytes == sizes
        assert c.total_packets() == sum(counts.values())
        assert c.total_bytes() == sum(sizes.values())
        assert list(c.seconds()) == sorted(by_second)
        for sec in range(-1, when // SEC + 2):
            cells = by_second.get(sec, {})
            for cls in PACKET_CLASSES:
                packets, nbytes = cells.get(cls, (0, 0))
                assert c.second_count(sec, (cls,)) == packets
                assert c.second_bytes(sec, (cls,)) == nbytes
            assert c.second_count(sec) == sum(n for n, _ in cells.values())
            assert c.second_bytes(sec) == sum(b for _, b in cells.values())
        for classes in (DISCOVERY_CLASSES, TCP_CLASSES, PACKET_CLASSES, ("banner_data",)):
            assert c.peak(classes) == max(
                (sum(cells.get(cls, (0, 0))[0] for cls in classes)
                 for cells in by_second.values()), default=0)
        # the peak line prints TCP bytes as the TCP peak times one size
        assert c.peak(TCP_CLASSES) * TCP_CONTROL_BYTES == max(
            (c.second_bytes(sec, TCP_CLASSES) for sec in c.seconds()), default=0)

    def test_snapshot_is_independent_of_the_original(self):
        c = PacketCounters()
        c.record("tcp_syn", 1 * SEC)
        c.record("banner_data", 1 * SEC, 4)
        snap = c.snapshot()
        c.record("tcp_syn", 1 * SEC)
        c.record("banner_data", 1 * SEC, 4)
        c.record("tcp_rst", 2 * SEC)
        c.record("arp_request", 2 * SEC)
        assert list(snap.seconds()) == [1]
        assert snap.counts["tcp_syn"] == 1 and snap.bytes["banner_data"] == 70
        assert snap.second_count(1) == 2 and snap.second_bytes(1) == 60 + 70
        assert snap.total_packets() == 2 and snap.total_bytes() == 130
        snap.record("tcp_ack", 1 * SEC)
        assert c.counts["tcp_ack"] == 0 and c.second_count(1) == 4


class TestReachability:
    def test_missing_host_is_dark(self):
        net = SimNetwork([])
        assert not net.arp_probe(A("10.0.0.9"), SEC).replied
        assert not net.icmp_ping(A("10.0.0.9"), SEC).replied

    def test_arp_disabled_host_is_invisible_everywhere(self):
        net, addr = one_host(arp_enabled=False, open_ports={22: None})
        assert not net.arp_probe(addr, SEC).replied
        assert not net.icmp_ping(addr, SEC).replied
        assert net.tcp_syn(addr, 22, SEC).state is PortState.FILTERED

    def test_icmp_disabled_host_still_answers_arp(self):
        net, addr = one_host(icmp_echo_enabled=False)
        assert net.arp_probe(addr, SEC).replied
        assert not net.icmp_ping(addr, SEC).replied

    def test_slow_host_misses_the_window(self):
        net, addr = one_host(base_rtt=2 * SEC)
        assert not net.icmp_ping(addr, SEC).replied
        assert net.tcp_syn(addr, 22, SEC).state is PortState.FILTERED

    def test_latency_factor_scales_rtt(self):
        net, addr = one_host(base_rtt=1000)
        spec = SimHostSpec(address=A("10.0.0.2"), base_rtt=1000)
        net2 = SimNetwork([spec], ((0, spec.address, replace(spec, latency_factor=2.5)),))
        assert net2.icmp_ping(spec.address, SEC).rtt == 2500
        assert net.icmp_ping(addr, SEC).rtt == 1000

    def test_jitter_bounded_and_deterministic(self):
        spec = SimHostSpec(address=A("10.0.0.1"), base_rtt=1000, rtt_jitter=200)
        rtts_a = []
        net = SimNetwork([spec], seed=5)
        for _ in range(20):
            rtts_a.append(net.icmp_ping(spec.address, SEC).rtt)
        assert all(1000 <= r <= 1200 for r in rtts_a)
        net_b = SimNetwork([spec], seed=5)
        rtts_b = [net_b.icmp_ping(spec.address, SEC).rtt for _ in range(20)]
        assert rtts_a == rtts_b

    @pytest.mark.parametrize("syn_scan", [False, True], ids=["connect", "syn"])
    def test_tcp_jitter_draws_once_per_syn_that_reaches_a_host(self, syn_scan):
        spec = SimHostSpec(address=A("10.0.0.1"), base_rtt=1000, rtt_jitter=300,
                           open_ports={22: b"SSH-2.0\r\n", 80: None},
                           filtered_ports=frozenset({23}))
        host, dark = spec.address, A("10.0.0.9")
        net, mirror = SimNetwork([spec], seed=5), Prng(5)
        expected_clock, rtts = 0, []
        for target, port in ((host, 22), (host, 23), (dark, 22), (host, 25),
                             (host, 80), (dark, 25), (host, 23), (host, 25)):
            probe = (net.tcp_syn(target, port, SEC) if syn_scan
                     else net.tcp_connect(target, port, SEC))
            if target == dark or port == 23:  # no draw: nobody answers
                assert probe.state is PortState.FILTERED and probe.rtt is None
                expected_clock += SEC
            else:
                rtt = 1000 + mirror.below(301)
                assert probe.rtt == rtt
                rtts.append(rtt)
                # a connect scan reads the banner one more round trip later
                expected_clock += 2 * rtt if port == 22 and not syn_scan else rtt
            assert net.clock.now() == expected_clock
        # four timeouts and four round trips; a connect scan waits port
        # 22's round trip once more for its banner
        assert len(rtts) == 4
        assert net.clock.now() == 4 * SEC + sum(rtts) + (0 if syn_scan else rtts[0])
        assert net._prng.next_u64() == mirror.next_u64()

    def test_every_primitive_keeps_one_reply_rule_and_one_jitter_stream(self):
        echo = SimHostSpec(address=A("10.0.0.1"), base_rtt=700, rtt_jitter=200,
                           open_ports={22: b"SSH-2.0\r\n", 80: None},
                           filtered_ports=frozenset({23}))
        no_echo = SimHostSpec(address=A("10.0.0.2"), icmp_echo_enabled=False,
                              base_rtt=400, rtt_jitter=50)
        no_arp = SimHostSpec(address=A("10.0.0.3"), arp_enabled=False,
                             base_rtt=300, rtt_jitter=100, open_ports={22: None})
        dark = A("10.0.0.9")
        specs = {spec.address: spec for spec in (echo, no_echo, no_arp)}
        net, mirror = SimNetwork(specs.values(), seed=11), Prng(11)
        # (primitive, target, port, round trips the probe takes; 0 for silence)
        steps = [
            ("arp_probe", echo.address, None, 1),
            ("icmp_ping", echo.address, None, 1),
            ("icmp_ping", no_echo.address, None, 0),
            ("arp_probe", no_echo.address, None, 1),
            ("tcp_syn", echo.address, 23, 0),      # filtered
            ("tcp_syn", echo.address, 25, 1),      # closed: SYN / RST
            ("tcp_syn", echo.address, 22, 1),      # open: SYN / SYN+ACK / RST
            ("tcp_connect", echo.address, 22, 2),  # handshake, then the banner
            ("tcp_connect", echo.address, 80, 1),  # handshake, no banner
            ("tcp_syn", no_echo.address, 22, 1),   # echo off does not stop TCP
            ("arp_probe", no_arp.address, None, 0),
            ("icmp_ping", no_arp.address, None, 0),
            ("tcp_connect", no_arp.address, 22, 0),
            ("arp_probe", dark, None, 0),
            ("icmp_ping", dark, None, 0),
            ("tcp_syn", dark, 22, 0),
        ]
        rtts, expected_clock = [], 0
        for primitive, target, port, round_trips in steps:
            args = (target, SEC) if port is None else (target, port, SEC)
            got = getattr(net, primitive)(*args)
            if round_trips:  # only a host that answers draws
                spec = specs[target]
                rtt = spec.base_rtt + mirror.below(spec.rtt_jitter + 1)
                assert got.rtt == rtt, (primitive, target, port)
                rtts.append(rtt)
                expected_clock += round_trips * rtt
            else:
                assert got.rtt is None, (primitive, target, port)
                expected_clock += SEC
            assert net.clock.now() == expected_clock, (primitive, target, port)
        # eight silent probes wait out their timeouts; the connect to port 22
        # waits its round trip a second time for the banner
        assert len(rtts) == 8
        assert net.clock.now() == 8 * SEC + sum(rtts) + rtts[5]
        assert net._prng.next_u64() == mirror.next_u64()
        counts = net.counters.counts
        assert (counts["arp_request"], counts["arp_reply"]) == (4, 2)
        assert (counts["icmp_request"], counts["icmp_reply"]) == (4, 1)
        assert (counts["tcp_syn"], counts["tcp_synack"]) == (8, 3)

    @pytest.mark.parametrize("primitive", ["tcp_syn", "tcp_connect", "arp_probe", "icmp_ping"])
    @pytest.mark.parametrize("target, port", [("10.0.0.1", 22), ("10.0.0.1", 23),
                                              ("10.0.0.1", 25), ("10.0.0.9", 22)],
                             ids=["open", "filtered", "closed", "dark"])
    def test_a_negative_timeout_never_moves_the_clock_back(self, primitive, target, port):
        net = SimNetwork([SimHostSpec(address=A("10.0.0.1"), open_ports={22: b"SSH"},
                                      filtered_ports=frozenset({23}))])
        net.clock.advance_to(5 * SEC)
        args = (A(target), port, -1) if primitive.startswith("tcp") else (A(target), -1)
        with pytest.raises(ValueError):
            getattr(net, primitive)(*args)
        assert net.clock.now() == 5 * SEC
        # nor counts a packet it never sent
        assert net.counters.total_packets() == 0 and list(net.counters.seconds()) == []


# A port is closed unless a host's spec names it: open with a banner, an
# empty banner or none, or filtered.
PORTS = range(1, 7)
port_roles = st.sampled_from(["open-banner", "open-banner", "open-empty", "open-none",
                              "filtered", "closed"])
host_specs = st.builds(
    lambda last, arp, echo, roles, banner, base_rtt, jitter, factor: SimHostSpec(
        address=A(f"10.0.0.{last}"), arp_enabled=arp, icmp_echo_enabled=echo,
        open_ports={port: {"open-banner": banner, "open-empty": b"", "open-none": None}[role]
                    for port, role in zip(PORTS, roles) if role.startswith("open")},
        filtered_ports=frozenset(port for port, role in zip(PORTS, roles) if role == "filtered"),
        base_rtt=base_rtt, rtt_jitter=jitter, latency_factor=factor),
    st.integers(1, 3), st.sampled_from([True, True, True, False]), st.booleans(),
    st.lists(port_roles, min_size=len(PORTS), max_size=len(PORTS)),
    st.binary(min_size=1, max_size=40), st.integers(1, 3000),
    st.sampled_from([0, 0, 1, 250]), st.sampled_from([1.0, 1.0, 0.5, 2.5, 0.0001]))
# (last address byte, port, timeout, (round trips, nudge), banner_grab,
# banner_max); 10.0.0.9 is dark.  Each probe is sent that many of the
# target's unjittered round trips plus the nudge before a second boundary,
# so that a packet lands just before, on or just after it.
probe_steps = st.tuples(st.sampled_from([1, 1, 2, 3, 9]), st.sampled_from(PORTS),
                        st.integers(1, 8000),
                        st.tuples(st.sampled_from([0, 1, 2]),
                                  st.one_of(st.sampled_from([-1, 0, 1]), st.integers(0, 8000))),
                        st.booleans(), st.sampled_from([0, 1, 4, 128]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(host_specs, min_size=1, max_size=3, unique_by=lambda spec: spec.address),
       st.lists(probe_steps, min_size=1, max_size=8), st.integers(0, 2**32))
def test_every_probe_matches_the_reference_packet_by_packet(specs, steps, seed):
    """Each step sends all four primitives to one target, each probe just
    before a second boundary, so its packets may fall in two seconds."""
    net, mirror = SimNetwork(specs, seed=seed), Prng(seed)
    hosts = {spec.address: spec for spec in specs}
    packets, clock = [], 0
    for last, port, timeout, (round_trips, nudge), grab, most in steps:
        target = A(f"10.0.0.{last}")
        spec = hosts.get(target)
        rtt = max(int(spec.base_rtt * spec.latency_factor), 1) if spec else 0
        early = max(round_trips * rtt + nudge, 0)
        for request, probed, connect, send in (
                ("arp_request", None, False, lambda: net.arp_probe(target, timeout)),
                ("icmp_request", None, False, lambda: net.icmp_ping(target, timeout)),
                ("tcp_syn", port, False, lambda: net.tcp_syn(target, port, timeout)),
                ("tcp_syn", port, True,
                 lambda: net.tcp_connect(target, port, timeout, grab, most))):
            sent = (clock // SEC + 1) * SEC - early
            clock = sent if sent >= clock else sent + SEC
            net.clock.advance_to(clock)
            got = send()
            sent_packets, expected, clock = reference_probe(
                spec, request, probed, clock, timeout, mirror.below,
                connect, grab, most)
            packets += sent_packets
            step = (request, connect, target, port, timeout, grab, most)
            result = tuple(got) if probed is None else (got.state.value, *got[1:])
            assert result == expected, step
            assert net.clock.now() == clock, step
            seconds = sorted({when // SEC for _, when, _ in packets})
            c = net.counters
            assert list(c.seconds()) == seconds, step
            assert {cls: list(column) for cls, column in c.per_second.items()} == {
                cls: [sum(1 for kind, when, _ in packets if kind == cls and when // SEC == sec)
                      for sec in seconds] for cls in PACKET_CLASSES}, step
            assert list(c.per_second_bytes["banner_data"]) == [
                sum(size + 66 for kind, when, size in packets
                    if kind == "banner_data" and when // SEC == sec) for sec in seconds], step
    assert net._prng.next_u64() == mirror.next_u64()


class TestScript:
    def addr(self, i):
        return A(f"10.0.0.{i}")

    def test_actions_fire_at_boundary_inclusive(self):
        spec = SimHostSpec(address=self.addr(1))
        for sent, replied in ((10 * SEC - 1, True), (10 * SEC, False)):
            net = SimNetwork([spec], ((10 * SEC, spec.address, None),))
            net.clock.advance_to(sent)
            assert net.arp_probe(spec.address, 1000).replied is replied

    def test_probe_driven_advance_also_applies_actions(self):
        spec = SimHostSpec(address=self.addr(1))
        net = SimNetwork([spec], ((500, spec.address, replace(spec, icmp_echo_enabled=False)),))
        # the first ping's own timeout crosses the action time
        assert net.icmp_ping(spec.address, SEC).replied  # resolves at t=500... rtt below
        assert not net.icmp_ping(spec.address, SEC).replied

    def test_open_close_and_add(self):
        spec = SimHostSpec(address=self.addr(1))
        new = SimHostSpec(address=self.addr(2), open_ports={80: b"http"})
        net = SimNetwork([spec], (
            (SEC, spec.address, replace(spec, open_ports={23: b"telnet"})),
            (2 * SEC, spec.address, spec),
            (3 * SEC, new.address, new),
            (4 * SEC, new.address, replace(new, arp_enabled=False)),
        ))
        assert net.tcp_syn(spec.address, 23, 1000).state is PortState.CLOSED
        net.clock.advance_to(SEC)
        assert net.tcp_connect(spec.address, 23, 1000).banner == b"telnet"
        net.clock.advance_to(2 * SEC)
        assert net.tcp_syn(spec.address, 23, 1000).state is PortState.CLOSED
        net.clock.advance_to(3 * SEC)
        assert net.tcp_syn(new.address, 80, 1000).state is PortState.OPEN
        net.clock.advance_to(4 * SEC)
        assert not net.arp_probe(new.address, 1000).replied

    def test_removal_between_two_probes_of_one_scan(self):
        # closed ports answer in 500us, then the scan paces 100ms per port
        spec = SimHostSpec(address=self.addr(1), base_rtt=500)
        step = 500 + 100_000
        removed_at = 4 * step - 50_000  # in the pause after the 4th probe
        net = SimNetwork([spec], ((removed_at, spec.address, None),))
        order = (5, 1, 7, 3, 2, 8, 4, 6)
        ports, _ = scan_host_ports(spec.address, small_config(port_range=(1, 8)),
                                   net, order)
        assert [ports[p] for p in order] == [PortState.CLOSED] * 4 + [PortState.FILTERED] * 4

    # A jittered host answers in 500-700us and the scan paces 100ms per
    # port, so the 4th probe is settled by 302.8ms and the 5th is sent at
    # 402ms or later: an action at 350ms lands between them.
    ORDER = (5, 1, 7, 3, 2, 8, 4, 6)
    MID_SCAN = 350_000

    def scan_across(self, spec, after, syn_scan):
        """Scan ports 1-8 of `spec`, which turns into `after` between the
        4th and 5th probe; the states in probe order, and the network."""
        net = SimNetwork([spec], ((self.MID_SCAN, spec.address, after),), seed=3)
        ports, _ = scan_host_ports(spec.address,
                                   small_config(port_range=(1, 8), syn_scan=syn_scan),
                                   net, self.ORDER)
        return [ports[p] for p in self.ORDER], net

    @pytest.mark.parametrize("base_rtt, jitter, factor", [(500, 200, 3.0), (1, 50, 0.5)],
                             ids=["slower", "under-a-microsecond"])
    def test_latency_change_between_two_probes_of_one_scan(self, base_rtt, jitter, factor):
        spec = SimHostSpec(address=self.addr(1), base_rtt=base_rtt, rtt_jitter=jitter)
        states, net = self.scan_across(spec, replace(spec, latency_factor=factor),
                                       syn_scan=True)
        assert states == [PortState.CLOSED] * 8
        mirror = Prng(3)
        # the floor of 1us applies after the jitter is added
        rtts = [base_rtt + mirror.below(jitter + 1) for _ in range(4)]
        rtts += [max(int(base_rtt * factor) + mirror.below(jitter + 1), 1) for _ in range(4)]
        assert net.clock.now() == 8 * 100_000 + sum(rtts)
        assert net._prng.next_u64() == mirror.next_u64()
        counts = net.counters.counts
        assert (counts["tcp_syn"], counts["tcp_rst"], net.counters.total_packets()) == (8, 8, 16)

    def test_ports_close_and_open_between_two_probes_of_one_scan(self):
        # port 7 is probed before the action and stays open; port 2 closes
        # and port 6 opens, both probed after it
        spec = SimHostSpec(address=self.addr(1), base_rtt=500, rtt_jitter=200,
                           open_ports={7: b"SSH-2.0\r\n", 2: None})
        states, net = self.scan_across(
            spec, replace(spec, open_ports={7: b"SSH-2.0\r\n", 6: None}), syn_scan=False)
        closed, opened = PortState.CLOSED, PortState.OPEN
        assert states == [closed, closed, opened, closed, closed, closed, closed, opened]
        mirror = Prng(3)
        rtts = [500 + mirror.below(201) for _ in range(8)]
        # port 7's banner takes its round trip a second time
        assert net.clock.now() == 8 * 100_000 + sum(rtts) + rtts[2]
        assert net._prng.next_u64() == mirror.next_u64()
        counts = net.counters.counts
        assert (counts["tcp_syn"], counts["tcp_synack"], counts["tcp_ack"],
                counts["banner_data"], counts["tcp_rst"]) == (8, 2, 2, 1, 8)
        assert net.counters.bytes["banner_data"] == len(b"SSH-2.0\r\n") + 66

    def test_arp_off_between_two_probes_of_one_scan(self):
        spec = SimHostSpec(address=self.addr(1), base_rtt=500, rtt_jitter=200)
        states, net = self.scan_across(spec, replace(spec, arp_enabled=False), syn_scan=True)
        assert states == [PortState.CLOSED] * 4 + [PortState.FILTERED] * 4
        mirror = Prng(3)
        # only the four answered probes draw; the dark ones wait out 1s each
        rtts = [500 + mirror.below(201) for _ in range(4)]
        assert net.clock.now() == 8 * 100_000 + sum(rtts) + 4 * SEC
        assert net._prng.next_u64() == mirror.next_u64()
        counts = net.counters.counts
        assert (counts["tcp_syn"], counts["tcp_rst"], net.counters.total_packets()) == (8, 4, 12)


class TestSpecValidation:
    def test_port_cannot_be_open_and_filtered(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), open_ports={22: None},
                        filtered_ports=frozenset({22}))

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), base_rtt=0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="^rtt_jitter cannot be negative$"):
            SimHostSpec(address=A("10.0.0.1"), rtt_jitter=-1)
