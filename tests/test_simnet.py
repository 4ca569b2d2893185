import ipaddress
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_config
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

    # (class, gap after the previous packet, banner payload length); a
    # payload above 32,767 bytes overflows a 2-byte cell in two packets
    streams = st.lists(st.tuples(st.sampled_from(PACKET_CLASSES),
                                 st.integers(0, 3 * SEC), st.integers(0, 40_000)),
                       max_size=60)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(streams)
    def test_rows_agree_with_a_plain_dict_oracle(self, stream):
        c = PacketCounters()
        counts = dict.fromkeys(PACKET_CLASSES, 0)
        sizes = dict.fromkeys(PACKET_CLASSES, 0)
        by_second = {}  # second -> {class: [packets, bytes]}
        when = 0
        for cls, gap, payload in stream:
            when += gap
            c.record(cls, when, payload)
            size = payload + 66 if cls == "banner_data" else FIXED_SIZE[cls]
            counts[cls] += 1
            sizes[cls] += size
            cell = by_second.setdefault(when // SEC, {}).setdefault(cls, [0, 0])
            cell[0] += 1
            cell[1] += size
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


class TestSpecValidation:
    def test_port_cannot_be_open_and_filtered(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), open_ports={22: None},
                        filtered_ports=frozenset({22}))

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), base_rtt=0)
