import ipaddress

import pytest

from conftest import small_config
from edgemap.errors import MalformedScript
from edgemap.model import PortState
from edgemap.probe import scan_host_ports
from edgemap.simnet import (AddHost, ClosePort, OpenPort, RemoveHost, SetArp,
                            SetIcmpEcho, SetLatencyFactor, SimHostSpec,
                            SimNetwork, SimScript)

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
        net, addr = one_host(open_ports={5: None}, base_rtt=400)
        for port in range(1, 9):
            net.tcp_connect(addr, port, SEC)
            net.clock.sleep(300_000)
        c = net.counters
        for cls in c.counts:
            assert sum(c.per_second[cls].values()) == c.counts[cls]
            assert sum(c.per_second_bytes[cls].values()) == c.bytes[cls]


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
        net2 = SimNetwork(
            [spec],
            SimScript((SetLatencyFactor(0, spec.address, 2.5),)))
        net2.simnet_advance(1)
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


class TestScript:
    def addr(self, i):
        return A(f"10.0.0.{i}")

    def test_actions_fire_at_boundary_inclusive(self):
        spec = SimHostSpec(address=self.addr(1))
        net = SimNetwork([spec], SimScript((RemoveHost(10 * SEC, spec.address),)))
        assert net.simnet_advance(10 * SEC - 1000) == 0
        assert net.arp_probe(spec.address, 999).replied  # resolves before 10s
        assert net.simnet_advance(10 * SEC - 1) == 0
        assert net.simnet_advance(10 * SEC) == 1
        assert not net.arp_probe(spec.address, 1000).replied

    def test_probe_driven_advance_also_applies_actions(self):
        spec = SimHostSpec(address=self.addr(1))
        net = SimNetwork([spec], SimScript((SetIcmpEcho(500, spec.address, False),)))
        # the first ping's own timeout crosses the action time
        assert net.icmp_ping(spec.address, SEC).replied  # resolves at t=500... rtt below
        assert not net.icmp_ping(spec.address, SEC).replied

    def test_open_close_and_add(self):
        spec = SimHostSpec(address=self.addr(1))
        new = SimHostSpec(address=self.addr(2), open_ports={80: b"http"})
        net = SimNetwork([spec], SimScript((
            OpenPort(SEC, spec.address, 23, b"telnet"),
            ClosePort(2 * SEC, spec.address, 23),
            AddHost(3 * SEC, new),
            SetArp(4 * SEC, new.address, False),
        )))
        assert net.tcp_syn(spec.address, 23, 1000).state is PortState.CLOSED
        net.simnet_advance(SEC)
        assert net.tcp_connect(spec.address, 23, 1000).banner == b"telnet"
        net.simnet_advance(2 * SEC)
        assert net.tcp_syn(spec.address, 23, 1000).state is PortState.CLOSED
        net.simnet_advance(3 * SEC)
        assert net.tcp_syn(new.address, 80, 1000).state is PortState.OPEN
        net.simnet_advance(4 * SEC)
        assert not net.arp_probe(new.address, 1000).replied

    def test_removal_between_two_probes_of_one_scan(self):
        # closed ports answer in 500us, then the scan paces 100ms per port
        spec = SimHostSpec(address=self.addr(1), base_rtt=500)
        step = 500 + 100_000
        removed_at = 4 * step - 50_000  # in the pause after the 4th probe
        net = SimNetwork([spec], SimScript((RemoveHost(removed_at, spec.address),)))
        order = (5, 1, 7, 3, 2, 8, 4, 6)
        ports, _ = scan_host_ports(spec.address, small_config(port_range=(1, 8)),
                                   net, order)
        assert [ports[p] for p in order] == [PortState.CLOSED] * 4 + [PortState.FILTERED] * 4

    def test_script_times_must_be_non_decreasing(self):
        with pytest.raises(MalformedScript):
            SimScript((RemoveHost(2 * SEC, self.addr(1)),
                       RemoveHost(SEC, self.addr(1))))

    def test_unknown_address_in_action_fails(self):
        net = SimNetwork([], SimScript((RemoveHost(SEC, self.addr(9)),)))
        with pytest.raises(MalformedScript):
            net.simnet_advance(SEC)

    def test_duplicate_initial_host_rejected(self):
        spec = SimHostSpec(address=self.addr(1))
        with pytest.raises(MalformedScript):
            SimNetwork([spec, spec])


class TestSpecValidation:
    def test_port_cannot_be_open_and_filtered(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), open_ports={22: None},
                        filtered_ports=frozenset({22}))

    def test_bad_mac_rejected(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), mac=b"\x02\x00")

    def test_nonpositive_rtt_rejected(self):
        with pytest.raises(ValueError):
            SimHostSpec(address=A("10.0.0.1"), base_rtt=0)


class TestTcpExchange:
    """tcp_exchange shares the SYN handshake of the other TCP primitives."""

    def test_reply_is_the_banner_of_the_port_asked_for(self):
        net, addr = one_host(open_ports={21: b"220 ftp ready\r\n", 22: b"SSH-2.0\r\n"})
        assert net.tcp_exchange(addr, 22, b"hello?", SEC) == b"SSH-2.0\r\n"

    def test_reply_slower_than_the_timeout_is_lost(self):
        net, addr = one_host(open_ports={22: b"SSH-2.0\r\n"}, base_rtt=5_000)
        assert delta(net, lambda: net.tcp_exchange(addr, 22, b"hello?", 1_000)) == {
            "tcp_syn": 1}
        assert net.clock.now() == 1_000

    def test_closed_port_resets_after_one_rtt(self):
        net, addr = one_host(base_rtt=300)
        reply = []
        assert delta(net, lambda: reply.append(
            net.tcp_exchange(addr, 22, b"hello?", SEC))) == {"tcp_syn": 1, "tcp_rst": 1}
        assert reply == [None]
        assert net.clock.now() == 300
