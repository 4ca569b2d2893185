import ipaddress

import pytest

from edgemap import probe
from edgemap.model import Alive, PortState, config_digest
from edgemap.scheduler import make_schedule
from edgemap.rng import Prng
from edgemap.simnet import SimHostSpec, SimNetwork
from conftest import small_config

A = ipaddress.IPv4Address
SEC = 1_000_000


def net_with(*specs):
    return SimNetwork(list(specs))


def spec(i, **kw):
    return SimHostSpec(address=A(f"10.0.0.{i}"), **kw)


def probes_sent(net, *classes):
    return sum(net.counters.counts[cls] for cls in classes)


class TestDiscoverHost:
    def test_up_host_gets_three_rtt_samples(self):
        net = net_with(spec(1, base_rtt=400))
        alive, samples = probe.discover_host(A("10.0.0.1"), small_config(), net)
        assert alive is Alive.UP
        assert samples == (400, 400, 400)
        assert probes_sent(net, "arp_request") == 1
        assert probes_sent(net, "icmp_request") == 3

    def test_silent_host(self):
        net = net_with(spec(1, icmp_echo_enabled=False))
        alive, samples = probe.discover_host(A("10.0.0.1"), small_config(), net)
        assert alive is Alive.SILENT_UP and samples == ()
        assert probes_sent(net, "arp_request", "icmp_request") == 2

    def test_absent_host_is_down_after_one_arp(self):
        net = net_with()
        alive, samples = probe.discover_host(A("10.0.0.9"), small_config(), net)
        assert alive is Alive.DOWN
        assert probes_sent(net, "arp_request", "icmp_request") == 1

    def test_stealth_host_is_down(self):
        net = net_with(spec(1, arp_enabled=False, icmp_echo_enabled=False,
                            open_ports={22: None}))
        alive, _ = probe.discover_host(A("10.0.0.1"), small_config(), net)
        assert alive is Alive.DOWN

    def test_fixed_window_pacing(self):
        """Each discovery probe owns window + delay regardless of reply speed."""
        net = net_with(spec(1, base_rtt=200))
        cfg = small_config()  # 1s window, 100ms delay
        probe.discover_host(A("10.0.0.1"), cfg, net)
        # 4 probes, each 1.1s: the fast 200us replies must not compress this
        assert net.clock.now() == 4 * (cfg.ping_timeout + cfg.ping_delay)

    def test_discovery_rate_ceiling(self):
        net = net_with(*[spec(i, base_rtt=300) for i in range(1, 7)])
        cfg = small_config()
        for i in range(1, 7):
            probe.discover_host(A(f"10.0.0.{i}"), cfg, net)
        counters = net.counters
        for sec in counters.seconds():
            assert counters.second_count(
                sec, ("arp_request", "icmp_request")) <= 2
            assert counters.second_count(
                sec, ("arp_request", "arp_reply", "icmp_request", "icmp_reply")) <= 4


class TestScanHostPorts:
    def test_states_and_banners(self):
        net = net_with(spec(1, open_ports={5: b"hello", 7: None},
                            filtered_ports=frozenset({9})))
        cfg = small_config()
        ports, banners = probe.scan_host_ports(
            A("10.0.0.1"), cfg, net, order=range(1, 17))
        assert probes_sent(net, "tcp_syn") == 16
        assert ports[5] is PortState.OPEN and ports[7] is PortState.OPEN
        assert ports[9] is PortState.FILTERED
        assert sum(1 for s in ports.values() if s is PortState.CLOSED) == 13
        assert banners == {5: b"hello"}

    def test_order_is_respected(self):
        # the SYNs go out in the given order; the table lists ports ascending
        net = net_with(spec(1))
        asked = []
        real_connect = net.tcp_connect

        def connect(target, port, *rest):
            asked.append(port)
            return real_connect(target, port, *rest)

        net.tcp_connect = connect
        order = [3, 1, 2]
        ports, _ = probe.scan_host_ports(A("10.0.0.1"), small_config(), net, order)
        assert asked == order
        assert list(ports) == [1, 2, 3]

    def test_port_rate_ceiling(self):
        net = net_with(spec(1, base_rtt=500, open_ports={2: None, 4: None}))
        cfg = small_config(port_range=(1, 64))
        counters = net.counters
        probe.scan_host_ports(A("10.0.0.1"), cfg, net, order=range(1, 65))
        from edgemap.transport import TCP_CLASSES
        for sec in counters.seconds():
            assert counters.second_count(sec, ("tcp_syn",)) <= 10
            assert counters.second_count(sec, TCP_CLASSES) <= 25


class TestFullSweep:
    def make(self, cfg=None, *specs):
        cfg = cfg or small_config()
        net = net_with(*specs)
        schedule = make_schedule(cfg, Prng(cfg.seed))
        return cfg, net, schedule

    def test_sweep_collects_up_and_silent_hosts(self):
        cfg, net, schedule = self.make(
            None,
            spec(1, open_ports={5: b"hi"}),
            spec(2, icmp_echo_enabled=False, open_ports={7: None}),
        )
        fp = probe.full_sweep(cfg, net, schedule)
        assert set(fp.hosts) == {A("10.0.0.1"), A("10.0.0.2")}
        assert fp.hosts[A("10.0.0.1")].alive is Alive.UP
        assert fp.hosts[A("10.0.0.1")].ports[5] is PortState.OPEN
        assert fp.hosts[A("10.0.0.1")].banners[5] == b"hi"
        # silent hosts are recorded but not port-scanned by default
        assert fp.hosts[A("10.0.0.2")].alive is Alive.SILENT_UP
        assert fp.hosts[A("10.0.0.2")].ports == {}
        assert fp.config_digest == config_digest(cfg)
        assert not fp.trusted

    def test_scan_silent_hosts_flag(self):
        cfg, net, schedule = self.make(
            small_config(scan_silent_hosts=True),
            spec(2, icmp_echo_enabled=False, open_ports={7: None}))
        fp = probe.full_sweep(cfg, net, schedule)
        assert fp.hosts[A("10.0.0.2")].ports[7] is PortState.OPEN

    def test_down_hosts_absent_from_fingerprint(self):
        cfg, net, schedule = self.make(None, spec(3))
        fp = probe.full_sweep(cfg, net, schedule)
        assert set(fp.hosts) == {A("10.0.0.3")}

    def test_stop_aborts(self):
        cfg, net, schedule = self.make(None, spec(1))
        calls = []

        def stop():
            calls.append(1)
            return len(calls) > 3

        with pytest.raises(probe.SweepAborted):
            probe.full_sweep(cfg, net, schedule, stop=stop)
