"""One behavioral contract, two backends.

The simulated network and the OS socket backend must agree on probe
semantics: port states, banner capture, RTT reporting, counter usage,
and capability signalling.  The OS half runs against loopback listeners
only and skips gracefully where the sandbox lacks ICMP sockets.
"""

import ipaddress
import socket
import threading

import pytest

from edgemap.errors import CapabilityUnsupported, TransportDown
from edgemap.model import PortState
from edgemap.osnet import OsNetwork
from edgemap.simnet import SimHostSpec, SimNetwork

SEC = 1_000_000
BANNER = b"BANNER-7 test service\r\n"


class LoopbackServer:
    """Minimal TCP listener that pushes a banner to every client."""

    def __init__(self, banner):
        self.banner = banner
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.sock.settimeout(0.05)  # lets the accept loop notice shutdown
        self.port = self.sock.getsockname()[1]
        self._stopping = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self._stopping:
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                try:
                    if self.banner:
                        conn.sendall(self.banner)
                except OSError:
                    pass

    def close(self):
        self._stopping = True
        self.sock.close()
        self.thread.join(timeout=2)


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Harness:
    def __init__(self, transport, addr, banner_port, plain_port, closed_port,
                 dead_addr=None, cleanup=()):
        self.transport = transport
        self.addr = addr
        self.banner_port = banner_port
        self.plain_port = plain_port
        self.closed_port = closed_port
        self.dead_addr = dead_addr
        self._cleanup = cleanup

    def close(self):
        for fn in self._cleanup:
            fn()


@pytest.fixture(params=["sim", "os"])
def harness(request):
    if request.param == "sim":
        addr = ipaddress.IPv4Address("10.0.0.1")
        spec = SimHostSpec(address=addr, base_rtt=300,
                           open_ports={22: BANNER, 80: None})
        h = Harness(SimNetwork([spec]), addr, banner_port=22, plain_port=80,
                    closed_port=81, dead_addr=ipaddress.IPv4Address("10.0.0.99"))
    else:
        banner_srv = LoopbackServer(BANNER)
        plain_srv = LoopbackServer(b"")
        h = Harness(OsNetwork(), ipaddress.IPv4Address("127.0.0.1"),
                    banner_port=banner_srv.port, plain_port=plain_srv.port,
                    closed_port=free_port(),
                    cleanup=(banner_srv.close, plain_srv.close))
    yield h
    h.close()


class TestContract:
    def test_open_port_with_banner(self, harness):
        probe = harness.transport.tcp_connect(
            harness.addr, harness.banner_port, 2 * SEC)
        assert probe.state is PortState.OPEN
        assert probe.banner == BANNER
        assert probe.rtt is not None and probe.rtt >= 0

    def test_open_port_without_banner(self, harness):
        probe = harness.transport.tcp_connect(
            harness.addr, harness.plain_port, 2 * SEC)
        assert probe.state is PortState.OPEN
        assert probe.banner is None

    def test_banner_respects_max(self, harness):
        probe = harness.transport.tcp_connect(
            harness.addr, harness.banner_port, 2 * SEC, banner_max=5)
        assert probe.state is PortState.OPEN
        assert probe.banner == BANNER[:5]

    def test_banner_grab_disabled(self, harness):
        probe = harness.transport.tcp_connect(
            harness.addr, harness.banner_port, 2 * SEC, banner_grab=False)
        assert probe.state is PortState.OPEN
        assert probe.banner is None

    def test_closed_port(self, harness):
        probe = harness.transport.tcp_connect(
            harness.addr, harness.closed_port, 2 * SEC)
        assert probe.state is PortState.CLOSED
        assert probe.banner is None

    def test_counters_track_probe_sequence(self, harness):
        transport = harness.transport
        transport.tcp_connect(harness.addr, harness.banner_port, 2 * SEC)
        transport.tcp_connect(harness.addr, harness.closed_port, 2 * SEC)
        c = transport.counters
        assert c.counts["tcp_syn"] == 2
        assert c.counts["tcp_synack"] == 1
        assert c.counts["tcp_ack"] == 1
        assert c.counts["tcp_rst"] == 2  # open teardown + refusal
        assert c.counts["banner_data"] == 1
        assert c.bytes["banner_data"] == len(BANNER) + 66

    def test_syn_capability_is_honest(self, harness):
        transport = harness.transport
        if transport.supports_raw_syn:
            probe = transport.tcp_syn(harness.addr, harness.banner_port, 2 * SEC)
            assert probe.state is PortState.OPEN
        else:
            with pytest.raises(CapabilityUnsupported):
                transport.tcp_syn(harness.addr, harness.banner_port, 2 * SEC)

    def test_arp_capability_is_honest(self, harness):
        transport = harness.transport
        if transport.supports_arp:
            assert transport.arp_probe(harness.addr, SEC).replied
        else:
            with pytest.raises(CapabilityUnsupported):
                transport.arp_probe(harness.addr, SEC)

    def test_icmp_ping_local_address(self, harness):
        try:
            reply = harness.transport.icmp_ping(harness.addr, 2 * SEC)
        except TransportDown:
            pytest.skip("no ICMP socket available in this environment")
        assert reply.replied
        assert reply.rtt is not None and reply.rtt >= 0
        c = harness.transport.counters
        assert c.counts["icmp_request"] >= 1
        assert c.counts["icmp_reply"] >= 1

    def test_clock_is_monotonic_across_probes(self, harness):
        clock = harness.transport.clock
        t0 = clock.now()
        harness.transport.tcp_connect(harness.addr, harness.closed_port, 2 * SEC)
        t1 = clock.now()
        harness.transport.tcp_connect(harness.addr, harness.banner_port, 2 * SEC)
        t2 = clock.now()
        assert t0 <= t1 <= t2

    def test_tcp_exchange_round_trip(self, harness):
        reply = harness.transport.tcp_exchange(
            harness.addr, harness.banner_port, b"hello?", 2 * SEC)
        assert reply is not None and reply.startswith(BANNER[:5])

    def test_tcp_exchange_closed_port_is_none(self, harness):
        reply = harness.transport.tcp_exchange(
            harness.addr, harness.closed_port, b"hello?", 2 * SEC)
        assert reply is None
