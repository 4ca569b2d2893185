"""One behavioral contract, two backends.

The simulated network and the OS socket backend must agree on probe
semantics: port states, banner capture, RTT reporting, counter usage,
and capability signalling.  The OS half runs against loopback listeners
only and skips gracefully where the sandbox lacks ICMP sockets.
"""

import errno
import ipaddress
import os
import socket
import struct
import threading
import time

import pytest

from edgemap.errors import CapabilityUnsupported, TransportDown
from edgemap.model import PortState
from edgemap.osnet import OsNetwork
from edgemap.simnet import SimHostSpec, SimNetwork
from edgemap.timebase import VirtualClock

SEC = 1_000_000
MS = 1_000
BANNER = b"BANNER-7 test service\r\n"
# one banner in two TCP segments, 50 ms apart
SPLIT_BANNER = (b"SSH-2.0-", b"OpenSSH_9.6\r\n")


class LoopbackServer:
    """Minimal TCP listener that pushes a banner to every client, in
    `parts` sent 50 ms apart, and then closes the connection."""

    def __init__(self, *parts):
        self.parts = parts
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
                    for index, part in enumerate(self.parts):
                        if index:
                            time.sleep(0.05)
                        if part:
                            conn.sendall(part)
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
                 split_banner_port, dead_addr=None, cleanup=()):
        self.transport = transport
        self.addr = addr
        self.banner_port = banner_port
        self.split_banner_port = split_banner_port
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
                           open_ports={22: BANNER, 80: None, 2222: b"".join(SPLIT_BANNER)})
        h = Harness(SimNetwork([spec]), addr, banner_port=22, plain_port=80,
                    closed_port=81, split_banner_port=2222,
                    dead_addr=ipaddress.IPv4Address("10.0.0.99"))
    else:
        banner_srv = LoopbackServer(BANNER)
        plain_srv = LoopbackServer(b"")
        split_srv = LoopbackServer(*SPLIT_BANNER)
        h = Harness(OsNetwork(), ipaddress.IPv4Address("127.0.0.1"),
                    banner_port=banner_srv.port, plain_port=plain_srv.port,
                    closed_port=free_port(), split_banner_port=split_srv.port,
                    cleanup=(banner_srv.close, plain_srv.close, split_srv.close))
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

    def test_a_banner_in_two_segments_is_read_whole(self, harness):
        transport = harness.transport
        probe = transport.tcp_connect(harness.addr, harness.split_banner_port, SEC)
        assert probe.state is PortState.OPEN
        assert probe.banner == b"".join(SPLIT_BANNER)
        # one banner_data entry for the whole banner, as one sweep counts it
        assert transport.counters.counts["banner_data"] == 1
        assert transport.counters.bytes["banner_data"] == len(probe.banner) + 66

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
        if isinstance(transport, SimNetwork):  # the OS backend runs unprivileged
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


class FailingSocket:
    """Stands in for socket.socket: every send and connect raises `error`."""

    def __init__(self, error):
        self.error = error

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def settimeout(self, seconds):
        pass

    def close(self):
        pass

    def sendto(self, data, address):
        raise self.error

    def connect(self, address):
        raise self.error


def os_error(name):
    code = getattr(errno, name)
    return OSError(code, os.strerror(code))


class TestOsErrors:
    """The OS backend tells a dead socket from a silent host by errno."""

    TARGET = ipaddress.IPv4Address("192.0.2.1")

    def network(self, monkeypatch, error):
        monkeypatch.setattr("edgemap.osnet.socket.socket",
                            lambda *args: FailingSocket(error))
        return OsNetwork()

    @pytest.mark.parametrize("name", ["ENETDOWN", "ENETUNREACH", "EBADF", "ENOBUFS"])
    def test_dead_socket_is_transport_down(self, monkeypatch, name):
        error = os_error(name)
        net = self.network(monkeypatch, error)
        with pytest.raises(TransportDown) as icmp:
            net.icmp_ping(self.TARGET, SEC)
        with pytest.raises(TransportDown) as tcp:
            net.tcp_connect(self.TARGET, 502, SEC)
        assert icmp.value.__cause__ is error and tcp.value.__cause__ is error

    @pytest.mark.parametrize("name", ["EHOSTUNREACH", "EHOSTDOWN", "timeout"])
    def test_silent_host_is_an_observed_absence(self, monkeypatch, name):
        error = socket.timeout() if name == "timeout" else os_error(name)
        net = self.network(monkeypatch, error)
        assert not net.icmp_ping(self.TARGET, SEC).replied
        assert net.tcp_connect(self.TARGET, 502, SEC).state is PortState.FILTERED


class ScriptedTcpSocket:
    """Stands in for a TCP socket: connect raises `connect_error` if one is
    given, and each recv takes the next scripted (delay, data) step, moving
    the fake clock on by the delay, or times out when the delay is past the
    socket's timeout.  Records the timeouts set and whether it was closed."""

    def __init__(self, clock, steps=(), connect_error=None):
        self.clock, self.steps, self.connect_error = clock, list(steps), connect_error
        self.timeouts, self.closed = [], False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        self.closed = True

    def settimeout(self, seconds):
        self.timeouts.append(seconds)

    def setsockopt(self, *args):
        pass

    def connect(self, address):
        if self.connect_error is not None:
            raise self.connect_error

    def recv(self, size):
        delay, data = self.steps.pop(0)
        if delay > self.timeouts[-1] * SEC:
            self.clock.sleep(round(self.timeouts[-1] * SEC))
            raise socket.timeout("timed out")
        self.clock.sleep(delay)
        return data[:size]


class Killed(BaseException):
    """Lands in a probe the way a Ctrl-C does: no `except Exception` stops it."""


class TestTcpSocket:
    """The OS backend reads a banner within its window, and always closes its socket."""

    TARGET = ipaddress.IPv4Address("192.0.2.1")

    def network(self, monkeypatch, steps=(), connect_error=None):
        net = OsNetwork()
        net.clock = VirtualClock()
        sock = ScriptedTcpSocket(net.clock, steps, connect_error)
        monkeypatch.setattr("edgemap.osnet.socket.socket", lambda *args: sock)
        return net, sock

    def test_the_banner_read_ends_when_its_window_closes(self, monkeypatch):
        steps = [(100 * MS, b"SSH-"), (300 * MS, b"2.0-"), (200 * MS, b"late")]
        net, sock = self.network(monkeypatch, steps)
        assert net.tcp_connect(self.TARGET, 22, SEC).banner == b"SSH-2.0-"
        # the connect, then each wait only for what is left of the 500 ms window
        assert sock.timeouts == [1.0, 0.5, 0.4, 0.1]
        assert net.clock.now() == 500 * MS
        assert net.counters.counts["banner_data"] == 1
        assert sock.closed

    @pytest.mark.parametrize("steps, banner_max, banner", [
        ([(10 * MS, b"abc"), (10 * MS, b"defgh")], 5, b"abcde"),
        ([(10 * MS, b"abc"), (10 * MS, b"")], 128, b"abc"),
        ([(600 * MS, b"late")], 128, None),
    ], ids=["banner-max", "end-of-stream", "silent"])
    def test_the_banner_read_ends_at_banner_max_or_end_of_stream(
            self, monkeypatch, steps, banner_max, banner):
        net, sock = self.network(monkeypatch, steps)
        probe = net.tcp_connect(self.TARGET, 22, SEC, banner_max=banner_max)
        assert probe.state is PortState.OPEN and probe.banner == banner
        assert sock.steps == [] and sock.closed
        assert net.counters.counts["banner_data"] == (banner is not None)

    def test_a_base_exception_in_connect_still_closes_the_socket(self, monkeypatch):
        net, sock = self.network(monkeypatch, connect_error=Killed())
        with pytest.raises(Killed):
            net.tcp_connect(self.TARGET, 22, SEC)
        assert sock.closed


IP_HEADER = bytes([0x45, 0, 0, 48, 0, 0, 0, 0, 64, 1, 0, 0, 192, 0, 2, 1, 192, 0, 2, 9])


def echo_reply(ident, seq, header=IP_HEADER):
    """An ICMP echo reply, as a raw socket (with `header`) or a ping socket reads it."""
    return header + struct.pack(">BBHHH", 0, 0, 0, ident, seq) + b"payload"


class ScriptedIcmpSocket:
    """Stands in for the ICMP socket: each recvfrom takes the next scripted
    (delay, packet, source) step, moving the fake clock on by the delay, or
    times out when the delay is past the socket's timeout."""

    def __init__(self, clock, steps):
        self.clock, self.steps, self.timeouts = clock, list(steps), []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def settimeout(self, seconds):
        self.timeouts.append(seconds)

    def sendto(self, data, address):
        self.request = struct.unpack(">BBHHH", data[:8])

    def recvfrom(self, size):
        delay, packet, source = self.steps.pop(0)
        if delay > self.timeouts[-1] * SEC:
            self.clock.sleep(round(self.timeouts[-1] * SEC))
            raise socket.timeout("timed out")
        self.clock.sleep(delay)
        _type, _code, _cksum, ident, seq = self.request
        return packet(ident, seq), (source, 0)


class TestEchoReplies:
    """The OS backend takes only its own echo reply, and only in its window."""

    TARGET = "192.0.2.1"

    def ping(self, steps):
        net = OsNetwork()
        net.clock = VirtualClock()
        sock = ScriptedIcmpSocket(net.clock, steps)
        net._icmp_socket = lambda: sock
        return net.icmp_ping(ipaddress.IPv4Address(self.TARGET), SEC), sock

    def test_a_raw_reply_needs_our_identifier(self):
        mine, other = 0x1234, 0x4321
        assert OsNetwork._echo_reply_matches(echo_reply(mine, 7), 7, mine)
        assert not OsNetwork._echo_reply_matches(echo_reply(other, 7), 7, mine)
        assert not OsNetwork._echo_reply_matches(echo_reply(mine, 8), 7, mine)
        # a ping socket delivers no IP header, and rewrites the identifier
        assert OsNetwork._echo_reply_matches(echo_reply(other, 7, header=b""), 7, mine)

    def test_only_the_target_reply_with_our_identifier_counts(self):
        steps = [
            (100 * MS, lambda ident, seq: echo_reply(ident, seq), "192.0.2.99"),
            (100 * MS, lambda ident, seq: echo_reply(ident ^ 1, seq), self.TARGET),
            (100 * MS, lambda ident, seq: echo_reply(ident, seq + 1), self.TARGET),
            (100 * MS, lambda ident, seq: echo_reply(ident, seq), self.TARGET),
        ]
        reply, sock = self.ping(steps)
        assert reply == (True, 400 * MS)
        assert sock.steps == []

    def test_other_packets_do_not_stretch_the_window(self):
        unrelated = (400 * MS, lambda ident, seq: echo_reply(ident, seq), "192.0.2.99")
        reply, sock = self.ping([unrelated] * 4)
        assert not reply.replied
        # the send, then each wait only for what is left of the 1 s window
        assert sock.timeouts == [1.0, 1.0, 0.6, 0.2]
        assert len(sock.steps) == 1
