"""OS socket backend: connect scans and unprivileged ICMP echo.

Runs without raw-socket privilege, so there is no ARP probing and no
half-open SYN scan here: discovery degrades to ICMP-only, and the command
line refuses a SYN scan on this backend before any probe.  A socket
error that says the local network or the socket itself is gone raises
TransportDown; an unreachable or down host, or a timeout, is an
observed absence.

Packet counters are filled from the socket behavior we can observe (one
entry per message of the probe sequence), which keeps rate assertions
meaningful even though the kernel owns the actual wire traffic.
"""

from __future__ import annotations

import errno
import os
import socket
import struct
from typing import Optional

from .errors import TransportDown
from .model import IPv4, PortState
from .timebase import MonotonicClock, SECOND
from .transport import PacketCounters, PortProbe, ProbeReply, ProbeTransport

# errnos about this node's network or socket, not about the target
_TRANSPORT_ERRNOS = frozenset({errno.ENETDOWN, errno.ENETUNREACH, errno.EBADF, errno.ENOBUFS})


def _icmp_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    total = (total >> 16) + (total & 0xFFFF)
    total += total >> 16
    return ~total & 0xFFFF


class OsNetwork(ProbeTransport):
    def __init__(self):
        self.clock = MonotonicClock()
        self.counters = PacketCounters()
        self._icmp_seq = 0

    def _icmp_socket(self) -> socket.socket:
        try:
            return socket.socket(socket.AF_INET, socket.SOCK_DGRAM, socket.IPPROTO_ICMP)
        except PermissionError:
            pass
        try:
            return socket.socket(socket.AF_INET, socket.SOCK_RAW, socket.IPPROTO_ICMP)
        except PermissionError as exc:
            raise TransportDown(
                "no ICMP socket available (needs ping_group_range or CAP_NET_RAW)") from exc

    def icmp_ping(self, target: IPv4, timeout: int) -> ProbeReply:
        self._icmp_seq = (self._icmp_seq + 1) & 0xFFFF
        ident = os.getpid() & 0xFFFF
        header = struct.pack(">BBHHH", 8, 0, 0, ident, self._icmp_seq)
        payload = b"edgemap-echo-payload-32-bytes!!!"
        packet = struct.pack(">BBHHH", 8, 0, _icmp_checksum(header + payload),
                             ident, self._icmp_seq) + payload
        t0 = self.clock.now()
        self.counters.record("icmp_request", t0)
        with self._icmp_socket() as sock:
            sock.settimeout(timeout / SECOND)
            try:
                sock.sendto(packet, (str(target), 0))
                while True:
                    data, _peer = sock.recvfrom(2048)
                    now = self.clock.now()
                    if now - t0 > timeout:
                        return ProbeReply(False)
                    if self._echo_reply_matches(data, self._icmp_seq):
                        self.counters.record("icmp_reply", now)
                        return ProbeReply(True, now - t0)
            except OSError as exc:  # socket.timeout included
                if exc.errno in _TRANSPORT_ERRNOS:
                    raise TransportDown(f"ICMP echo to {target}: {exc}") from exc
                return ProbeReply(False)

    @staticmethod
    def _echo_reply_matches(data: bytes, seq: int) -> bool:
        # raw sockets deliver the IP header, dgram sockets do not
        if len(data) >= 20 and (data[0] >> 4) == 4 and data[9] == 1:
            data = data[(data[0] & 0x0F) * 4:]
        if len(data) < 8:
            return False
        icmp_type, _code, _cksum, _ident, got_seq = struct.unpack(">BBHHH", data[:8])
        return icmp_type == 0 and got_seq == seq

    def tcp_connect(self, target: IPv4, port: int, timeout: int,
                    banner_grab: bool = True, banner_max: int = 128) -> PortProbe:
        t0 = self.clock.now()
        self.counters.record("tcp_syn", t0)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout / SECOND)
        try:
            sock.connect((str(target), port))
        except ConnectionRefusedError:
            now = self.clock.now()
            self.counters.record("tcp_rst", now)
            sock.close()
            return PortProbe(PortState.CLOSED, rtt=now - t0)
        except OSError as exc:  # socket.timeout included
            sock.close()
            if exc.errno in _TRANSPORT_ERRNOS:
                raise TransportDown(f"connect to {target}:{port}: {exc}") from exc
            return PortProbe(PortState.FILTERED)
        now = self.clock.now()
        rtt = now - t0
        self.counters.record("tcp_synack", now)
        self.counters.record("tcp_ack", now)
        banner: Optional[bytes] = None
        if banner_grab:
            try:
                sock.settimeout(min(timeout, SECOND // 2) / SECOND)
                data = sock.recv(banner_max)
                if data:
                    banner = data
                    self.counters.record("banner_data", self.clock.now(), len(data))
            except (socket.timeout, OSError):
                pass
        # reset instead of orderly FIN so the probe mirrors the scan sequence
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        except OSError:
            pass
        self.counters.record("tcp_rst", self.clock.now())
        sock.close()
        return PortProbe(PortState.OPEN, banner=banner, rtt=rtt)
