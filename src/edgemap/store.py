"""Fingerprint persistence: canonical text records with a CRC trailer.

File format (bit-exact, ascii, LF line endings):

    edgemap-fingerprint v1
    digest <16 lowercase hex>
    trusted <0|1>
    started <microseconds>
    finished <microseconds>
    host <ip> <up|silent>
    rtt <us> [<us> ...]            # only for Up hosts
    port <number> <open|closed|filtered>
    banner <number> <hex>
    end
    checksum <8 lowercase hex>

Each host is one block in exactly this line order: its `host` line, then
its `rtt` line if it is Up, then its `port` lines, then its `banner` lines
(hex of even length, possibly empty).  The loader enforces that order:
a line out of it, or one that fits the layout nowhere, is
CorruptRecord, and the error names that line or the host record it
left invalid.  Numbers are unsigned decimal with no leading zero, and
the checksum is exactly 8 lowercase hex digits; a port is 1-65535.

Hosts appear in strictly ascending numeric address order, and each
host's ports and banners strictly ascending, so two records of the same
network are byte-identical and file diffs stay readable.  The loader
enforces this: a host named twice or out of order, or a port or a
banner repeated or out of order, is CorruptRecord naming the host, never
a line that silently replaces another.  The writer formats the port
lines straight from each host's PortTable, and the loader builds the
table's codes straight from them.  The checksum is CRC-32 over every
byte up to and including the 'end' line; any corruption loads as
CorruptRecord, never as a silently truncated fingerprint.
"""

from __future__ import annotations

import ipaddress
import os
import re
import zlib
from itertools import count
from operator import lt
from pathlib import Path

from .errors import CorruptRecord, NotFound, TrustedAlreadyExists
from .model import PORT_CODES, Alive, HostRecord, NetworkFingerprint, PortTable

HEADER = "edgemap-fingerprint v1"

_ALIVE_WIRE = {Alive.UP: "up", Alive.SILENT_UP: "silent"}
# the loader reads the record as bytes
_ALIVE_BY_WIRE = {v.encode(): k for k, v in _ALIVE_WIRE.items()}
# a port state's name by its PortTable code, and the code by the name
_STATE_WIRE = (None, *PORT_CODES)
_CODE_BY_WIRE = {name.encode(): code for name, code in PORT_CODES.items()}


def dumps_fingerprint(fp: NetworkFingerprint) -> bytes:
    """The record of a fingerprint, formatted one host block at a time."""
    out = bytearray(f"{HEADER}\ndigest {fp.config_digest:016x}\ntrusted {int(fp.trusted)}\n"
                    f"started {fp.started_at}\nfinished {fp.finished_at}\n".encode("ascii"))
    for addr in sorted(fp.hosts, key=int):
        rec = fp.hosts[addr]
        lines = [f"host {addr} {_ALIVE_WIRE[rec.alive]}"]
        if rec.rtt_samples:
            lines.append("rtt " + " ".join(map(str, rec.rtt_samples)))
        ports = rec.ports
        lines += [f"port {port} {_STATE_WIRE[code]}"
                  for port, code in zip(count(ports.first), ports.codes) if code]
        for port in sorted(rec.banners):
            lines.append(f"banner {port} {rec.banners[port].hex()}")
        lines.append("")
        out += "\n".join(lines).encode("ascii")
    out += b"end\n"
    out += b"checksum %08x\n" % zlib.crc32(out)
    return bytes(out)


# The layout of the module docstring, matched on the record's bytes one
# host at a time.  A repeated group keeps a backtracking entry of a few
# hundred bytes per repetition until its match returns, so port lines are
# matched, and their codes built, at most 1,024 at a time (one match for
# the default port range), and banner lines (hex of any length) one at a
# time.  A port number has at most five digits, so a table is at most
# 100,000 bytes before PortTable refuses the ports above 65535.
_NUMBER = rb"(?:0|[1-9][0-9]*)"
_PREAMBLE = re.compile(HEADER.encode() + rb"\ndigest ([0-9a-f]{16})\ntrusted ([01])\n"
                       rb"started (%s)\nfinished (%s)\n" % (_NUMBER, _NUMBER))
_HOST = re.compile(rb"host ([0-9.]+) (up|silent)\n(?:rtt ((?:%s )*%s)\n)?" % (_NUMBER, _NUMBER))
_PORTS = re.compile(rb"(?:port (?!0[0-9])[0-9]{1,5} (?:open|closed|filtered)\n){1,1024}")
_BANNER = re.compile(rb"banner (%s) ([0-9a-f]*)\n" % _NUMBER)
_TRAILER = re.compile(rb"checksum ([0-9a-f]{8})\n")


def loads_fingerprint(data: bytes) -> NetworkFingerprint:
    if not data.isascii():
        raise CorruptRecord("record is not ascii")
    if not data.endswith(b"\n"):
        raise CorruptRecord("record missing final newline")
    cut = data.rfind(b"\n", 0, -1) + 1  # start of the checksum line
    if not data.startswith(b"checksum ", cut):
        raise CorruptRecord("record missing checksum trailer")
    trailer = _TRAILER.fullmatch(data, cut)
    if trailer is None:
        raise CorruptRecord("unreadable checksum line")
    stated = int(trailer[1], 16)
    actual = zlib.crc32(memoryview(data)[:cut])
    if stated != actual:
        raise CorruptRecord(f"checksum mismatch: stated {stated:08x}, actual {actual:08x}")
    if not data.startswith(HEADER.encode() + b"\n"):
        header = data[:data.index(b"\n")].decode()
        raise CorruptRecord(f"bad header line {header!r}")
    head = _PREAMBLE.match(data)
    if head is None:
        raise CorruptRecord("bad record preamble")
    hosts = {}
    pos = head.end()
    last = -1  # the previous host's address as an int
    while host := _HOST.match(data, pos):
        try:
            addr = ipaddress.IPv4Address(host[1].decode())
        except ValueError as exc:
            raise CorruptRecord(f"bad host address {host[1].decode()!r}") from exc
        if int(addr) <= last:
            raise CorruptRecord(f"host {addr} named twice" if int(addr) == last
                                else f"host {addr} out of ascending address order")
        last = int(addr)
        pos = host.end()
        first, codes = 0, bytearray()
        while run := _PORTS.match(data, pos):
            words = run[0].split()
            ports = list(map(int, words[1::3]))
            run_codes = bytes(map(_CODE_BY_WIRE.__getitem__, words[2::3]))
            lo, hi = ports[0], ports[-1]
            if not codes:
                first = lo
            if lo < first + len(codes) or not all(map(lt, ports, ports[1:])):
                raise CorruptRecord(f"ports of host {addr} repeated or out of ascending order")
            codes += bytes(hi - first + 1 - len(codes))
            if hi - lo + 1 == len(ports):  # strictly ascending, so consecutive
                codes[lo - first:] = run_codes
            else:
                for port, code in zip(ports, run_codes):
                    codes[port - first] = code
            pos = run.end()
        banners = {}
        previous = -1  # the previous banner's port
        while (banner := _BANNER.match(data, pos)) and len(banner[2]) % 2 == 0:
            port = int(banner[1])
            if port <= previous:
                raise CorruptRecord(f"banners of host {addr} repeated or out of ascending order")
            banners[port] = bytes.fromhex(banner[2].decode())
            previous = port
            pos = banner.end()
        rtt = tuple(map(int, host[3].split())) if host[3] else ()
        try:
            hosts[addr] = HostRecord(address=addr, alive=_ALIVE_BY_WIRE[host[2]],
                                     rtt_samples=rtt, ports=PortTable(first, codes),
                                     banners=banners)
        except ValueError as exc:
            raise CorruptRecord(f"invalid host record for {addr}: {exc}") from exc
    if pos == cut:
        raise CorruptRecord("record missing end marker")
    if data[pos:cut] != b"end\n":
        line = data[pos:data.index(b"\n", pos)].decode()
        raise CorruptRecord(f"unexpected line {line!r}")
    try:
        return NetworkFingerprint(started_at=int(head[3]), finished_at=int(head[4]),
                                  config_digest=int(head[1], 16), hosts=hosts,
                                  trusted=head[2] == b"1")
    except ValueError as exc:
        raise CorruptRecord(str(exc)) from exc


class FingerprintStore:
    """Directory-backed fingerprint collection.

    At most one trusted record exists per config digest and it is never
    overwritten; re-baselining is an explicit delete by the operator.
    Writes go through a temp file and atomic rename.  Only the trusted
    record is fsynced: a torn epoch file fails its CRC and loads as
    CorruptRecord, never as a wrong fingerprint.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _trusted_path(self, digest: int) -> Path:
        return self.directory / f"{digest:016x}.trusted.fp"

    @staticmethod
    def _epoch_name(digest: int, epoch: int) -> str:
        return f"{digest:016x}.epoch{epoch:06d}.fp"

    def _write(self, path, fp: NetworkFingerprint, durable: bool = False) -> None:
        """Write through a temp file and a rename.

        A durable write also fsyncs the temp file before the rename and the
        directory after it, so a power cut leaves the old record or the new
        one, never an empty file.
        """
        tmp = os.path.splitext(path)[0] + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(dumps_fingerprint(fp))
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if durable:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def save_trusted(self, fp: NetworkFingerprint) -> None:
        if not fp.trusted:
            raise ValueError("fingerprint is not marked trusted")
        path = self._trusted_path(fp.config_digest)
        if path.exists():
            raise TrustedAlreadyExists(
                f"trusted fingerprint already stored for digest {fp.config_digest:016x}")
        self._write(path, fp, durable=True)

    def save_epoch(self, fp: NetworkFingerprint, epoch: int) -> None:
        # plain string paths, as in delete_epoch
        self._write(os.path.join(self.directory, self._epoch_name(fp.config_digest, epoch)), fp)

    def load_trusted(self, digest: int) -> NetworkFingerprint:
        path = self._trusted_path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError as exc:
            raise NotFound(str(path)) from exc
        fp = loads_fingerprint(data)
        if fp.config_digest != digest:
            raise CorruptRecord("stored digest does not match filename")
        if not fp.trusted:
            raise CorruptRecord("stored baseline is not marked trusted")
        return fp

    def has_trusted(self, digest: int) -> bool:
        return self._trusted_path(digest).exists()

    def _epochs(self, digest: int) -> list:
        """The numbers of the digest's stored epochs, read from the file
        names: a name sort would put epoch1000000 before epoch999999."""
        prefix = f"{digest:016x}.epoch"
        numbers = (path.name[len(prefix):-len(".fp")]
                   for path in self.directory.glob(f"{prefix}*.fp"))
        return [int(n) for n in numbers if n.isdecimal()]

    def latest_epoch(self, digest: int) -> int:
        """Highest epoch number stored for the digest, 0 when there is none."""
        return max(self._epochs(digest), default=0)

    def prune_epochs(self, digest: int, through: int) -> None:
        """Delete every epoch file of the digest numbered `through` or lower."""
        for epoch in self._epochs(digest):
            if epoch <= through:
                self.delete_epoch(digest, epoch)

    def delete_epoch(self, digest: int, epoch: int) -> None:
        # a plain string, not a Path: pathlib (Python 3.11) interns every
        # file name it parses, and one more interned name an epoch cost
        # about 1 MB of peak memory over a few thousand epochs
        try:
            os.unlink(os.path.join(self.directory, self._epoch_name(digest, epoch)))
        except FileNotFoundError:
            pass

    def delete_trusted(self, digest: int) -> None:
        path = self._trusted_path(digest)
        if not path.exists():
            raise NotFound(str(path))
        path.unlink()
