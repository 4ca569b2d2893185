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

Hosts appear in ascending numeric address order, ports ascending, so two
records of the same network are byte-identical and file diffs stay
readable.  The checksum is CRC-32 over every byte up to and including
the 'end' line; any corruption loads as CorruptRecord, never as a
silently truncated fingerprint.
"""

from __future__ import annotations

import ipaddress
import os
import zlib
from pathlib import Path

from .errors import CorruptRecord, NotFound, TrustedAlreadyExists
from .model import Alive, HostRecord, NetworkFingerprint, PortState

HEADER = "edgemap-fingerprint v1"

_ALIVE_WIRE = {Alive.UP: "up", Alive.SILENT_UP: "silent"}
_ALIVE_BY_WIRE = {v: k for k, v in _ALIVE_WIRE.items()}
_STATE_BY_WIRE = {s.value: s for s in PortState}


def dumps_fingerprint(fp: NetworkFingerprint) -> bytes:
    lines = [
        HEADER,
        f"digest {fp.config_digest:016x}",
        f"trusted {1 if fp.trusted else 0}",
        f"started {fp.started_at}",
        f"finished {fp.finished_at}",
    ]
    for addr in sorted(fp.hosts, key=int):
        rec = fp.hosts[addr]
        lines.append(f"host {addr} {_ALIVE_WIRE[rec.alive]}")
        if rec.rtt_samples:
            lines.append("rtt " + " ".join(str(s) for s in rec.rtt_samples))
        # `_value_` is the member's value as a plain attribute: `value` is a
        # property and a dict keyed by member calls Enum.__hash__, and
        # either costs more than the rest of the line
        ports = rec.ports
        lines += [f"port {port} {ports[port]._value_}" for port in sorted(ports)]
        for port in sorted(rec.banners):
            lines.append(f"banner {port} {rec.banners[port].hex()}")
    lines.append("end")
    body = ("\n".join(lines) + "\n").encode("ascii")
    checksum = zlib.crc32(body) & 0xFFFFFFFF
    return body + f"checksum {checksum:08x}\n".encode("ascii")


def loads_fingerprint(data: bytes) -> NetworkFingerprint:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CorruptRecord("record is not ascii") from exc
    if not text.endswith("\n"):
        raise CorruptRecord("record missing final newline")
    lines = text[:-1].split("\n")
    if len(lines) < 7 or not lines[-1].startswith("checksum "):
        raise CorruptRecord("record missing checksum trailer")
    body = ("\n".join(lines[:-1]) + "\n").encode("ascii")
    try:
        stated = int(lines[-1].split(" ", 1)[1], 16)
    except (IndexError, ValueError) as exc:
        raise CorruptRecord("unreadable checksum line") from exc
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if stated != actual:
        raise CorruptRecord(f"checksum mismatch: stated {stated:08x}, actual {actual:08x}")
    return _parse_record(lines[:-1])


def _parse_record(lines) -> NetworkFingerprint:
    def fail(msg):
        raise CorruptRecord(msg)

    if lines[0] != HEADER:
        fail(f"bad header line {lines[0]!r}")
    if lines[-1] != "end":
        fail("record missing end marker")
    try:
        digest = int(lines[1].split(" ", 1)[1], 16)
        trusted = {"0": False, "1": True}[lines[2].split(" ", 1)[1]]
        started = int(lines[3].split(" ", 1)[1])
        finished = int(lines[4].split(" ", 1)[1])
    except (IndexError, ValueError, KeyError):
        fail("bad record preamble")

    hosts = {}
    current = None  # [addr, alive, rtt, ports, banners]

    def flush():
        if current is None:
            return
        addr, alive, rtt, ports, banners = current
        try:
            hosts[addr] = HostRecord(address=addr, alive=alive,
                                     rtt_samples=tuple(rtt), ports=ports,
                                     banners=banners)
        except ValueError as exc:
            fail(f"invalid host record for {addr}: {exc}")

    for line in lines[5:-1]:
        parts = line.split(" ")
        try:
            if parts[0] == "host":
                flush()
                addr = ipaddress.IPv4Address(parts[1])
                current = [addr, _ALIVE_BY_WIRE[parts[2]], [], {}, {}]
            elif parts[0] == "rtt" and current is not None:
                current[2] = [int(p) for p in parts[1:]]
            elif parts[0] == "port" and current is not None:
                current[3][int(parts[1])] = _STATE_BY_WIRE[parts[2]]
            elif parts[0] == "banner" and current is not None:
                current[4][int(parts[1])] = bytes.fromhex(parts[2])
            else:
                fail(f"unexpected line {line!r}")
        except (IndexError, ValueError, KeyError, ipaddress.AddressValueError):
            fail(f"unparseable line {line!r}")
    flush()
    try:
        return NetworkFingerprint(started_at=started, finished_at=finished,
                                  config_digest=digest, hosts=hosts, trusted=trusted)
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

    def _epoch_path(self, digest: int, epoch: int) -> Path:
        return self.directory / f"{digest:016x}.epoch{epoch:06d}.fp"

    def _write(self, path: Path, fp: NetworkFingerprint, durable: bool = False) -> None:
        """Write through a temp file and a rename.

        A durable write also fsyncs the temp file before the rename and the
        directory after it, so a power cut leaves the old record or the new
        one, never an empty file.
        """
        tmp = path.with_suffix(".tmp")
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
        self._write(self._epoch_path(fp.config_digest, epoch), fp)

    def _load(self, path: Path) -> NetworkFingerprint:
        if not path.exists():
            raise NotFound(str(path))
        return loads_fingerprint(path.read_bytes())

    def load_trusted(self, digest: int) -> NetworkFingerprint:
        fp = self._load(self._trusted_path(digest))
        if fp.config_digest != digest:
            raise CorruptRecord("stored digest does not match filename")
        if not fp.trusted:
            raise CorruptRecord("stored baseline is not marked trusted")
        return fp

    def has_trusted(self, digest: int) -> bool:
        return self._trusted_path(digest).exists()

    def latest_epoch(self, digest: int) -> int:
        """Highest epoch number stored for the digest, 0 when there is none.

        Read from the numbers in the file names: a name sort would put
        epoch1000000 before epoch999999.
        """
        prefix = f"{digest:016x}.epoch"
        numbers = (path.name[len(prefix):-len(".fp")]
                   for path in self.directory.glob(f"{prefix}*.fp"))
        return max((int(n) for n in numbers if n.isdecimal()), default=0)

    def delete_trusted(self, digest: int) -> None:
        path = self._trusted_path(digest)
        if not path.exists():
            raise NotFound(str(path))
        path.unlink()
