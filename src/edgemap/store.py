"""Fingerprint persistence: canonical text records with a CRC trailer.

File format (bit-exact, ascii, LF line endings):

    edgemap-fingerprint v2
    digest <16 lowercase hex>
    trusted <0|1>
    started <microseconds>
    finished <microseconds>
    host <ip> <up|silent>
    rtt <us> [<us> ...]            # only for `up` hosts
    port <number> <open|closed|filtered>         # a run of one port
    ports <lo>-<hi> <open|closed|filtered>       # a run of lo < hi
    banner <number> <hex>
    end
    checksum <8 lowercase hex>

Each host is one block in exactly this line order: its `host` line, its
`rtt` line if it is `up` (never if `silent`), its port runs, then its
`banner` lines (hex of even length, possibly empty).  A port run is a
maximal stretch of consecutive probed ports in one state: a run of one
port is a `port` line, a longer one a `ports` line.  The loader enforces
that order: a line missing from it or out of it, or one that fits the
layout nowhere, is CorruptRecord, and the error names that line or the
host record it left invalid.  Numbers are unsigned decimal with no
leading zero, the checksum is exactly 8 lowercase hex digits, and a port
is 1-65535.

Hosts appear in strictly ascending numeric address order, and each
host's runs and banners strictly ascending, so two records of the same
network are byte-identical and file diffs stay readable.  The loader
enforces this: a host named twice or out of order, a run that overlaps
or precedes the one before it, two adjacent runs in one state (a split
run), a `ports` line whose lo is not below its hi, or a banner repeated
or out of order, is CorruptRecord naming the host, never a line that
silently replaces another.  The writer finds the runs in each host's
PortTable codes with one regular expression, and the loader fills the
codes one run at a time.  The checksum is CRC-32 over every byte up to
and including the 'end' line; any corruption loads as CorruptRecord,
never as a silently truncated fingerprint.

Version 1 (`edgemap-fingerprint v1`) is read, never written: it has the
same layout but one `port` line per probed port, and no `ports` lines.
A v1 record, such as the trusted baseline of a node set up before v2,
loads to the same fingerprint as its v2 record.  A host's v1 port lines
for one consecutive stretch of ports, as every sweep wrote them, are
read 1,024 lines at a time as blocks of bytes: a block is taken when
rewriting its lines' other state words to its most common one leaves
`port <p> <that state>` for each of its ports, and only those other
lines are rewritten.  Any other port lines are read one line at a time,
by the reader that gives every v1 refusal its message.
"""

from __future__ import annotations

import contextlib
import functools
import ipaddress
import os
import re
import zlib
from dataclasses import replace

from .errors import CorruptRecord, NotFound, TrustedAlreadyExists
from .model import PORT_CODES, HostRecord, NetworkFingerprint, PortTable, dotted_quad

HEADER = "edgemap-fingerprint v2"

# a port state's name by its PortTable code, and the code by the name
_STATE_WIRE = (None, *PORT_CODES)
_CODE_BY_WIRE = {name.encode(): code for name, code in PORT_CODES.items()}
# a maximal run of one state in a PortTable's codes
_CODE_RUN = re.compile(b"|".join(b"%c+" % code for code in PORT_CODES.values()))


def dumps_fingerprint(fp: NetworkFingerprint) -> bytes:
    """The record of a fingerprint, formatted one host block at a time."""
    out = bytearray(f"{HEADER}\ndigest {fp.config_digest:016x}\ntrusted {int(fp.trusted)}\n"
                    f"started {fp.started_at}\nfinished {fp.finished_at}\n".encode("ascii"))
    for addr in sorted(fp.hosts, key=int):
        rec = fp.hosts[addr]
        lines = [f"host {dotted_quad(addr)} {rec.alive}"]
        if rec.rtt_samples:
            lines.append("rtt " + " ".join(map(str, rec.rtt_samples)))
        first, codes = rec.ports.first, rec.ports.codes
        for run in _CODE_RUN.finditer(codes):
            lo, end = run.span()
            state = _STATE_WIRE[codes[lo]]
            if end - lo == 1:
                lines.append(f"port {first + lo} {state}")
            else:
                lines.append(f"ports {first + lo}-{first + end - 1} {state}")
        for port in sorted(rec.banners):
            lines.append(f"banner {port} {rec.banners[port].hex()}")
        lines.append("")
        out += "\n".join(lines).encode("ascii")
    out += b"end\n"
    out += b"checksum %08x\n" % zlib.crc32(out)
    return bytes(out)


# The layout of the module docstring, matched on the record's bytes: the
# preamble, then each host's line and rtt line, and each port, run and
# banner line (hex of any length), one match at a time.  A port number
# has at most five digits, so a table is at most 100,000 bytes before
# PortTable refuses the ports above 65535.
_NUMBER = rb"(?:0|[1-9][0-9]*)"
_PREAMBLE = re.compile(rb"digest ([0-9a-f]{16})\ntrusted ([01])\n"
                       rb"started (%s)\nfinished (%s)\n" % (_NUMBER, _NUMBER))
_HOST = re.compile(rb"host ([0-9.]+) (?:up\nrtt ((?:%s )*%s)|silent)\n" % (_NUMBER, _NUMBER))
# a v1 port line: its port (PortTable refuses 0), then its state
_V1_LINE = re.compile(rb"port ((?!0[0-9])[0-9]{1,5}) (open|closed|filtered)\n")
# a v2 run: the lo of a `ports` line, then the hi, or the one port of a `port` line
_RUN = re.compile(rb"port(?:s ([1-9][0-9]{0,4})-| )([1-9][0-9]{0,4}) (open|closed|filtered)\n")
_BANNER = re.compile(rb"banner (%s) ([0-9a-f]*)\n" % _NUMBER)
_TRAILER = re.compile(rb"checksum ([0-9a-f]{8})\n")


# The bulk step of the v1 reader, for a host's port lines that are one
# consecutive stretch of ports.  It works 1,024 lines at a time, so what
# it allocates, and the blocks it keeps, stay within tens of KB.  Each
# state word has exactly one of `n`, `c` and `f`, and `port` and the
# digits have none, so one translate gives each line's code.  The check
# then rewrites only the lines not in the block's most common state: each
# other state's ` <word>\n` becomes the common one's, which must leave the
# lines `port p <common>\n` of its ports.  A match of ` <word>\n` ends at
# its line's newline and no rewrite makes one, so a rewritten line is
# `port p <common>\n` only if it was `port p <a state word>\n`.
_V1_BLOCK_END = re.compile(rb"\n[^p]")  # the end of the last line starting with `p`
# each state's line end, by its code
_V1_ENDS = {code: b" %s\n" % name.encode() for name, code in PORT_CODES.items()}
_V1_MARKS = bytes.maketrans(b"ncf", bytes(map(PORT_CODES.get, ("open", "closed", "filtered"))))
_V1_UNMARKED = bytes(byte for byte in range(256) if byte not in b"ncf\n")


@functools.lru_cache(maxsize=2)  # a sweep's blocks: mostly closed or mostly filtered; 20 KB each
def _v1_block(lo: int, count: int, code: int) -> bytes:
    """The v1 port lines of ports lo to lo + count - 1, all in the state of `code`."""
    return (b"port %d" + _V1_ENDS[code]) * count % tuple(range(lo, lo + count))


def _v1_stretch(data: bytes, pos: int):
    """The `first` and codes of the v1 port lines at `pos`, and where they
    end, when those lines are `port <p> <state>` for p counting up by one
    from lo to hi <= 65535, exactly as the writer wrote them; else None.

    This is a checked shortcut for the per-line reader: it reads a subset
    of what that reader accepts, to the same codes, and leaves every other
    block, and so every refusal and its message, to it.
    """
    head = _V1_LINE.match(data, pos)
    if head is None:
        return None
    # the record ends with its checksum line, so a line not starting with `p` follows
    end = _V1_BLOCK_END.search(data, pos).start() + 1
    tail = _V1_LINE.match(data, max(pos, data.rfind(b"\n", pos, end - 1) + 1))
    if tail is None:
        return None
    lo, hi = int(head[1]), int(tail[1])
    if not 1 <= lo <= hi <= 65535:
        return None
    codes = bytearray()
    for start in range(lo, hi + 1, 1024):
        stop = min(start + 1024, hi + 1)
        cut = end if stop > hi else data.find(b"\nport %d " % stop, pos, end) + 1
        if not cut:
            return None
        lines = data[pos:cut]
        # each line's code, then its newline, once the check below holds
        run_codes = lines.translate(_V1_MARKS, _V1_UNMARKED)[::2]
        common = max(_V1_ENDS, key=run_codes.count)
        for code, line_end in _V1_ENDS.items():
            if code != common:
                lines = lines.replace(line_end, _V1_ENDS[common])
        if lines != _v1_block(start, stop - start, common):
            return None
        codes += run_codes
        pos = cut
    return lo, codes, end


def _v1_ports(data: bytes, pos: int, addr) -> tuple:
    """The `first` and codes of the v1 port lines at `pos`, and where they end."""
    stretch = _v1_stretch(data, pos)
    if stretch is not None:
        return stretch
    first, codes = 0, bytearray()
    while line := _V1_LINE.match(data, pos):
        port = int(line[1])
        if not codes:
            first = port
        elif port < first + len(codes):
            raise CorruptRecord(f"ports of host {addr} repeated or out of ascending order")
        codes += bytes(port - first - len(codes))
        codes.append(_CODE_BY_WIRE[line[2]])
        pos = line.end()
    return first, codes, pos


def _v2_ports(data: bytes, pos: int, addr) -> tuple:
    """The `first` and codes of the v2 port runs at `pos`, and where they end."""
    first, codes = 0, bytearray()
    end, state = 0, None  # one past the previous run, and its state
    while run := _RUN.match(data, pos):
        hi = int(run[2])
        lo = int(run[1]) if run[1] else hi
        if run[1] and lo >= hi:
            raise CorruptRecord(f"port run {lo}-{hi} of host {addr} is not two or more "
                                f"ascending ports")
        if lo < end:
            raise CorruptRecord(f"ports of host {addr} repeated or out of ascending order")
        if lo == end and run[3] == state:
            raise CorruptRecord(f"port run of host {addr} split at port {lo}")
        if not codes:
            first = end = lo
        codes += bytes(lo - end)
        codes += bytes([_CODE_BY_WIRE[run[3]]]) * (hi - lo + 1)
        end, state = hi + 1, run[3]
        pos = run.end()
    if data.startswith(b"port", pos):
        line = data[pos:data.index(b"\n", pos)].decode()
        raise CorruptRecord(f"bad port line {line!r} of host {addr}")
    return first, codes, pos


# the port lines' reader for each header this loader reads
_PORT_READERS = {HEADER.encode(): _v2_ports, b"edgemap-fingerprint v1": _v1_ports}


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
    header = data[:data.index(b"\n")]
    read_ports = _PORT_READERS.get(header)
    if read_ports is None:
        raise CorruptRecord(f"bad header line {header.decode()!r}")
    head = _PREAMBLE.match(data, len(header) + 1)
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
        first, codes, pos = read_ports(data, host.end(), addr)
        banners = {}
        previous = -1  # the previous banner's port
        while (banner := _BANNER.match(data, pos)) and len(banner[2]) % 2 == 0:
            port = int(banner[1])
            if port <= previous:
                raise CorruptRecord(f"banners of host {addr} repeated or out of ascending order")
            banners[port] = bytes.fromhex(banner[2].decode())
            previous = port
            pos = banner.end()
        rtt = tuple(map(int, host[2].split())) if host[2] else ()
        try:
            hosts[addr] = HostRecord(rtt_samples=rtt, ports=PortTable(first, codes),
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

    `directory` is a string path, and each record in it is named by its
    config digest.  At most one trusted record exists per digest.  The store
    marks it trusted when it writes it, and writes it once: only a forced save
    (`rebaseline --force`) replaces it, in the same rename that any write
    ends with, so a failed or cut replacement leaves the old record.
    Writes go through a temp file and atomic rename.  Only the trusted
    record is fsynced: a torn epoch file fails its CRC and loads as
    CorruptRecord, never as a wrong fingerprint.
    """

    def __init__(self, directory):
        # Every path is a plain string, not a Path: pathlib (Python 3.11)
        # interns every file name it parses, and one more interned name an
        # epoch cost about 1 MB of peak memory over a few thousand epochs.
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, digest: int, name: str) -> str:
        return os.path.join(self.directory, f"{digest:016x}.{name}")

    def _write(self, path, fp: NetworkFingerprint, durable: bool = False) -> None:
        """Write through a temp file and a rename.

        A durable write also fsyncs the temp file before the rename and the
        directory after it, so a power cut leaves the old record or the new
        one, never an empty file.  A failed write removes its temp file.
        """
        tmp = os.path.splitext(path)[0] + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(dumps_fingerprint(fp))
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            # epoch temp names differ per epoch, and nothing else deletes them
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        if durable:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def save_trusted(self, fp: NetworkFingerprint, *, force: bool = False) -> None:
        """Write fp as its config's trusted baseline (`trusted 1`); only `force` replaces one."""
        path = self._path(fp.config_digest, "trusted.fp")
        if os.path.exists(path) and not force:
            raise TrustedAlreadyExists(
                f"trusted fingerprint already stored for digest {fp.config_digest:016x}")
        self._write(path, replace(fp, trusted=True), durable=True)

    def save_epoch(self, fp: NetworkFingerprint, epoch: int) -> None:
        self._write(self._path(fp.config_digest, f"epoch{epoch:06d}.fp"), fp)

    def load_trusted(self, digest: int) -> NetworkFingerprint:
        path = self._path(digest, "trusted.fp")
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError as exc:
            raise NotFound(path) from exc
        fp = loads_fingerprint(data)
        if fp.config_digest != digest:
            raise CorruptRecord("stored digest does not match filename")
        if not fp.trusted:
            raise CorruptRecord("stored baseline is not marked trusted")
        return fp

    def has_trusted(self, digest: int) -> bool:
        return os.path.exists(self._path(digest, "trusted.fp"))

    def resume_epochs(self, digest: int, keep: int) -> int:
        """The digest's next epoch number: one past the highest stored, 1 when
        none is, read from the file names (a name sort puts epoch1000000
        before epoch999999).  The same listing deletes each epoch file of the
        digest outside the newest `keep` numbers up to that one, and each
        epoch temp file of the digest: only a write cut short (a kill, a power
        cut) leaves one, and nothing else deletes it.  The trusted record's
        temp file is left alone, as a concurrent `rebaseline` may write it."""
        prefix = f"{digest:016x}.epoch"
        epochs, doomed = {}, []  # the epoch files by name, and the temp files
        for name in os.listdir(self.directory):
            number, _, suffix = name[len(prefix):].partition(".")
            if name.startswith(prefix) and number.isdecimal():
                if suffix == "fp":
                    epochs[name] = int(number)
                elif suffix == "tmp":
                    doomed.append(name)
        after = max(epochs.values(), default=0) + 1
        doomed += [name for name, number in epochs.items() if number <= after - keep]
        for name in doomed:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self.directory, name))
        return after

    def delete_epoch(self, digest: int, epoch: int) -> None:
        try:
            os.unlink(self._path(digest, f"epoch{epoch:06d}.fp"))
        except FileNotFoundError:
            pass
