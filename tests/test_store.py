import collections
import dataclasses
import hashlib
import ipaddress
import itertools
import os
import random
import re
import stat
import tracemalloc
import zlib

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from edgemap import store
from edgemap.errors import CorruptRecord, NotFound, TrustedAlreadyExists
from edgemap.model import PORT_CODES, HostRecord, NetworkFingerprint, PortState
from edgemap.scheduler import KEEP_EPOCHS
from edgemap.store import (FingerprintStore, dumps_fingerprint,
                           loads_fingerprint)
from conftest import random_fingerprint
from oracles import dumps_v1
from test_golden import SCENARIOS, SIMULATE_SHA256, backend, run

A = ipaddress.IPv4Address


def read_epoch(directory, digest, epoch):
    """The fingerprint of one stored epoch, read back from its file."""
    return loads_fingerprint((directory / f"{digest:016x}.epoch{epoch:06d}.fp").read_bytes())


def sample_fp(trusted=False):
    rec1 = HostRecord(rtt_samples=(400, 500, 900),
                      ports={22: PortState.OPEN, 23: PortState.FILTERED,
                             24: PortState.CLOSED},
                      banners={22: b"SSH-2.0 unit\r\n"})
    rec2 = HostRecord()
    return NetworkFingerprint(started_at=100, finished_at=2200,
                              config_digest=0xABCDEF0123456789,
                              hosts={A("10.0.0.1"): rec1, A("10.0.0.2"): rec2},
                              trusted=trusted)


class TestSerialization:
    def test_round_trip(self):
        fp = sample_fp(trusted=True)
        assert loads_fingerprint(dumps_fingerprint(fp)) == fp

    def test_exact_layout(self):
        data = dumps_fingerprint(sample_fp()).decode()
        body, checksum_line, tail = data.rsplit("\n", 2)
        assert tail == ""
        assert body.split("\n") == [
            "edgemap-fingerprint v2",
            "digest abcdef0123456789",
            "trusted 0",
            "started 100",
            "finished 2200",
            "host 10.0.0.1 up",
            "rtt 400 500 900",
            "port 22 open",
            "port 23 filtered",
            "port 24 closed",
            "banner 22 " + b"SSH-2.0 unit\r\n".hex(),
            "host 10.0.0.2 silent",
            "end",
        ]
        stated = int(checksum_line.split()[1], 16)
        assert stated == zlib.crc32((body + "\n").encode())

    def test_each_run_of_one_state_is_one_line(self):
        states = [PortState.CLOSED] * 3 + [PortState.OPEN] + [PortState.FILTERED] * 5
        ports = {**dict(zip(range(1, 10), states)), 20: PortState.CLOSED, 21: PortState.CLOSED,
                 22: PortState.OPEN, 65535: PortState.OPEN}
        rec = HostRecord(ports=ports)
        fp = dataclasses.replace(sample_fp(), hosts={A("10.0.0.1"): rec})
        data = dumps_fingerprint(fp).decode()
        assert data.split("\n")[5:-3] == [
            "host 10.0.0.1 silent",
            "ports 1-3 closed",
            "port 4 open",
            "ports 5-9 filtered",
            "ports 20-21 closed",  # not joined with 1-3 across the unprobed ports
            "port 22 open",
            "port 65535 open",
        ]
        assert loads_fingerprint(data.encode()) == fp

    def test_serialization_is_canonical(self, rnd):
        for _ in range(20):
            fp = random_fingerprint(rnd)
            shuffled_hosts = list(fp.hosts.items())
            rnd.shuffle(shuffled_hosts)
            reordered = dataclasses.replace(fp, hosts=dict(shuffled_hosts))
            assert dumps_fingerprint(fp) == dumps_fingerprint(reordered)

    def test_round_trip_random(self, rnd):
        for _ in range(100):
            fp = random_fingerprint(rnd, trusted=rnd.random() < 0.5)
            assert loads_fingerprint(dumps_fingerprint(fp)) == fp


@st.composite
def host_records(draw):
    """A host with 0 to 65,535 ports, in one stretch with `gaps` ports left
    unprobed; states come from a drawn seed, since drawing 65,535 of them
    one by one is slow.  Each port keeps the state of the one below it with
    chance `stay`, so runs are short, long, or span the whole stretch."""
    alive = draw(st.sampled_from(["up", "silent"]))
    rtt = ()
    if alive == "up":
        rtt = tuple(draw(st.lists(st.integers(0, 10**7), min_size=1, max_size=4)))
    count = draw(st.integers(0, 65535))
    gaps = draw(st.integers(0, 65535 - count))
    lo = draw(st.integers(1, 65536 - count - gaps))
    stay = draw(st.sampled_from([0.0, 0.9, 0.999, 1.0]))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    states = []
    for _ in range(count):
        states.append(states[-1] if states and rnd.random() < stay
                      else rnd.choice(list(PortState)))
    ports = dict(zip(sorted(random.Random(count).sample(range(lo, lo + count + gaps), count)),
                     states))
    open_ports = sorted(p for p, state in ports.items() if state is PortState.OPEN)
    banners = {p: draw(st.binary(max_size=12)) for p in open_ports[:draw(st.integers(0, 4))]}
    return HostRecord(rtt_samples=rtt, ports=ports, banners=banners)


@st.composite
def fingerprints(draw):
    octets = draw(st.lists(st.integers(1, 254), max_size=3, unique=True))
    started = draw(st.integers(0, 2**63))
    return NetworkFingerprint(
        started_at=started, finished_at=started + draw(st.integers(0, 10**12)),
        config_digest=draw(st.integers(0, 2**64 - 1)),
        hosts={A(f"10.0.0.{o}"): draw(host_records()) for o in octets},
        trusted=draw(st.booleans()))


def seal(body: bytes) -> bytes:
    """A record of the body with a correct checksum trailer."""
    return body + f"checksum {zlib.crc32(body):08x}\n".encode()


class TestCodecProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fingerprints())
    @example(dataclasses.replace(sample_fp(), hosts={
        A("10.0.0.1"): HostRecord(rtt_samples=(5,),
                                  ports=dict.fromkeys(range(1, 65536), PortState.OPEN),
                                  banners={22: b""}),  # written as "banner 22 "
        A("10.0.0.2"): HostRecord()}))
    # hole-free stretches of mixed states, one over 1,024 ports, and one with a hole
    @example(dataclasses.replace(sample_fp(), hosts={
        A("10.0.0.1"): HostRecord(ports=dict(zip(range(1000, 3100),
                                                 itertools.cycle(PortState)))),
        A("10.0.0.2"): HostRecord(rtt_samples=(5,), ports=dict(zip(range(1, 1025),
                                                                   itertools.cycle(PortState)))),
        A("10.0.0.3"): HostRecord(ports={1: PortState.OPEN, 3: PortState.OPEN})}))
    def test_loads_inverts_dumps(self, fp):
        record = dumps_fingerprint(fp)
        assert loads_fingerprint(dumps_v1(fp)) == loads_fingerprint(record) == fp
        assert dumps_fingerprint(loads_fingerprint(record)) == record

    @pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
    def test_dumps_inverts_loads_on_the_pinned_records(self, name, tmp_path):
        run(["simulate", str(SCENARIOS / name), "--state-dir", str(tmp_path)] + backend(name))
        paths = sorted(tmp_path.glob("*.fp"))
        assert len(paths) == len(SIMULATE_SHA256[name][1])
        for path in paths:
            data = path.read_bytes()
            assert dumps_fingerprint(loads_fingerprint(data)) == data

    @settings(derandomize=True, max_examples=300)
    @given(st.data())
    def test_a_line_moved_out_of_its_place_is_corrupt(self, data):
        lines = dumps_fingerprint(sample_fp()).split(b"\n")[:-2]  # up to "end"
        movable = [i for i, line in enumerate(lines)
                   if line.split(b" ")[0] in (b"rtt", b"port", b"banner")]
        source = data.draw(st.sampled_from(movable))
        moved = lines[:source] + lines[source + 1:]
        moved.insert(data.draw(st.integers(0, len(moved))), lines[source])
        # the layout over the first letter of each line: five preamble
        # lines, then per host its host line, rtt, ports and banners
        kinds = bytes(line[0] for line in moved)
        assume(not re.fullmatch(rb"edtsf(hr?p*b*)*e", kinds))
        with pytest.raises(CorruptRecord):
            loads_fingerprint(seal(b"\n".join(moved) + b"\n"))


STATE_WORDS = [b"open", b"closed", b"filtered"]


def v1_stretch(count, lo=1, weights=None):
    """The v1 port lines of ports lo to lo + count - 1, in seeded states:
    uniform, or drawn with `weights(port)` of open, closed and filtered."""
    rnd = random.Random(count)
    return [b"port %d %s" % (port, rnd.choice(STATE_WORDS) if weights is None
                             else rnd.choices(STATE_WORDS, weights(port))[0])
            for port in range(lo, lo + count)]


def tied_stretch(count):
    """The v1 port lines of ports 1 to count, as many closed as filtered."""
    words = [b"closed", b"filtered"] * (count // 2)
    random.Random(count).shuffle(words)
    return [b"port %d %s" % (port, word) for port, word in enumerate(words, 1)]


def block_words(lines, index):
    """The most common state word in the 1,024-line block holding
    lines[index], and its least common one."""
    start = index - index % 1024
    counts = collections.Counter(line.rsplit(b" ", 1)[-1] for line in lines[start:start + 1024])
    return (max(STATE_WORDS, key=counts.__getitem__),
            min(STATE_WORDS, key=counts.__getitem__))


def v1_record(lines):
    """A v1 record of a host holding the lines, and a host after it."""
    preamble = dumps_v1(sample_fp()).split(b"host ")[0]
    body = [b"host 10.0.0.1 up", b"rtt 400", *lines,
            b"host 10.0.0.2 silent", b"port 22 open", b"banner 22 aa", b"end"]
    return seal(preamble + b"".join(line + b"\n" for line in body))


def load_outcome(data):
    """The fingerprint a record loads to, or its CorruptRecord message."""
    try:
        return loads_fingerprint(data)
    except CorruptRecord as exc:
        return f"CorruptRecord: {exc}"


def at(index, *new):
    """The edit that puts the lines `new` in place of as many lines from `index` on."""
    return lambda lines: lines[:index] + list(new) + lines[index + len(new):]


# edits of a stretch of port lines for ports 1 to len(lines)
V1_EDITS = {
    "unchanged": lambda lines: lines,
    "two lines swapped": lambda lines: lines[:500] + [lines[501], lines[500]] + lines[502:],
    "a line repeated": lambda lines: lines[:501] + lines[500:],
    "a line dropped": lambda lines: lines[:500] + lines[501:],
    "the first line dropped": lambda lines: lines[1:],
    "a state word missing": at(500, b"port 501"),
    "the last state word missing": lambda lines: lines[:-1] + [b"port %d" % len(lines)],
    "opened as a state": at(500, b"port 501 opened"),
    # a line with two state words and a line with none: the count of state
    # words matches, and cutting the words one kind at a time can leave
    # `port 101` of the first
    **{f"{first.decode()} {second.decode()} on a line, none on the next":
       at(100, b"port 101 %s %s" % (first, second), b"port 102")
       for first, second in itertools.permutations([b"open", b"closed", b"filtered"], 2)},
    "a port 0 line first": lambda lines: [b"port 0 open"] + lines,
    "port 022": at(21, b"port 022 closed"),
    "port 1_0": at(9, b"port 1_0 closed"),
    "port +5": at(4, b"port +5 closed"),
    "the first port +1": at(0, b"port +1 closed"),
    "the last port with an underscore":
        lambda lines: lines[:-1] + [b"port %s closed" % f"{len(lines):_}".encode()],
    # the bulk step rewrites the state words other than the block's most common one
    "open twice on a line": at(500, b"port 501 open open"),
    "a minority word, then the majority word":
        lambda lines: at(500, b"port 501 %s %s" % block_words(lines, 500)[::-1])(lines),
    "the majority word, then a minority word":
        lambda lines: at(500, b"port 501 %s %s" % block_words(lines, 500))(lines),
    "no space before the state word": at(500, b"port 501open"),
    "a minority word on the last line":
        lambda lines: lines[:-1] + [b"port %d %s" % (len(lines),
                                                      block_words(lines, len(lines) - 1)[1])],
    "a \\x01 byte inside a line": at(500, b"port 501 \x01open"),
    "a ports line inside": lambda lines: lines[:500] + [b"ports 501-503 closed"] + lines[503:],
    "a ports line after": lambda lines: lines + [b"ports %d-%d open" % (len(lines) + 1,
                                                                       len(lines) + 5)],
    "a six-digit port after": lambda lines: lines + [b"port 100000 open"],
    "a stretch through six-digit ports":
        lambda lines: v1_stretch(len(lines), lo=100000 - len(lines) // 2),
    "the stretch ending at port 65536":
        lambda lines: v1_stretch(len(lines), lo=65537 - len(lines)),
}


# stretches of ports from 1: uniform states, and shapes of real sweeps
STRETCHES = {
    "1024-ports": lambda: v1_stretch(1024),
    "65535-ports": lambda: v1_stretch(65535),
    "1024-ports-95pc-closed": lambda: v1_stretch(1024, weights=lambda port: (2, 95, 3)),
    "1024-ports-all-filtered": lambda: v1_stretch(1024, weights=lambda port: (0, 0, 1)),
    "1024-ports-closed-filtered-tie": lambda: tied_stretch(1024),
    # each 1,024-line block mostly open, closed or filtered in turn
    "65535-ports-block-majorities": lambda: v1_stretch(
        65535, weights=lambda port: [(90, 5, 5), (5, 90, 5), (5, 5, 90)][(port - 1) // 1024 % 3]),
}


@pytest.fixture(scope="module", params=STRETCHES.values(), ids=STRETCHES)
def stretch(request):
    return request.param()


@pytest.mark.parametrize("edit", V1_EDITS.values(), ids=V1_EDITS)
def test_the_v1_bulk_step_reads_what_the_per_line_reader_reads(stretch, edit, monkeypatch):
    """A v1 record loads, or is refused with the same message, whether its
    port lines go through the bulk step or only through the per-line
    reader, the reader the bulk step hands every other block to."""
    data = v1_record(edit(stretch))
    got = load_outcome(data)
    monkeypatch.setattr(store, "_v1_stretch", lambda data, pos: None)
    assert got == load_outcome(data)


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 65535])
def test_the_v1_bulk_step_reads_a_consecutive_stretch(count):
    lines = v1_stretch(count)
    data = v1_record(lines)
    pos = data.index(b"port 1 ")
    first, codes, end = store._v1_stretch(data, pos)
    states = [line.split()[2].decode() for line in lines]
    assert (first, bytes(codes)) == (1, bytes(map(PORT_CODES.get, states)))
    assert data.startswith(b"host 10.0.0.2 ", end)
    (rec, _) = loads_fingerprint(data).hosts.values()
    assert rec.ports == dict(zip(range(1, count + 1), map(PortState, states)))


def test_the_v1_bulk_step_reads_each_stretch(stretch):
    """The bulk step reads every fixture stretch itself, whatever its
    blocks' most common states, rather than handing it on."""
    data = v1_record(stretch)
    first, codes, end = store._v1_stretch(data, data.index(b"port 1 "))
    states = [line.split()[2].decode() for line in stretch]
    assert (first, bytes(codes)) == (1, bytes(map(PORT_CODES.get, states)))
    assert data.startswith(b"host 10.0.0.2 ", end)


# every V1_EDITS x STRETCHES outcome of the per-line reader alone, captured
# when that reader matched up to 1,024 port lines at once
PER_LINE_OUTCOMES_SHA256 = "3b83bab73aa06d0a599036d52f45150ff913036efd4c1505c032e3352320f001"


def test_the_v1_per_line_reader_keeps_every_outcome(monkeypatch):
    """Each edited stretch loads through the per-line reader alone to the
    same record bytes, or is refused with the same message, as pinned."""
    monkeypatch.setattr(store, "_v1_stretch", lambda data, pos: None)
    digest = hashlib.sha256()
    for make in STRETCHES.values():
        lines = make()
        for edit in V1_EDITS.values():
            try:
                outcome = dumps_fingerprint(loads_fingerprint(v1_record(edit(lines))))
            except CorruptRecord as exc:
                outcome = f"CorruptRecord: {exc}".encode()
            digest.update(b"%d:%s\n" % (len(outcome), outcome))
    assert digest.hexdigest() == PER_LINE_OUTCOMES_SHA256


def random_hosts(count, ports):
    """`count` up hosts, each with `ports` ports from 1 in random states,
    and a banner on every open port up to 1024."""
    rnd = random.Random(count)
    hosts = {}
    for i in range(1, count + 1):
        states = {p: rnd.choice(list(PortState)) for p in range(1, ports + 1)}
        banners = {p: b"svc %d\r\n" % p for p, state in states.items()
                   if state is PortState.OPEN and p <= 1024}
        hosts[A(f"10.0.0.{i}")] = HostRecord(rtt_samples=(300, 310, 320),
                                             ports=states, banners=banners)
    return NetworkFingerprint(started_at=0, finished_at=1, config_digest=1, hosts=hosts)


def traced_load(data):
    """The fingerprint of a record, the memory that stays allocated after
    loading it, and the most the load allocated beyond that."""
    tracemalloc.start()
    try:
        fp = loads_fingerprint(data)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return fp, held, peak - held


def test_loading_allocates_little_beyond_the_fingerprint():
    """A 16-host x 1024-port record: besides what the fingerprint holds,
    loading allocates at most three times the record's size."""
    expected = random_hosts(16, 1024)
    data = dumps_fingerprint(expected)
    fp, _, transient = traced_load(data)
    assert fp == expected
    assert transient <= 3 * len(data)


@pytest.mark.parametrize("count, ports", [(16, 1024), (1, 65535)])
def test_loading_a_v1_record_allocates_little_beyond_the_fingerprint(count, ports):
    """The same bound for a v1 record, whose port lines the loader reads
    1,024 at a time; and after the load it holds at most 64 KB more than
    after loading the v2 record of the same fingerprint."""
    expected = random_hosts(count, ports)
    data = dumps_v1(expected)
    store._v1_block.cache_clear()  # so the blocks the load keeps count as held
    fp, held, transient = traced_load(data)
    _, held_v2, _ = traced_load(dumps_fingerprint(expected))
    assert fp == expected
    assert transient <= 3 * len(data)
    assert held <= held_v2 + 64 * 1024


def test_a_loaded_record_holds_its_port_states_in_a_byte_a_port():
    """A 64-host x 1,024-port record: the loaded fingerprint holds at most
    256 KB, and writing it back allocates at most 2.5 times its size."""
    rnd = random.Random(64)
    hosts = {}
    for i in range(1, 65):
        states = rnd.choices(list(PortState), weights=[1, 30, 70], k=1024)
        ports = dict(zip(range(1, 1025), states))
        banners = {p: b"svc %d\r\n" % p for p, state in ports.items()
                   if state is PortState.OPEN and rnd.random() < 0.5}
        hosts[A(f"10.0.0.{i}")] = HostRecord(rtt_samples=(300, 310, 320),
                                             ports=ports, banners=banners)
    data = dumps_fingerprint(NetworkFingerprint(started_at=0, finished_at=1,
                                                config_digest=1, hosts=hosts))
    tracemalloc.start()
    try:
        fp = loads_fingerprint(data)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        written = dumps_fingerprint(fp)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert written == data
    assert held <= 256 * 1024
    assert peak <= 2.5 * len(data)


class TestCorruptionDetection:
    def test_single_byte_flips_are_caught(self, rnd):
        data = dumps_fingerprint(sample_fp(trusted=True))
        for _ in range(300):
            idx = rnd.randrange(len(data))
            new = rnd.randrange(256)
            if new == data[idx]:
                continue
            mutated = data[:idx] + bytes([new]) + data[idx + 1:]
            with pytest.raises(CorruptRecord):
                loads_fingerprint(mutated)

    def test_truncation_is_caught(self, rnd):
        data = dumps_fingerprint(sample_fp())
        for cut in (1, 10, len(data) // 2, len(data) - 1):
            with pytest.raises(CorruptRecord):
                loads_fingerprint(data[:-cut])

    @pytest.mark.parametrize("data", [
        b"",
        b"\n",
        b"not a fingerprint\n",
        b"\xff\xfe binary junk\n",
    ])
    def test_garbage_is_caught(self, data):
        with pytest.raises(CorruptRecord):
            loads_fingerprint(data)

    def test_valid_checksum_invalid_structure_is_caught(self):
        # a structurally broken body with a freshly correct checksum
        body = (b"edgemap-fingerprint v1\n"
                b"digest 00000000000000ff\n"
                b"trusted 1\n"
                b"started 9\n"
                b"finished 1\n"  # finished < started
                b"end\n")
        data = body + f"checksum {zlib.crc32(body):08x}\n".encode()
        with pytest.raises(CorruptRecord):
            loads_fingerprint(data)


    @pytest.mark.parametrize("blocks, error", [
        # one host in two blocks, its ports out of order in the first
        ([b"host 10.0.0.2 up", b"rtt 400", b"port 23 open", b"port 22 closed",
          b"host 10.0.0.2 silent"],
         "ports of host 10.0.0.2 repeated or out of ascending order"),
        ([b"host 10.0.0.2 silent", b"port 22 open", b"host 10.0.0.2 silent"],
         "host 10.0.0.2 named twice"),
        ([b"host 10.0.0.2 silent", b"host 10.0.0.1 silent"],
         "host 10.0.0.1 out of ascending address order"),
        ([b"host 10.0.0.2 silent", b"port 22 open", b"port 22 open"],
         "ports of host 10.0.0.2 repeated or out of ascending order"),
        # the second run of port lines starts below the end of the first
        ([b"host 10.0.0.2 silent"] + [b"port %d closed" % p for p in range(1, 1025)]
         + [b"port 1000 open"],
         "ports of host 10.0.0.2 repeated or out of ascending order"),
        ([b"host 10.0.0.2 silent", b"port 22 open", b"banner 22 aa", b"banner 22 bb"],
         "banners of host 10.0.0.2 repeated or out of ascending order"),
        ([b"host 10.0.0.2 silent", b"port 22 open", b"port 23 open", b"banner 23 aa",
          b"banner 22 bb"],
         "banners of host 10.0.0.2 repeated or out of ascending order"),
        ([b"host 10.0.0.2 silent", b"port 0 open"],
         "invalid host record for 10.0.0.2: ports 0..0 outside 1-65535"),
        ([b"host 10.0.0.2 silent", b"port 22 open", b"port 65536 open"],
         "invalid host record for 10.0.0.2: ports 22..65536 outside 1-65535"),
    ])
    def test_hosts_and_ports_must_ascend(self, blocks, error):
        preamble = dumps_v1(sample_fp()).split(b"host ")[0]
        with pytest.raises(CorruptRecord, match=f"^{re.escape(error)}$"):
            loads_fingerprint(seal(preamble + b"".join(line + b"\n" for line in blocks)
                                   + b"end\n"))

    @pytest.mark.parametrize("old, new, error", [
        (b"edgemap-fingerprint v2\n", b"edgemap-fingerprint v3\n",
         "bad header line 'edgemap-fingerprint v3'"),
        (b"end\n", b"", "record missing end marker"),
        (b"end\n", b"bogus\nend\n", "unexpected line 'bogus'"),
        (b"host 10.0.0.1 up", b"host 10.0.0.256 up", "bad host address '10.0.0.256'"),
    ])
    def test_the_error_names_what_is_wrong(self, old, new, error):
        body = dumps_fingerprint(sample_fp()).rsplit(b"checksum", 1)[0]
        with pytest.raises(CorruptRecord, match=f"^{re.escape(error)}$"):
            loads_fingerprint(seal(body.replace(old, new)))


    # each one loaded before the loader matched numbers and the trailer
    # exactly as the writer writes them
    @pytest.mark.parametrize("old, new", [
        (b"started 100\n", b"started 01\n"),
        (b"finished 2200\n", b"finished 02200\n"),
        (b"rtt 400 ", b"rtt 0400 "),
        (b"port 22 open", b"port 022 open"),
        (b"banner 22 ", b"banner 022 "),
    ])
    def test_a_number_with_a_leading_zero_is_caught(self, old, new):
        body = dumps_v1(sample_fp()).rsplit(b"checksum", 1)[0]
        assert old in body
        with pytest.raises(CorruptRecord):
            loads_fingerprint(seal(body.replace(old, new)))

    @pytest.mark.parametrize("runs, error", [
        ([b"ports 22-24 open", b"ports 25-30 open"],
         "port run of host 10.0.0.2 split at port 25"),
        ([b"port 22 open", b"ports 23-24 open"], "port run of host 10.0.0.2 split at port 23"),
        ([b"ports 22-24 open", b"port 25 open"], "port run of host 10.0.0.2 split at port 25"),
        ([b"port 22 open", b"port 23 open"], "port run of host 10.0.0.2 split at port 23"),
        ([b"ports 22-30 open", b"ports 25-40 closed"],
         "ports of host 10.0.0.2 repeated or out of ascending order"),
        ([b"ports 40-50 open", b"ports 22-30 closed"],
         "ports of host 10.0.0.2 repeated or out of ascending order"),
        ([b"ports 22-30 open", b"port 30 closed"],
         "ports of host 10.0.0.2 repeated or out of ascending order"),
        ([b"ports 30-22 open"],
         "port run 30-22 of host 10.0.0.2 is not two or more ascending ports"),
        ([b"ports 22-22 open"],
         "port run 22-22 of host 10.0.0.2 is not two or more ascending ports"),
        ([b"ports 022-30 open"], "bad port line 'ports 022-30 open' of host 10.0.0.2"),
        ([b"ports 22-030 open"], "bad port line 'ports 22-030 open' of host 10.0.0.2"),
        ([b"port 022 open"], "bad port line 'port 022 open' of host 10.0.0.2"),
        ([b"port 0 open"], "bad port line 'port 0 open' of host 10.0.0.2"),
        ([b"ports 0-9 open"], "bad port line 'ports 0-9 open' of host 10.0.0.2"),
        ([b"port 22 open", b"port 100000 open"],
         "bad port line 'port 100000 open' of host 10.0.0.2"),
        ([b"ports 65530-65536 open"],
         "invalid host record for 10.0.0.2: ports 65530..65536 outside 1-65535"),
        ([b"ports 22-24 opened"], "bad port line 'ports 22-24 opened' of host 10.0.0.2"),
    ])
    def test_a_port_run_not_as_written_is_caught(self, runs, error):
        preamble = dumps_fingerprint(sample_fp()).split(b"host ")[0]
        body = preamble + b"".join(line + b"\n" for line in [b"host 10.0.0.2 silent", *runs])
        with pytest.raises(CorruptRecord, match=f"^{re.escape(error)}$"):
            loads_fingerprint(seal(body + b"end\n"))

    @pytest.mark.parametrize("version", [b"v1", b"v2"])
    @pytest.mark.parametrize("lines, error", [
        ([b"host 10.0.0.2 up", b"port 22 open"], "unexpected line 'host 10.0.0.2 up'"),
        ([b"host 10.0.0.2 silent", b"rtt 400", b"port 22 open"], "unexpected line 'rtt 400'"),
        ([b"host 10.0.0.2 down"], "unexpected line 'host 10.0.0.2 down'"),
    ])
    def test_a_host_line_its_rtt_line_disagrees_with_is_caught(self, version, lines, error):
        # an up host has exactly one rtt line, a silent one none, and no
        # other state is written
        preamble = dumps_fingerprint(sample_fp()).split(b"host ")[0]
        preamble = preamble.replace(b"fingerprint v2", b"fingerprint " + version)
        body = b"".join(line + b"\n" for line in [b"host 10.0.0.1 silent", *lines, b"end"])
        with pytest.raises(CorruptRecord, match=f"^{re.escape(error)}$"):
            loads_fingerprint(seal(preamble + body))

    def test_runs_apart_may_share_a_state(self):
        preamble = dumps_fingerprint(sample_fp()).split(b"host ")[0]
        body = preamble + b"host 10.0.0.2 silent\nports 22-30 open\nport 32 open\nend\n"
        (rec,) = loads_fingerprint(seal(body)).hosts.values()
        assert rec.ports == dict.fromkeys([*range(22, 31), 32], PortState.OPEN)

    @pytest.mark.parametrize("trailer", [
        "checksum %08X\n", "checksum 0x%08x\n", "checksum +%08x\n",
        "checksum  %08x\n", "checksum %08x \n", "checksum 0%08x\n",
    ])
    def test_a_checksum_not_as_written_is_caught(self, trailer):
        data = dumps_fingerprint(sample_fp())
        body = data.rsplit(b"checksum", 1)[0]
        mutated = body + (trailer % zlib.crc32(body)).encode()
        assert mutated != data  # the sample's checksum has hex letters
        with pytest.raises(CorruptRecord, match="^unreadable checksum line$"):
            loads_fingerprint(mutated)


class TestFingerprintStore:
    def test_save_and_load_trusted(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp(trusted=True)
        store.save_trusted(fp)
        assert store.has_trusted(fp.config_digest)
        assert store.load_trusted(fp.config_digest) == fp

    def test_trusted_is_write_once(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp(trusted=True)
        store.save_trusted(fp)
        with pytest.raises(TrustedAlreadyExists):
            store.save_trusted(fp)
        assert len(list(tmp_path.iterdir())) == 1

    def test_the_store_marks_the_baseline_trusted(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp(trusted=False)
        store.save_trusted(fp)
        path = tmp_path / f"{fp.config_digest:016x}.trusted.fp"
        assert path.read_bytes() == dumps_fingerprint(dataclasses.replace(fp, trusted=True))
        assert store.load_trusted(fp.config_digest) == dataclasses.replace(fp, trusted=True)

    def test_epoch_history_and_latest(self, tmp_path):
        store = FingerprintStore(tmp_path)
        first = sample_fp()
        second = dataclasses.replace(first, finished_at=9999)
        store.save_epoch(first, 1)
        store.save_epoch(second, 2)
        assert store.resume_epochs(first.config_digest, KEEP_EPOCHS) == 3
        assert read_epoch(tmp_path, first.config_digest, 1) == first
        assert read_epoch(tmp_path, first.config_digest, 2) == second

    def test_latest_is_by_epoch_number_not_by_name(self, tmp_path):
        # "epoch1000000" sorts before "epoch999999" as a name
        store = FingerprintStore(tmp_path)
        first = sample_fp()
        second = dataclasses.replace(first, finished_at=9999)
        assert store.resume_epochs(first.config_digest, KEEP_EPOCHS) == 1
        store.save_epoch(first, 999_999)
        store.save_epoch(second, 1_000_000)
        assert store.resume_epochs(first.config_digest, KEEP_EPOCHS) == 1_000_001
        assert read_epoch(tmp_path, first.config_digest, 1_000_000) == second

    def test_resume_keeps_the_window_and_numbers_on(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp()
        digest = fp.config_digest
        for epoch in range(1, 6):
            store.save_epoch(fp, epoch)
        store.save_epoch(dataclasses.replace(fp, config_digest=digest + 1), 1)
        # a cut epoch write, numbered above every stored epoch, and the
        # trusted record's temp file, which a concurrent rebaseline may own
        (tmp_path / f"{digest:016x}.epoch000009.tmp").write_bytes(b"cut")
        (tmp_path / f"{digest:016x}.trusted.tmp").write_bytes(b"in flight")
        assert store.resume_epochs(digest, keep=3) == 6
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{digest:016x}.epoch000004.fp", f"{digest:016x}.epoch000005.fp",
            f"{digest:016x}.trusted.tmp", f"{digest + 1:016x}.epoch000001.fp"]
        assert FingerprintStore(tmp_path / "empty").resume_epochs(digest, keep=3) == 1

    def test_missing_records_raise_not_found(self, tmp_path):
        store = FingerprintStore(tmp_path)
        with pytest.raises(NotFound):
            store.load_trusted(1)

    def test_only_a_forced_save_replaces_the_baseline(self, tmp_path):
        store = FingerprintStore(tmp_path)
        old = sample_fp(trusted=True)
        new = dataclasses.replace(old, finished_at=9999)
        store.save_trusted(old)
        with pytest.raises(TrustedAlreadyExists):
            store.save_trusted(new)
        assert store.load_trusted(old.config_digest) == old
        store.save_trusted(new, force=True)
        assert store.load_trusted(old.config_digest) == new
        assert [path.name for path in tmp_path.iterdir()] == [
            f"{old.config_digest:016x}.trusted.fp"]

    def test_a_failed_replacement_leaves_the_old_baseline(self, tmp_path, monkeypatch):
        # the new record is written beside the old one and renamed over it;
        # a failed write removes that temp file again
        store = FingerprintStore(tmp_path)
        old = sample_fp(trusted=True)
        store.save_trusted(old)
        path = tmp_path / f"{old.config_digest:016x}.trusted.fp"
        before = path.read_bytes()

        def cut(*args):
            raise OSError("power cut")

        monkeypatch.setattr(os, "replace", cut)
        with pytest.raises(OSError):
            store.save_trusted(dataclasses.replace(old, finished_at=9999), force=True)
        with pytest.raises(OSError):
            store.save_epoch(old, 1)
        monkeypatch.setattr(os, "fsync", cut)  # now the write fails before the rename
        with pytest.raises(OSError):
            store.save_trusted(dataclasses.replace(old, finished_at=9999), force=True)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_record_under_another_digest_raises(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp(trusted=True)
        store.save_trusted(fp)
        other = fp.config_digest ^ 1
        os.rename(tmp_path / f"{fp.config_digest:016x}.trusted.fp",
                  tmp_path / f"{other:016x}.trusted.fp")
        with pytest.raises(CorruptRecord, match="stored digest does not match filename"):
            store.load_trusted(other)

    def test_corrupt_file_on_disk_raises(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp(trusted=True)
        store.save_trusted(fp)
        path = tmp_path / f"{fp.config_digest:016x}.trusted.fp"
        path.write_bytes(path.read_bytes()[:-5] + b"XXXX\n")
        with pytest.raises(CorruptRecord):
            store.load_trusted(fp.config_digest)

    def test_trusted_record_without_the_trusted_flag_raises(self, tmp_path):
        # a well-formed record, checksum and all, that says trusted 0
        store = FingerprintStore(tmp_path)
        fp = sample_fp()
        (tmp_path / f"{fp.config_digest:016x}.trusted.fp").write_bytes(dumps_fingerprint(fp))
        with pytest.raises(CorruptRecord, match="not marked trusted"):
            store.load_trusted(fp.config_digest)

    def test_no_temp_files_left_behind(self, tmp_path):
        store = FingerprintStore(tmp_path)
        store.save_trusted(sample_fp(trusted=True))
        store.save_epoch(sample_fp(), 1)
        assert not list(tmp_path.glob("*.tmp"))

    def test_only_the_trusted_record_is_synced(self, tmp_path, monkeypatch):
        # the trusted file and then its directory entry; an epoch file's CRC
        # trailer already turns a torn write into CorruptRecord
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(os.fstat(fd).st_mode))
        store = FingerprintStore(tmp_path)
        store.save_trusted(sample_fp(trusted=True))
        assert [stat.S_IFMT(mode) for mode in synced] == [stat.S_IFREG, stat.S_IFDIR]
        store.save_epoch(sample_fp(), 1)
        assert len(synced) == 2
