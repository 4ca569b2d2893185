import dataclasses
import ipaddress
import os
import random
import re
import stat
import tracemalloc
import zlib

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from edgemap.errors import CorruptRecord, NotFound, TrustedAlreadyExists
from edgemap.model import Alive, HostRecord, NetworkFingerprint, PortState
from edgemap.store import (FingerprintStore, dumps_fingerprint,
                           loads_fingerprint)
from conftest import random_fingerprint
from test_golden import SCENARIOS, SIMULATE_SHA256, backend, run

A = ipaddress.IPv4Address


def read_epoch(directory, digest, epoch):
    """The fingerprint of one stored epoch, read back from its file."""
    return loads_fingerprint((directory / f"{digest:016x}.epoch{epoch:06d}.fp").read_bytes())


def sample_fp(trusted=False):
    rec1 = HostRecord(address=A("10.0.0.1"), alive=Alive.UP,
                      rtt_samples=(400, 500, 900),
                      ports={22: PortState.OPEN, 23: PortState.FILTERED,
                             24: PortState.CLOSED},
                      banners={22: b"SSH-2.0 unit\r\n"})
    rec2 = HostRecord(address=A("10.0.0.2"), alive=Alive.SILENT_UP)
    return NetworkFingerprint(started_at=100, finished_at=2200,
                              config_digest=0xABCDEF0123456789,
                              hosts={rec1.address: rec1, rec2.address: rec2},
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
            "edgemap-fingerprint v1",
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
def host_records(draw, address):
    """A host with 0 to 65,535 ports; states come from a drawn seed, since
    drawing 65,535 of them one by one is slow."""
    alive = draw(st.sampled_from([Alive.UP, Alive.SILENT_UP]))
    rtt = ()
    if alive is Alive.UP:
        rtt = tuple(draw(st.lists(st.integers(0, 10**7), min_size=1, max_size=4)))
    count = draw(st.integers(0, 65535))
    states = random.Random(draw(st.integers(0, 2**32))).choices(list(PortState), k=count)
    ports = dict(zip(random.Random(count).sample(range(1, 65536), count), states))
    open_ports = sorted(p for p, state in ports.items() if state is PortState.OPEN)
    banners = {p: draw(st.binary(max_size=12)) for p in open_ports[:draw(st.integers(0, 4))]}
    return HostRecord(address=address, alive=alive, rtt_samples=rtt,
                      ports=ports, banners=banners)


@st.composite
def fingerprints(draw):
    octets = draw(st.lists(st.integers(1, 254), max_size=3, unique=True))
    started = draw(st.integers(0, 2**63))
    return NetworkFingerprint(
        started_at=started, finished_at=started + draw(st.integers(0, 10**12)),
        config_digest=draw(st.integers(0, 2**64 - 1)),
        hosts={A(f"10.0.0.{o}"): draw(host_records(A(f"10.0.0.{o}"))) for o in octets},
        trusted=draw(st.booleans()))


def seal(body: bytes) -> bytes:
    """A record of the body with a correct checksum trailer."""
    return body + f"checksum {zlib.crc32(body):08x}\n".encode()


class TestCodecProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(fingerprints())
    @example(dataclasses.replace(sample_fp(), hosts={
        A("10.0.0.1"): HostRecord(address=A("10.0.0.1"), alive=Alive.UP, rtt_samples=(5,),
                                  ports=dict.fromkeys(range(1, 65536), PortState.OPEN),
                                  banners={22: b""}),  # written as "banner 22 "
        A("10.0.0.2"): HostRecord(address=A("10.0.0.2"), alive=Alive.SILENT_UP)}))
    def test_loads_inverts_dumps(self, fp):
        assert loads_fingerprint(dumps_fingerprint(fp)) == fp

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


def test_loading_allocates_little_beyond_the_fingerprint():
    """A 16-host x 1024-port record: besides what the fingerprint holds,
    loading allocates at most three times the record's size."""
    rnd = random.Random(16)
    hosts = {}
    for i in range(1, 17):
        ports = {p: rnd.choice(list(PortState)) for p in range(1, 1025)}
        banners = {p: b"svc %d\r\n" % p for p, state in ports.items() if state is PortState.OPEN}
        hosts[A(f"10.0.0.{i}")] = HostRecord(address=A(f"10.0.0.{i}"), alive=Alive.UP,
                                             rtt_samples=(300, 310, 320),
                                             ports=ports, banners=banners)
    data = dumps_fingerprint(NetworkFingerprint(started_at=0, finished_at=1,
                                                config_digest=1, hosts=hosts))
    tracemalloc.start()
    try:
        fp = loads_fingerprint(data)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fp.hosts == hosts
    assert peak - held <= 3 * len(data)


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
        hosts[A(f"10.0.0.{i}")] = HostRecord(address=A(f"10.0.0.{i}"), alive=Alive.UP,
                                             rtt_samples=(300, 310, 320),
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
        preamble = dumps_fingerprint(sample_fp()).split(b"host ")[0]
        with pytest.raises(CorruptRecord, match=f"^{re.escape(error)}$"):
            loads_fingerprint(seal(preamble + b"".join(line + b"\n" for line in blocks)
                                   + b"end\n"))

    @pytest.mark.parametrize("old, new, error", [
        (b"edgemap-fingerprint v1\n", b"edgemap-fingerprint v2\n",
         "bad header line 'edgemap-fingerprint v2'"),
        (b"end\n", b"", "record missing end marker"),
        (b"end\n", b"bogus\nend\n", "unexpected line 'bogus'"),
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
        body = dumps_fingerprint(sample_fp()).rsplit(b"checksum", 1)[0]
        assert old in body
        with pytest.raises(CorruptRecord):
            loads_fingerprint(seal(body.replace(old, new)))

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

    def test_untrusted_fingerprint_rejected_as_baseline(self, tmp_path):
        with pytest.raises(ValueError):
            FingerprintStore(tmp_path).save_trusted(sample_fp(trusted=False))

    def test_epoch_history_and_latest(self, tmp_path):
        store = FingerprintStore(tmp_path)
        first = sample_fp()
        second = dataclasses.replace(first, finished_at=9999)
        store.save_epoch(first, 1)
        store.save_epoch(second, 2)
        assert store.latest_epoch(first.config_digest) == 2
        assert read_epoch(tmp_path, first.config_digest, 1) == first
        assert read_epoch(tmp_path, first.config_digest, 2) == second

    def test_latest_is_by_epoch_number_not_by_name(self, tmp_path):
        # "epoch1000000" sorts before "epoch999999" as a name
        store = FingerprintStore(tmp_path)
        first = sample_fp()
        second = dataclasses.replace(first, finished_at=9999)
        assert store.latest_epoch(first.config_digest) == 0
        store.save_epoch(first, 999_999)
        store.save_epoch(second, 1_000_000)
        assert store.latest_epoch(first.config_digest) == 1_000_000
        assert read_epoch(tmp_path, first.config_digest, 1_000_000) == second

    def test_missing_records_raise_not_found(self, tmp_path):
        store = FingerprintStore(tmp_path)
        with pytest.raises(NotFound):
            store.load_trusted(1)
        with pytest.raises(NotFound):
            store.delete_trusted(1)

    def test_delete_trusted_enables_rebaseline(self, tmp_path):
        store = FingerprintStore(tmp_path)
        fp = sample_fp(trusted=True)
        store.save_trusted(fp)
        store.delete_trusted(fp.config_digest)
        store.save_trusted(fp)  # no TrustedAlreadyExists after delete
        assert store.has_trusted(fp.config_digest)

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
