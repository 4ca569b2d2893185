import dataclasses
import ipaddress
import random
import zlib

import pytest

from edgemap.errors import CorruptRecord, NotFound, TrustedAlreadyExists
from edgemap.model import Alive, HostRecord, NetworkFingerprint, PortState
from edgemap.store import (FingerprintStore, dumps_fingerprint,
                           loads_fingerprint)
from conftest import random_fingerprint

A = ipaddress.IPv4Address


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
        assert store.load_latest(first.config_digest) == second

    def test_latest_is_by_epoch_number_not_by_name(self, tmp_path):
        # "epoch1000000" sorts before "epoch999999" as a name
        store = FingerprintStore(tmp_path)
        first = sample_fp()
        second = dataclasses.replace(first, finished_at=9999)
        assert store.latest_epoch(first.config_digest) == 0
        store.save_epoch(first, 999_999)
        store.save_epoch(second, 1_000_000)
        assert store.latest_epoch(first.config_digest) == 1_000_000
        assert store.load_latest(first.config_digest) == second

    def test_missing_records_raise_not_found(self, tmp_path):
        store = FingerprintStore(tmp_path)
        with pytest.raises(NotFound):
            store.load_trusted(1)
        with pytest.raises(NotFound):
            store.load_latest(1)
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

    def test_no_temp_files_left_behind(self, tmp_path):
        store = FingerprintStore(tmp_path)
        store.save_trusted(sample_fp(trusted=True))
        store.save_epoch(sample_fp(), 1)
        assert not list(tmp_path.glob("*.tmp"))
