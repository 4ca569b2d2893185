import ipaddress
import random

import pytest

from edgemap.model import (AddressRange, HostRecord, NetworkFingerprint,
                           PortState, ScanConfig)


def small_config(**overrides) -> ScanConfig:
    defaults = dict(
        address_range=AddressRange.parse("10.0.0.1-10.0.0.6"),
        port_range=(1, 16),
        startup_delay_min=0,
        startup_delay_max=0,
        rescan_interval=30_000_000,
        seed=7,
    )
    defaults.update(overrides)
    return ScanConfig(**defaults)


def random_host_record(rnd: random.Random, port_lo=1, port_hi=16) -> HostRecord:
    alive = rnd.choice(["up", "up", "silent"])
    rtt = tuple(rnd.randrange(200, 5000) for _ in range(3)) if alive == "up" else ()
    ports = {}
    banners = {}
    if alive == "up" or rnd.random() < 0.5:
        for port in range(port_lo, port_hi + 1):
            state = rnd.choices(
                [PortState.CLOSED, PortState.OPEN, PortState.FILTERED],
                weights=[8, 2, 1])[0]
            ports[port] = state
            if state is PortState.OPEN and rnd.random() < 0.5:
                banners[port] = bytes(rnd.randrange(32, 127) for _ in range(rnd.randrange(1, 24)))
    return HostRecord(rtt_samples=rtt, ports=ports, banners=banners)


def random_fingerprint(rnd: random.Random, digest: int = 0x1234,
                       base="10.0.1.", max_hosts=6, trusted=False) -> NetworkFingerprint:
    hosts = {}
    for i in rnd.sample(range(1, 30), rnd.randrange(0, max_hosts + 1)):
        addr = ipaddress.IPv4Address(f"{base}{i}")
        hosts[addr] = random_host_record(rnd)
    start = rnd.randrange(0, 10_000_000)
    return NetworkFingerprint(started_at=start,
                              finished_at=start + rnd.randrange(0, 60_000_000),
                              config_digest=digest, hosts=hosts, trusted=trusted)


@pytest.fixture
def rnd():
    return random.Random(0xED6E)
