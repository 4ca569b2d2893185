"""End-to-end acceptance checks for the scanning and detection toolkit.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (bypassing capture) so the run log shows the verdict per
criterion at a glance.
"""

import dataclasses
import functools
import io
import ipaddress
import random
import sys
import time
from pathlib import Path

import pytest
import scipy.stats

from edgemap import cli
from edgemap.errors import CorruptRecord
from edgemap.model import (AddressRange, HostRecord, PortState)
from edgemap.probe import full_sweep
from edgemap.rng import Prng
from edgemap.scenario import load as load_scenario
from edgemap.scheduler import make_schedule
from edgemap.simnet import SimHostSpec, SimNetwork
from edgemap.store import dumps_fingerprint, loads_fingerprint
from edgemap.transport import DISCOVERY_CLASSES, TCP_CLASSES
from conftest import random_fingerprint, small_config
from oracles import brute_force_diff, event_tuples

A = ipaddress.IPv4Address
SEC = 1_000_000
ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {number} FAIL: {title}", file=sys.__stdout__)
                raise
            print(f"CRITERION {number} PASS: {title}", file=sys.__stdout__)
        return run
    return wrap


def simulate(scenario, conf, *extra):
    out = io.StringIO()
    code = cli.main(["simulate", str(scenario), "--config", str(conf),
                     "--rates", "none", *extra], out=out)
    assert code == 0
    return out.getvalue()


def tags_of(text):
    (line,) = [l for l in text.splitlines() if l.startswith("tags ")]
    return line[5:]


@criterion(1, "scenario detection matrix reproduced exactly")
def test_criterion_1_scenario_matrix():
    expected = {
        "01-node-removed.scn": "NodeRemoved",
        "02-service-changed.scn": "ServiceChanged",
        "03-new-device.scn": "NewDevice",
        "04-mitm.scn": "MitmSuspected",
        "04-mitm-below.scn": "None",
        "05-stealth.scn": "None",
    }
    started = time.monotonic()
    for name, tag in expected.items():
        text = simulate(SCENARIOS / name, SCENARIOS / "sim.conf")
        assert tags_of(text) == tag, f"{name}: got tags {tags_of(text)!r}"
    assert time.monotonic() - started < 30.0


def _ten_host_sweep(ports=(1, 512)):
    cfg = small_config(address_range=AddressRange.parse("10.0.0.1-10.0.0.10"),
                       port_range=ports)
    net = load_scenario(SCENARIOS / "rates-10host.scn").build(seed=7)
    schedule = make_schedule(cfg, Prng(cfg.seed))
    full_sweep(cfg, net, schedule)
    return net.counters


@criterion(2, "discovery <= 4 pkt/s and TCP <= 25 pkt/s every second")
def test_criterion_2_rate_ceilings():
    counters = _ten_host_sweep()
    seconds = counters.seconds()
    assert seconds, "sweep produced no traffic"
    violations = [
        (sec, counters.second_count(sec, DISCOVERY_CLASSES),
         counters.second_count(sec, TCP_CLASSES))
        for sec in seconds
        if counters.second_count(sec, DISCOVERY_CLASSES) > 4
        or counters.second_count(sec, TCP_CLASSES) > 25
    ]
    assert violations == []


@criterion(3, "byte accounting exact; SYN-scan peak is 25 pkt/s at 1500 B/s")
def test_criterion_3_byte_accounting():
    counters = _ten_host_sweep()
    for cls in ("arp_request", "arp_reply"):
        assert counters.bytes[cls] == 60 * counters.counts[cls]
    for cls in ("icmp_request", "icmp_reply"):
        assert counters.bytes[cls] == 74 * counters.counts[cls]
    for cls in ("tcp_syn", "tcp_synack", "tcp_ack", "tcp_rst", "tcp_fin"):
        assert counters.bytes[cls] == 60 * counters.counts[cls]
    # the two bannered services in the scenario, once each: 29+66 and 15+66
    assert counters.counts["banner_data"] == 2
    assert counters.bytes["banner_data"] == (29 + 66) + (15 + 66)

    text = simulate(SCENARIOS / "peak-syn.scn", SCENARIOS / "peak.conf",
                    "--epochs", "0")
    (peak,) = [l for l in text.splitlines() if l.startswith("peak ")]
    assert "tcp_pps=25" in peak and "tcp_bytes_per_s=1500" in peak, peak


@criterion(4, "all probes of a 1024-port sweep follow the message flowchart")
def test_criterion_4_message_sequences():
    open_plain = {3, 200, 707, 1024}
    open_banner = {22: b"SSH-2.0 svc\r\n", 500: b"hello\r\n"}
    spec = SimHostSpec(address=A("10.0.0.1"), base_rtt=400,
                       open_ports={**{p: None for p in open_plain},
                                   **open_banner})

    def trace(net, fn):
        before = dict(net.counters.counts)
        fn()
        return {cls: net.counters.counts[cls] - n
                for cls, n in before.items() if net.counters.counts[cls] != n}

    net = SimNetwork([spec])
    for port in range(1, 1025):
        got = trace(net, lambda: net.tcp_syn(spec.address, port, SEC))
        if port in open_plain or port in open_banner:
            assert got == {"tcp_syn": 1, "tcp_synack": 1, "tcp_rst": 1}, port
        else:
            assert got == {"tcp_syn": 1, "tcp_rst": 1}, port

    net = SimNetwork([spec])
    for port in range(1, 1025):
        got = trace(net, lambda: net.tcp_connect(spec.address, port, SEC))
        if port in open_banner:
            assert got == {"tcp_syn": 1, "tcp_synack": 1, "tcp_ack": 1,
                           "banner_data": 1, "tcp_rst": 1}, port
        elif port in open_plain:
            assert got == {"tcp_syn": 1, "tcp_synack": 1, "tcp_ack": 1,
                           "tcp_rst": 1}, port
        else:
            assert got == {"tcp_syn": 1, "tcp_rst": 1}, port


def _mutate(rnd, baseline):
    """Apply independent single-event mutations; return (current, expected)."""
    hosts = {a: r for a, r in baseline.hosts.items()}
    expected = set()
    candidates = list(hosts)
    rnd.shuffle(candidates)

    free = [A(f"10.9.0.{i}") for i in rnd.sample(range(1, 200), 3)]
    for addr in free[:rnd.randrange(0, 3)]:
        hosts[addr] = HostRecord()
        expected.add((int(addr), "HostAdded", None))

    for addr in candidates:
        rec = hosts[addr]
        choice = rnd.randrange(5)
        if choice == 0:
            del hosts[addr]
            expected.add((int(addr), "HostRemoved", None))
        elif choice == 1 and rec.ports:
            port = rnd.choice(sorted(rec.ports))
            new_ports = dict(rec.ports)
            if rec.ports[port] is PortState.OPEN:
                new_ports[port] = PortState.CLOSED
                banners = {p: b for p, b in rec.banners.items() if p != port}
                expected.add((int(addr), "PortClosed", port))
            else:
                new_ports[port] = PortState.OPEN
                banners = dict(rec.banners)
                expected.add((int(addr), "PortOpened", port))
            hosts[addr] = dataclasses.replace(rec, ports=new_ports, banners=banners)
        elif choice == 2 and rec.banners:
            port = rnd.choice(sorted(rec.banners))
            banners = dict(rec.banners)
            banners[port] = banners[port] + b"!"
            hosts[addr] = dataclasses.replace(rec, banners=banners)
            expected.add((int(addr), "BannerChanged", port))
        elif choice == 3 and rec.rtt_samples:
            slow = tuple(s * 3 + 5000 for s in rec.rtt_samples)
            hosts[addr] = dataclasses.replace(rec, rtt_samples=slow)
            expected.add((int(addr), "LatencyAnomaly", None))
        # choice 4 (or inapplicable draws): host left untouched

    current = dataclasses.replace(baseline, hosts=hosts, trusted=False)
    return current, expected


@criterion(5, "diff matches the brute-force oracle on 1000 generated pairs")
def test_criterion_5_diff_oracle():
    from edgemap.diffing import diff

    cfg = small_config()
    rnd = random.Random(51)
    for i in range(1000):
        baseline = random_fingerprint(rnd, trusted=True)
        if i % 2:
            current, expected = _mutate(rnd, baseline)
            assert event_tuples(diff(baseline, current, cfg)) == expected
        else:
            current = random_fingerprint(rnd)
            oracle = brute_force_diff(baseline, current,
                                      cfg.rtt_anomaly_factor, cfg.rtt_anomaly_floor)
            assert event_tuples(diff(baseline, current, cfg)) == oracle
        # diff(x, x) is always empty
        assert diff(baseline, dataclasses.replace(baseline, trusted=False), cfg) == []


@criterion(6, "10000 schedules: valid permutations, uniform, reproducible")
def test_criterion_6_schedule_properties():
    cfg = small_config(address_range=AddressRange.parse("10.2.0.0-10.2.0.255"),
                       startup_delay_min=60 * SEC, startup_delay_max=300 * SEC)
    addresses = list(cfg.address_range)
    expected_sorted = sorted(addresses, key=int)
    first_counts = {int(a): 0 for a in addresses}
    for seed in range(10_000):
        order = make_schedule(cfg, Prng(seed)).host_order
        assert sorted(order, key=int) == expected_sorted
        first_counts[int(order[0])] += 1
    chi = scipy.stats.chisquare(list(first_counts.values()))
    assert chi.pvalue > 0.01, f"first-element chi-square p={chi.pvalue}"

    for seed in (0, 7, 4096):
        a = make_schedule(cfg, Prng(seed))
        b = make_schedule(cfg, Prng(seed))
        assert a.host_order == b.host_order
        assert a.startup_delay == b.startup_delay
        sample = a.host_order[:5]
        assert [a.port_order(x) for x in sample] == [b.port_order(x) for x in sample]


@criterion(7, "500 round-trips identical; 1000/1000 corruptions detected")
def test_criterion_7_persistence():
    rnd = random.Random(71)
    blobs = []
    for _ in range(500):
        fp = random_fingerprint(rnd, trusted=rnd.random() < 0.5)
        data = dumps_fingerprint(fp)
        assert loads_fingerprint(data) == fp
        blobs.append(data)

    detected = 0
    for _ in range(1000):
        data = rnd.choice(blobs)
        idx = rnd.randrange(len(data))
        replacement = rnd.randrange(256)
        while replacement == data[idx]:
            replacement = rnd.randrange(256)
        mutated = data[:idx] + bytes([replacement]) + data[idx + 1:]
        try:
            loads_fingerprint(mutated)
        except CorruptRecord:
            detected += 1
    assert detected == 1000


@criterion(8, "1000 startup jitter draws inside [60 s, 300 s]")
def test_criterion_8_startup_jitter():
    cfg = small_config(address_range=AddressRange.parse("10.0.0.1-10.0.0.2"),
                       startup_delay_min=60 * SEC, startup_delay_max=300 * SEC)
    draws = [make_schedule(cfg, Prng(seed)).startup_delay for seed in range(1000)]
    assert all(60 * SEC <= d <= 300 * SEC for d in draws)
    # draws actually spread across the window rather than clustering
    assert min(draws) < 90 * SEC and max(draws) > 270 * SEC
    chi = scipy.stats.chisquare(
        [sum(1 for d in draws if 60 * SEC + i * 24 * SEC <= d < 60 * SEC + (i + 1) * 24 * SEC)
         for i in range(10)])
    assert chi.pvalue > 0.01


@criterion(9, "repeated seeded simulation is byte-identical end to end")
def test_criterion_9_determinism(tmp_path):
    def run(state_dir):
        out = io.StringIO()
        code = cli.main(["simulate", str(SCENARIOS / "02-service-changed.scn"),
                         "--config", str(SCENARIOS / "sim.conf"),
                         "--seed", "7", "--epochs", "2",
                         "--state-dir", str(state_dir)], out=out)
        assert code == 0
        return out.getvalue()

    text_a = run(tmp_path / "a")
    text_b = run(tmp_path / "b")
    assert text_a == text_b
    assert "kind=" in text_a  # the scenario does emit event lines

    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name
