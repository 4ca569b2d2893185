"""Byte-for-byte pins on the CLI output for every shipped scenario.

`simulate <scn> --seed 7` prints events, the per-second rates table, the
peak line and the tags; its full stdout is pinned by sha256, and so is
every fingerprint file it stores, which holds every port state, banner
and RTT sample of the baseline and of each epoch.  The `baseline`/`scan`
summary lines are pinned as text.  A refactor of the probe, simulator or
CLI layers that moves any packet, RTT draw or event changes one of these.  peak-syn.scn runs with peak.conf, the others with
sim.conf.  A `diff` of two generated records that differ by hundreds of
events pins both output formats of the event path.
"""

import hashlib
import io
import ipaddress
import random
from collections import Counter
from pathlib import Path

import pytest

from edgemap import cli
from edgemap.model import EventKind, HostRecord, NetworkFingerprint, PortState
from edgemap.store import dumps_fingerprint

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# the six scenarios on sim.conf share the reference network's baseline
REFERENCE_TRUSTED = "373605017853a235d3c1a4839037ea93f91be24863e4aee1c0d9b0f9a9c7b269"

# scenario -> sha256 of simulate's stdout, and of each stored fingerprint
SIMULATE_SHA256 = {
    "01-node-removed.scn": (
        "368ad46419003eead8e48d544c2c963fd7981a89e7baf4265fdac416b16a4371",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "32803fb21fa70b31c09a534b2850d406cef4982fa0528fce959f864838f8fbd0",
         "epoch000002": "879e19455818faffcc97e080a7c8237d4f24d1140397a8e0e0278af403f0f547"}),
    "02-service-changed.scn": (
        "563b9a4a0a3fe09a8343ad98abd52c3aa2dd8142bf375d09badc14d168aa6046",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "24fd9b5dd226a7d2726e1a3abacbbf00d6fcbd3de2211811200170caef1903f2",
         "epoch000002": "79a79eb80282122f285245e3d5513ded5b54aef113d16a98e8c2705352d06b2b"}),
    "03-new-device.scn": (
        "95c1e8554e92f3519d6550d73f64e4da37bcbdf52076a4d9378cb3c8909f05bb",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "7b20790641e1e047ae0fdcde825e39a1d7a162004a6d056aba6df67bfcac2a3d",
         "epoch000002": "92359377fd7462bc8d0255c2d4e972c555eb95b08c77110b2eaa5b8d59b43aa8"}),
    "04-mitm-below.scn": (
        "11a590162b109984a660604ee84a8413eae00862a68c66559cc523b4005b7f50",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "0ee0149ff4ec5685f29435dc8c6c7a3fc81b0f2544e725ca078463439183a48d",
         "epoch000002": "f41633e18ffcf3005ee26efd108f7815ebc8579a919cb9421444ab8788edcbbf"}),
    "04-mitm.scn": (
        "99233e0a75c3bdc1e5f5ce0501572716cd30725b24abccb32191ffa58400e08a",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "78d9774411d7117399b188773a6ad7a739648337ce12cd7944e5e953fdc284ae",
         "epoch000002": "df8375ef02842e9f18f2db9ee6e8f2f2172f6300bd7c6ea9c06a4276d6486b97"}),
    "05-stealth.scn": (
        "3c2732156f39ab6f6ef70f826f846395c22c2212329693399352b8a7aabc895e",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "fdb3f31260e9c7e009c0e656ea094de24a1ee23e5a627a1f1ef5a790de9ba49e",
         "epoch000002": "28108082912cbdf93734dfb7a7b33c446995687e20af937f6ecb86fa0cacd6d4"}),
    "peak-syn.scn": (
        "81f748c4fe94aed4d713e715a9754c153d76cc26f584ae394ae995136ff64bec",
        # a SYN scan grabs no banners, and its config digest says so
        {"trusted": "712748912874e8d598fc1207fefd2cf9bbf8ed5a3ec43133b828fc27a0792bd4",
         "epoch000001": "39f147e410ac8b761d12a3cb63495284f29ee45e16b0d41bff916883112ddb56",
         "epoch000002": "ede3fbfb7f0127627e80080679cabba451fc6d4055f3b793d476abd75cdf701b"}),
    "rates-10host.scn": (
        "d598817bbfa2eb28f034bd0d5539472e6fa036f5c4ecf003e04e55e348efdb8b",
        {"trusted": "bc63a72138ab950b951fd2c7b7dca70e772c0ab65a0092ff6d57889fa16f5425",
         "epoch000001": "e90355d03e7ccea92a6042fe5e3b3e6b3b8b7c12e1d84892fa17357e3ca99143",
         "epoch000002": "89b673d607490a222312c041ae8f97d6bdf1f477ce971765a7d0ca4c5de9cf93"}),
}

# No shipped scenario jitters, so this one pins the order in which ARP, ICMP
# and TCP probes draw from the one jitter stream, through whole sweeps: it has
# jittered hosts, an echo-off host, filtered ports, an ARP-off host and
# actions that change latency, echo and the host table mid-run.
JITTER_SCN = """\
host 10.0.0.1 rtt=500us jitter=300us port=22:"SSH-2.0-x\\r\\n" port=8 filtered=23,24
host 10.0.0.2 rtt=800us jitter=1ms icmp=off port=21
host 10.0.0.3 rtt=2ms jitter=50us filtered=1,2,3,4,5,6,7,8
host 10.0.0.5 arp=off rtt=400us jitter=100us port=21
at 200s set-latency 10.0.0.1 3
at 260s set-icmp 10.0.0.2 on
at 300s add-host 10.0.0.6 rtt=300us jitter=299us port=13:"hi"
"""

# scan -> sha256 of `simulate --epochs 3` stdout on sim.conf, and of each
# stored fingerprint
JITTER_SHA256 = {
    "connect": (
        "c85672fd96bc701683b89f2701f2c300830614ef83ae5b5a48d9dbd416b5a16e",
        {"trusted": "0df38bceb7c5afbfe1d769a0d5fc5578bedfc2190552fc0295bd413836fa64dc",
         "epoch000001": "612ee1c38a4a82085ac431c4ddfde1b966a0708a06fdb4f8bb3ec31aa0c8ebef",
         "epoch000002": "25c37eb5022f941cc4ce479a5ee2f1e2a098d55d1af58b521f089d3a7adcaa1d",
         "epoch000003": "7c33a34a1c1097a0416b15b1f3196beaafd2d2c20a712793a3a1f407ff9fdee2"}),
    "syn": (
        "898b6ac2817914e443e0242297d96357d5771ede592b9db7ca892c4c631d9806",
        {"trusted": "87403134007ac5907d54af7d9d750def1cad0111d4366e5297e54b0f0776f0de",
         "epoch000001": "7b16ab3a77a05dc7f18c4adc27bc048f18fb921275e54528c93320a803a49f96",
         "epoch000002": "c09f12a1c863fa97a03e26d0e0495731ad904bbb9f4b0cf7463688113ac5323b",
         "epoch000003": "a88a04f2fb7d7d9d8ed223aae5f4a63f993cb0e345c7c2178059c36591f9c435"}),
}

# At scale: 16 hosts on ports 1-256, each port scan a few hundred probes long.
# 10.0.1.3 filters 200 ports, so most of its probes open a new counter second;
# 10.0.1.4 pings at 1us after its latency halves, which pins that the RTT is
# clamped only after the jitter is added.  Every action lands inside the port
# scan of the host it names, between two of its probes, in the first epoch.
SCALE_SCN = f"""\
host 10.0.1.1 rtt=500us port=22:"SSH-2.0-x\\r\\n" port=80 port=102
host 10.0.1.2 rtt=800us jitter=1ms port=21 port=143:"hi"
host 10.0.1.3 rtt=2ms filtered={",".join(map(str, range(1, 201)))} port=250
host 10.0.1.4 rtt=1us jitter=50us port=102 port=202
host 10.0.1.5 rtt=300us jitter=299us port=23:"login: " port=161
host 10.0.1.6 icmp=off rtt=700us port=88
host 10.0.1.7 rtt=1ms port=252:"modbus" filtered=100,101,102
host 10.0.1.8 rtt=250us jitter=20us
host 10.0.1.9 rtt=1500us port=1 port=256
host 10.0.1.10 rtt=400us jitter=100us port=218
host 10.0.1.11 rtt=600us port=200 port=53
host 10.0.1.12 rtt=3ms jitter=2ms port=80:"HTTP/1.0 200 OK\\r\\n"
host 10.0.1.13 arp=off rtt=400us port=21
host 10.0.1.14 rtt=900us port=135 port=139 port=245
host 10.0.1.15 rtt=200us jitter=5us filtered=1,2,3,4,5,6,7,8,9,10
host 10.0.1.16 rtt=1200us port=204
at 745s close-port 10.0.1.14 245
at 1070s set-latency 10.0.1.4 0.5
at 1100s open-port 10.0.1.1 143 banner=hi
at 1140s set-latency 10.0.1.15 4
at 1200s set-latency 10.0.1.16 2.5
at 1230s set-arp 10.0.1.8 off
"""

SCALE_CONF = """\
address_range = 10.0.1.1-10.0.1.18
port_range = 1-256
ping_delay = 100ms
port_delay = 100ms
ping_timeout = 1s
connect_timeout = 1s
startup_delay_min = 1s
startup_delay_max = 1s
rescan_interval = 60s
seed = 7
"""

# scan -> sha256 of `simulate --epochs 2` stdout on SCALE_CONF, and of each
# stored fingerprint
SCALE_SHA256 = {
    "connect": (
        "d2b0d69133e82378f06d16177a6bae038a942969b3109057d03dd79eac275ac7",
        {"trusted": "3e2853a6e919efd83eef7f4c94768e03e4e23798c79144fff9d9f9f07922d1fe",
         "epoch000001": "202b57c3a1b0a40ea25281a5ede589834d922cd9f2afaec28eab70de0ed875e4",
         "epoch000002": "facbfdd945241b8e5a70a35d5d582ba026e2e1f1a24d573d3ed1c7c3d0575bf1"}),
    "syn": (
        "bfd251978c88bfac4b6a99726d622853378a51e5eee947b2724fe9f81946a269",
        {"trusted": "3f0b6ca4f961b4c2832926246497856075b8e8275daf6b183d7f3f432c0513ef",
         "epoch000001": "538ee48d493be900a9a3ac804dfa4f9bff39b2045450ff68a3c23a627ca5640a",
         "epoch000002": "cf238703b43ce364eaadc462ab774ad2f85319e8f8a2fd7f12bb21561ff18027"}),
}

# The event path at scale: two records of one network, 48 addresses on ports
# 1-512, that differ by every event kind.  Some hosts leave or join, some are
# silent on one side, some have a shifted median RTT, and the banners hold
# quotes, backslashes, spaces, control and non-ASCII bytes.  The addresses
# span several /8s and their decimal strings sort apart from their numbers.
EVENT_PAIR_SHA256 = {
    "records": ("6ac1c08bafa807ca32fa4f0abb4fa721da7bd115139062977bf2222c7eba654d",
                "68a60df103291c72da0417c3de6554a2471b6e34e9a5880092f42dcbe4d33f5e"),
    "human": "b5c069fbd5db8704165f26207da2a47ddf2ef1263b97a21b75847537ccc60144",
    "lines": "33fe67462b27f31a6ed4555e0d02c24aca0efd105a9d553f4f5ccf4bcd1e535e",
}

BANNER_BYTES = (b"SSH-2.0-x", b"'", b'"', b"\\", b" ", b"=", b"#", b"\t", b"\r\n",
                b"\xe9", b"\xff\xfe", b"caf\xc3\xa9", b"HTTP/1.0 200 OK")


def event_pair():
    """The two fingerprints, drawn from one seeded generator."""
    rnd = random.Random(5)
    numbers = {int(ipaddress.IPv4Address(text)) for text in (
        "0.0.0.1", "9.255.255.255", "10.0.0.2", "10.0.0.10", "10.0.0.100", "10.1.0.9",
        "172.16.0.1", "192.168.1.20", "192.168.1.3", "255.255.255.254")}
    while len(numbers) < 48:
        numbers.add(int(ipaddress.IPv4Address("10.0.0.0")) + rnd.randrange(1, 300))
    addresses = sorted(map(ipaddress.IPv4Address, numbers))

    def banner():
        return b"".join(rnd.choice(BANNER_BYTES) for _ in range(rnd.randrange(1, 5)))

    def record(states, banners, rtt):
        ports = {port: PortState(state) for port, state in states.items()}
        return HostRecord(rtt_samples=rtt, ports=ports,
                          banners={port: text for port, text in banners.items()
                                   if states.get(port) == "open"})

    base, cur = {}, {}
    for n, addr in enumerate(addresses):
        last = 512 if n % 5 else 256  # some hosts were swept on half the ports
        states = {port: rnd.choices(("closed", "open", "filtered"), (16, 3, 2))[0]
                  for port in range(1 + (n % 7 == 3) * 100, last + 1)}
        banners = {port: banner() for port, state in states.items()
                   if state == "open" and rnd.random() < 0.5}
        rtt = tuple(sorted(rnd.randrange(200, 5000) for _ in range(3)))
        if n % 6 == 5:
            rtt = ()  # silent: answered ARP only
        side = n % 8
        if side != 1:  # one in eight joins in the current scan
            base[addr] = record(states, banners, rtt)
        if side == 2:  # and one in eight leaves
            continue
        states = dict(states)
        banners = dict(banners)
        for port in rnd.sample(sorted(states), len(states) // 25):
            states[port] = rnd.choice(("closed", "open", "filtered"))
            banners.pop(port, None)
            if states[port] == "open" and rnd.random() < 0.5:
                banners[port] = banner()
        for port in rnd.sample(sorted(banners), len(banners) // 3):
            banners[port] = banner() if rnd.random() < 0.7 else b""
        if rtt and rnd.random() < 0.4:
            rtt = tuple(sample * rnd.choice((2, 3, 5)) + 1500 for sample in rtt)
        elif n % 11 == 4:
            rtt = () if rtt else (900, 1000, 1100)
        cur[addr] = record(states, banners, rtt)
    return (NetworkFingerprint(started_at=0, finished_at=90_000_000, config_digest=0xED6E,
                               hosts=base, trusted=True),
            NetworkFingerprint(started_at=100_000_000, finished_at=190_000_000,
                               config_digest=0xED6E, hosts=cur))


# the first sweep sees the network at time zero, before any scripted action
REFERENCE_NET = "hosts=4 open_ports=3 duration=33712500us packets=297"
SUMMARY = {
    "01-node-removed.scn": REFERENCE_NET,
    "02-service-changed.scn": REFERENCE_NET,
    "03-new-device.scn": REFERENCE_NET,
    "04-mitm-below.scn": REFERENCE_NET,
    "04-mitm.scn": REFERENCE_NET,
    "05-stealth.scn": REFERENCE_NET,
    "peak-syn.scn": "hosts=1 open_ports=5 duration=5001ms packets=33",
    "rates-10host.scn": "hosts=6 open_ports=3 duration=46696500us packets=439",
}


def backend(name):
    conf = "peak.conf" if name == "peak-syn.scn" else "sim.conf"
    return ["--config", str(SCENARIOS / conf), "--seed", "7"]


def run(argv):
    out = io.StringIO()
    assert cli.main(argv, out) == 0
    return out.getvalue()


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.scn")) == sorted(SIMULATE_SHA256)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_stdout(name, tmp_path):
    stdout, stored = SIMULATE_SHA256[name]
    text = run(["simulate", str(SCENARIOS / name), "--state-dir", str(tmp_path)]
               + backend(name))
    assert sha256(text.encode()) == stdout
    # <digest>.<record>.fp: the digest is the config's, pinned by the stdout
    assert {path.name.split(".")[1]: sha256(path.read_bytes())
            for path in tmp_path.glob("*.fp")} == stored


@pytest.mark.parametrize("name", sorted(SUMMARY))
def test_baseline_and_scan_summaries(name, tmp_path):
    args = backend(name) + ["--backend", f"sim:{SCENARIOS / name}"]
    text = run(["baseline", "--state-dir", str(tmp_path)] + args)
    assert text.splitlines()[-1] == f"baseline {SUMMARY[name]}"
    text = run(["scan"] + args)
    assert text.splitlines()[-1] == f"scan {SUMMARY[name]}"


@pytest.mark.parametrize("scan", sorted(JITTER_SHA256))
def test_jittered_sweeps(scan, tmp_path):
    stdout, stored = JITTER_SHA256[scan]
    scenario = tmp_path / "jitter.scn"
    scenario.write_text(JITTER_SCN)
    state = tmp_path / "state"
    text = run(["simulate", str(scenario), "--config", str(SCENARIOS / "sim.conf"),
                "--epochs", "3", "--state-dir", str(state)]
               + (["--syn"] if scan == "syn" else []))
    assert sha256(text.encode()) == stdout
    assert {path.name.split(".")[1]: sha256(path.read_bytes())
            for path in state.glob("*.fp")} == stored


@pytest.mark.parametrize("scan", sorted(SCALE_SHA256))
def test_sweeps_at_scale(scan, tmp_path):
    stdout, stored = SCALE_SHA256[scan]
    scenario, config = tmp_path / "scale.scn", tmp_path / "scale.conf"
    scenario.write_text(SCALE_SCN)
    config.write_text(SCALE_CONF)
    state = tmp_path / "state"
    text = run(["simulate", str(scenario), "--config", str(config),
                "--epochs", "2", "--state-dir", str(state)]
               + (["--syn"] if scan == "syn" else []))
    assert sha256(text.encode()) == stdout
    assert {path.name.split(".")[1]: sha256(path.read_bytes())
            for path in state.glob("*.fp")} == stored


def test_diff_of_an_event_pair_at_scale(tmp_path):
    records = [dumps_fingerprint(fp) for fp in event_pair()]
    paths = [tmp_path / "a.fp", tmp_path / "b.fp"]
    for path, data in zip(paths, records):
        path.write_bytes(data)
    assert tuple(map(sha256, records)) == EVENT_PAIR_SHA256["records"]
    stdout = {}
    for form in ("human", "lines"):
        out = io.StringIO()
        assert cli.main(["diff", *map(str, paths), "--format", form], out) == 1
        stdout[form] = out.getvalue()
    assert {form: sha256(text.encode()) for form, text in stdout.items()} == {
        form: EVENT_PAIR_SHA256[form] for form in stdout}
    # the pair raises every kind, and hundreds of events in all
    kinds = Counter(line.split()[0] for line in stdout["human"].splitlines())
    assert set(kinds) == {kind.value for kind in EventKind}
    assert sum(kinds.values()) > 500
