"""Seeded input generation for the three benchmark workloads.

Everything edgemap receives is written here as files: a scenario (.scn)
and config (.conf) for the two `simulate` workloads, and two fingerprints
(.fp) plus a threshold config for `compare`.  The same seed always gives
byte-identical files.  Each generator also returns its own list of the
changes it scripted, from which the expected events are derived without
calling edgemap.

Randomness comes from Python's `random.Random`, never from edgemap's
PRNG, so a change to the program cannot change the inputs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from pathlib import Path

SECOND = 1_000_000

# Event kind (wire name) -> scenario tag, as documented for `simulate`.
TAG_OF_KIND = {
    "HostRemoved": "NodeRemoved",
    "PortOpened": "ServiceChanged",
    "PortClosed": "ServiceChanged",
    "BannerChanged": "ServiceChanged",
    "HostAdded": "NewDevice",
    "LatencyAnomaly": "MitmSuspected",
}

# Probe pacing shared by both simulate workloads: the documented defaults,
# which keep discovery at <= 4 pps and TCP at <= 25 pps.
PACING = {
    "ping_delay": "100ms",
    "port_delay": "100ms",
    "ping_timeout": "1s",
    "connect_timeout": "1s",
    "startup_delay_min": "1s",
    "startup_delay_max": "1s",
}

# With 100 ms port pacing at most ten port probes start in one second, so a
# host keeps at most two open ports (three under SYN scanning) to stay
# inside the 25 pps TCP ceiling whatever order its ports are probed in.
MAX_OPEN_CONNECT = 2
MAX_OPEN_SYN = 3

BANNERS = (
    "SSH-2.0-OpenSSH_8.9p1 {name}\\r\\n",
    "220 {name} FTP server ready\\r\\n",
    "HTTP/1.0 200 OK\\r\\nServer: {name}\\r\\n",
    "+OK {name} POP3 ready\\r\\n",
    "Siemens S7 {name}\\r\\n",
)


@dataclass(frozen=True)
class Change:
    """One scripted change and the event it must raise.

    `kind` is None for a negative control that must raise nothing.
    """

    at: int
    kind: str | None
    addr: str
    port: int | None = None

    @property
    def key(self):
        return (self.kind, self.addr, self.port)


@dataclass
class SimInputs:
    scenario: Path
    config: Path
    epochs: int
    syn: bool
    changes: list

    def argv(self, state_dir: Path, epochs: int | None = None) -> list:
        argv = ["simulate", str(self.scenario), "--config", str(self.config),
                "--epochs", str(self.epochs if epochs is None else epochs),
                "--rates", "none", "--state-dir", str(state_dir)]
        if self.syn:
            argv.append("--syn")
        return argv

    @property
    def expected_tags(self) -> set:
        tags = {TAG_OF_KIND[c.kind] for c in self.changes if c.kind}
        return tags or {"None"}


@dataclass
class CompareInputs:
    fp_a: Path
    fp_b: Path
    config: Path
    expected: list = field(default_factory=list)   # (kind, addr, port)

    def argv(self) -> list:
        return ["diff", str(self.fp_a), str(self.fp_b), "--config", str(self.config),
                "--format", "lines"]


def _conf(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="ascii")
    return path


def _banner(rnd: random.Random, name: str) -> str:
    return rnd.choice(BANNERS).format(name=name)


def _host_line(addr, rtt_us, jitter_us=0, ports=(), filtered=(), icmp=True) -> str:
    parts = [f"host {addr}", f"rtt={rtt_us}us"]
    if jitter_us:
        parts.append(f"jitter={jitter_us}us")
    if not icmp:
        parts.append("icmp=off")
    for port, banner in ports:
        parts.append(f'port={port}:"{banner}"' if banner else f"port={port}")
    if filtered:
        parts.append("filtered=" + ",".join(str(p) for p in sorted(filtered)))
    return " ".join(parts)


# -- sweep24 -------------------------------------------------------------------

SWEEP24_LIVE = 64
SWEEP24_FIREWALLED = 16
SWEEP24_SILENT = 2
SWEEP24_PORTS = 1024
SWEEP24_EPOCHS = 3


def sweep24(seed: int, workdir: Path) -> SimInputs:
    """A /24 with 64 live hosts, a quarter of them behind a dropping firewall.

    Seven changes land at one instant A after the baseline sweep has ended:
    HostRemoved, HostAdded, PortOpened, PortClosed, BannerChanged, a x2.5
    latency relay, and a stealth host (ARP and ICMP off) that must raise
    nothing.  A is an upper bound on the baseline's end (every probe costs
    at most two timeouts plus its pacing), and the rescan interval equals A,
    so epoch 1 always starts after the changes, however fast sweeps become,
    and detection time reads as baseline sweep plus first monitor sweep.
    """
    rnd = random.Random(f"sweep24/{seed}")
    net = f"10.{rnd.randrange(1, 255)}.{rnd.randrange(0, 256)}."
    last_octets = list(range(1, 255))
    rnd.shuffle(last_octets)
    live = [net + str(o) for o in last_octets[:SWEEP24_LIVE]]
    added_addr, stealth_addr = (net + str(o) for o in last_octets[SWEEP24_LIVE:SWEEP24_LIVE + 2])
    firewalled = live[:SWEEP24_FIREWALLED]
    silent = live[SWEEP24_FIREWALLED:SWEEP24_FIREWALLED + SWEEP24_SILENT]
    scanned = live[SWEEP24_FIREWALLED + SWEEP24_SILENT:]
    removed, opened, closed, rebannered, relayed = scanned[:5]

    lines = [f"# sweep24 workload, seed {seed}"]
    all_ports = range(1, SWEEP24_PORTS + 1)
    for addr in firewalled:
        # the firewall drops all but one to three ports
        answering = rnd.sample(all_ports, rnd.randint(1, 3))
        ports = [(answering[0], _banner(rnd, addr))] if rnd.random() < 0.5 else []
        filtered = set(all_ports) - set(answering)
        lines.append(_host_line(addr, rnd.randrange(300, 2000), ports=ports, filtered=filtered))
    for addr in silent:
        lines.append(_host_line(addr, rnd.randrange(300, 2000), icmp=False))
    open_ports = {}
    for addr in scanned:
        n_open = 1 if addr in (opened, closed, rebannered) else rnd.randint(0, MAX_OPEN_CONNECT)
        ports = []
        for port in rnd.sample(all_ports, n_open):
            with_banner = addr == rebannered or rnd.random() < 0.7
            ports.append((port, _banner(rnd, addr) if with_banner else None))
        open_ports[addr] = [p for p, _ in ports]
        filtered = rnd.sample(all_ports, rnd.randint(0, 2)) if addr not in (opened,) else []
        filtered = [p for p in filtered if p not in open_ports[addr]]
        if addr == relayed:
            # the relay target needs a clean >= 1 ms baseline so x2.5 clears
            # both the factor and the absolute-floor clauses
            rtt, jitter = rnd.randrange(1000, 2000), 0
        else:
            rtt, jitter = rnd.randrange(300, 2000), rnd.choice((0, 0, rnd.randrange(10, 150)))
        lines.append(_host_line(addr, rtt, jitter, ports, filtered))

    config = {
        "address_range": f"{net}1-{net}254",
        "port_range": f"1-{SWEEP24_PORTS}",
        **PACING,
    }
    attempts_bound = (1 + len(last_octets) * 1.1 + SWEEP24_LIVE * 3 * 1.1
                      + SWEEP24_LIVE * SWEEP24_PORTS * 2.1)
    at_s = int(attempts_bound) + 1
    config["rescan_interval"] = f"{at_s}s"
    config["seed"] = seed
    at = at_s * SECOND

    new_port = rnd.choice([p for p in all_ports if p not in open_ports[opened]])
    changes = [
        (Change(at, "HostRemoved", removed), f"remove-host {removed}"),
        (Change(at, "HostAdded", added_addr),
         f'add-host {added_addr} arp=on icmp=on rtt=700us port=22:"{_banner(rnd, added_addr)}"'),
        (Change(at, "PortOpened", opened, new_port),
         f'open-port {opened} {new_port} banner="{_banner(rnd, opened + "-new")}"'),
        (Change(at, "PortClosed", closed, open_ports[closed][0]),
         f"close-port {closed} {open_ports[closed][0]}"),
        (Change(at, "BannerChanged", rebannered, open_ports[rebannered][0]),
         f"open-port {rebannered} {open_ports[rebannered][0]} "
         f'banner="{_banner(rnd, "x" + rebannered)}"'),
        (Change(at, "LatencyAnomaly", relayed), f"set-latency {relayed} 2.5"),
        (Change(at, None, stealth_addr), f"add-host {stealth_addr} arp=off icmp=off rtt=500us"),
    ]
    rnd.shuffle(changes)
    lines += [f"at {at_s}s {action}" for _, action in changes]

    scn = workdir / "sweep24.scn"
    scn.write_text("\n".join(lines) + "\n", encoding="ascii")
    conf = _conf(workdir / "sweep24.conf", config)
    return SimInputs(scn, conf, SWEEP24_EPOCHS, syn=False, changes=[c for c, _ in changes])


# -- longrun -------------------------------------------------------------------

LONGRUN_HOSTS = 10
LONGRUN_PORTS = 16
# 500 epochs rather than 1000: the per-epoch cost still grows about 2x
# over one command, and twice as many commands fit in a run, which halves
# the run-to-run spread of the tail.
LONGRUN_EPOCHS = 500
LONGRUN_RESCAN_S = 120
# One change per 50 rescan intervals: epoch k*50 at the latest even if a
# sweep took no time at all, so all nine land well inside 500 epochs.
LONGRUN_CHANGE_EVERY_S = 50 * LONGRUN_RESCAN_S
# The order is the same for every seed so that each seed carries the same
# per-epoch work; seeds vary addresses, ports and RTTs.
LONGRUN_KINDS = ("PortOpened", "PortClosed", "HostAdded", "LatencyAnomaly", None,
                 "PortOpened", "HostRemoved", "PortClosed", "PortOpened")


def longrun(seed: int, workdir: Path) -> SimInputs:
    """Ten hosts, no filtered ports, ports 1-16, SYN scan, 500 epochs.

    Nine changes, one every LONGRUN_CHANGE_EVERY_S of scan clock, each on
    its own host; one of them is a stealth host that must raise nothing.
    """
    rnd = random.Random(f"longrun/{seed}")
    base = rnd.randrange(0, 240)
    net = f"10.{rnd.randrange(1, 255)}.{rnd.randrange(0, 256)}."
    addrs = [net + str(base + i) for i in range(1, LONGRUN_HOSTS + 3)]
    rnd.shuffle(addrs)
    hosts, spares = addrs[:LONGRUN_HOSTS], addrs[LONGRUN_HOSTS:]
    targets = iter(hosts)
    all_ports = range(1, LONGRUN_PORTS + 1)

    plan = []          # (kind, addr)
    for kind in LONGRUN_KINDS:
        if kind == "HostAdded":
            plan.append((kind, spares[0]))
        elif kind is None:
            plan.append((kind, spares[1]))
        else:
            plan.append((kind, next(targets)))
    role = {addr: kind for kind, addr in plan}

    lines = [f"# longrun workload, seed {seed}"]
    open_ports = {}
    for addr in hosts:
        kind = role.get(addr)
        n_open = {"PortClosed": rnd.randint(1, 2),
                  "PortOpened": rnd.randint(0, MAX_OPEN_SYN - 1)}.get(
                      kind, rnd.randint(0, 2))
        open_ports[addr] = rnd.sample(all_ports, n_open)
        if kind == "LatencyAnomaly":
            rtt, jitter = rnd.randrange(1000, 2000), 0
        else:
            rtt, jitter = rnd.randrange(300, 900), rnd.choice((0, rnd.randrange(10, 50)))
        lines.append(_host_line(addr, rtt, jitter, [(p, None) for p in open_ports[addr]]))

    changes = []
    for k, (kind, addr) in enumerate(plan, start=1):
        at_s = k * LONGRUN_CHANGE_EVERY_S
        if kind == "PortOpened":
            port = rnd.choice([p for p in all_ports if p not in open_ports[addr]])
            action = f"open-port {addr} {port}"
        elif kind == "PortClosed":
            port = open_ports[addr][0]
            action = f"close-port {addr} {port}"
        elif kind == "HostAdded":
            port = None
            action = f"add-host {addr} arp=on icmp=on rtt=600us port={rnd.choice(all_ports)}"
        elif kind == "HostRemoved":
            port = None
            action = f"remove-host {addr}"
        elif kind == "LatencyAnomaly":
            port = None
            action = f"set-latency {addr} 2.5"
        else:
            port = None
            action = f"add-host {addr} arp=off icmp=off rtt=500us port=7"
        changes.append(Change(at_s * SECOND, kind, addr, port))
        lines.append(f"at {at_s}s {action}")

    scn = workdir / "longrun.scn"
    scn.write_text("\n".join(lines) + "\n", encoding="ascii")
    ordered = sorted(addrs, key=lambda a: int(a.rsplit(".", 1)[1]))
    conf = _conf(workdir / "longrun.conf", {
        "address_range": f"{ordered[0]}-{ordered[-1]}",
        "port_range": f"1-{LONGRUN_PORTS}",
        **PACING,
        "rescan_interval": f"{LONGRUN_RESCAN_S}s",
        "seed": seed,
    })
    return SimInputs(scn, conf, LONGRUN_EPOCHS, syn=True, changes=changes)


# -- compare -------------------------------------------------------------------

COMPARE_HOSTS = 64
COMPARE_PORTS = 1024
COMPARE_OPEN_PER_HOST = 20
COMPARE_HOST_CHURN = 6        # hosts removed, and as many added
COMPARE_RELAYED = 4
COMPARE_SILENT = 2
# per kept Up host: ports opened, ports closed, banners changed, and
# closed<->filtered flips that must raise nothing
COMPARE_OPENED, COMPARE_CLOSED, COMPARE_REBANNERED, COMPARE_FLIPS = 9, 7, 2, 4


class _FpWriter:
    """Streams one fingerprint record in the documented v1 text format."""

    def __init__(self, path: Path, digest: int, trusted: bool, started: int, finished: int):
        self._fh = open(path, "wb")
        self._crc = 0
        self._put(f"edgemap-fingerprint v1\ndigest {digest:016x}\ntrusted {int(trusted)}\n"
                  f"started {started}\nfinished {finished}\n")

    def _put(self, text: str) -> None:
        data = text.encode("ascii")
        self._crc = zlib.crc32(data, self._crc)
        self._fh.write(data)

    def host(self, addr: str, alive: str, rtt, ports: dict, banners: dict) -> None:
        out = [f"host {addr} {alive}\n"]
        if rtt:
            out.append("rtt " + " ".join(str(s) for s in rtt) + "\n")
        out += [f"port {p} {ports[p]}\n" for p in sorted(ports)]
        out += [f"banner {p} {banners[p].hex()}\n" for p in sorted(banners)]
        self._put("".join(out))

    def close(self) -> None:
        self._put("end\n")
        self._fh.write(f"checksum {self._crc & 0xFFFFFFFF:08x}\n".encode("ascii"))
        self._fh.close()


def _rtt_samples(rnd: random.Random, base: int, factor: float = 1.0):
    return tuple(int(base * factor * rnd.uniform(0.95, 1.05)) for _ in range(3))


def compare(seed: int, workdir: Path) -> CompareInputs:
    """Two ~1 MB fingerprints of 64 hosts x 1024 ports, ~1000 events apart.

    Besides the changes that must raise events, B carries closed<->filtered
    flips and RTT noise below the anomaly thresholds, which must not.
    """
    rnd = random.Random(f"compare/{seed}")
    digest = rnd.getrandbits(64)
    net = f"172.{rnd.randrange(16, 32)}.{rnd.randrange(0, 256)}."
    octets = rnd.sample(range(1, 255), COMPARE_HOSTS + COMPARE_HOST_CHURN)
    in_a = octets[:COMPARE_HOSTS]
    removed = set(in_a[:COMPARE_HOST_CHURN])
    silent = set(in_a[COMPARE_HOST_CHURN:COMPARE_HOST_CHURN + COMPARE_SILENT])
    relayed = set(in_a[COMPARE_HOST_CHURN + COMPARE_SILENT:
                       COMPARE_HOST_CHURN + COMPARE_SILENT + COMPARE_RELAYED])
    added = set(octets[COMPARE_HOSTS:])

    started = rnd.randrange(10**9, 10**10)
    a = _FpWriter(workdir / "compare-A.fp", digest, True, started, started + 23_000 * SECOND)
    b_start = started + 100_000 * SECOND
    b = _FpWriter(workdir / "compare-B.fp", digest, False, b_start, b_start + 23_000 * SECOND)
    expected = []
    all_ports = range(1, COMPARE_PORTS + 1)

    def full_host(name):
        ports = {p: "closed" for p in all_ports}
        for p in rnd.sample(all_ports, 30):
            ports[p] = "filtered"
        opened = rnd.sample([p for p in all_ports if ports[p] == "closed"], COMPARE_OPEN_PER_HOST)
        banners = {}
        for p in opened:
            ports[p] = "open"
            if rnd.random() < 0.8:
                banners[p] = f"svc {name}:{p} v{rnd.randrange(100)}\r\n".encode("ascii")
        return ports, banners

    for octet in sorted(octets):
        addr = net + str(octet)
        if octet in silent:
            a.host(addr, "silent", (), {}, {})
            b.host(addr, "silent", (), {}, {})
            continue
        base_rtt = rnd.randrange(1000, 3000) if octet in relayed else rnd.randrange(300, 3000)
        ports, banners = full_host(addr)
        if octet in added:
            b.host(addr, "up", _rtt_samples(rnd, base_rtt), ports, banners)
            expected.append(("HostAdded", addr, None))
            continue
        a.host(addr, "up", _rtt_samples(rnd, base_rtt), ports, banners)
        if octet in removed:
            expected.append(("HostRemoved", addr, None))
            continue
        new_ports, new_banners = dict(ports), dict(banners)
        open_now = [p for p in all_ports if ports[p] == "open"]
        shut = rnd.sample(open_now, COMPARE_CLOSED)
        for p in shut:
            new_ports[p] = rnd.choice(("closed", "filtered"))
            new_banners.pop(p, None)
            expected.append(("PortClosed", addr, p))
        for p in rnd.sample([p for p in open_now if p not in shut], COMPARE_REBANNERED):
            new_banners[p] = f"svc {addr}:{p} patched\r\n".encode("ascii")
            expected.append(("BannerChanged", addr, p))
        not_open = [p for p in all_ports if ports[p] != "open"]
        for p in rnd.sample(not_open, COMPARE_OPENED + COMPARE_FLIPS)[:COMPARE_OPENED]:
            new_ports[p] = "open"
            expected.append(("PortOpened", addr, p))
        quiet = [p for p in not_open if new_ports[p] != "open"]
        for p in rnd.sample(quiet, COMPARE_FLIPS):
            new_ports[p] = "filtered" if ports[p] == "closed" else "closed"
        factor = 3.0 if octet in relayed else 1.0
        if factor != 1.0:
            expected.append(("LatencyAnomaly", addr, None))
        b.host(addr, "up", _rtt_samples(rnd, base_rtt, factor), new_ports, new_banners)
    a.close()
    b.close()
    conf = _conf(workdir / "compare.conf", {
        "address_range": f"{net}1-{net}254",
        "port_range": f"1-{COMPARE_PORTS}",
        "rtt_anomaly_factor": "2.0",
        "rtt_anomaly_floor": "1ms",
    })
    return CompareInputs(workdir / "compare-A.fp", workdir / "compare-B.fp", conf, expected)
