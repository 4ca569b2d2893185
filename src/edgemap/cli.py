"""Operator command line tying config, backends, scheduler, store, and sinks.

Exit codes (stable):
    0  success / no deviations
    1  diff found deviations
    2  trusted baseline already exists, or a usage/config error
    3  transport or local I/O failure
    4  monitor started without a trusted baseline
    5  fingerprints incomparable or unreadable
    6  malformed simulation scenario
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import scenario as scenario_mod
from .diffing import classify_scenario, diff
from .errors import (CapabilityUnsupported, CorruptRecord, IncomparableFingerprints,
                     MalformedScript, NotFound, TransportDown, TrustedAlreadyExists)
from .model import AddressRange, ScanConfig, config_digest
from .osnet import OsNetwork
from .probe import full_sweep
from .rng import Prng
from .scheduler import make_schedule, run_monitor
from .sink import EventSink, FileOutput, StdoutOutput, UdpOutput, format_intrusion
from .store import FingerprintStore, dumps_fingerprint, loads_fingerprint
from .timebase import SECOND, format_duration, parse_duration
from .transport import DISCOVERY_CLASSES, PACKET_CLASSES, TCP_CLASSES, TCP_CONTROL_BYTES

EXIT_OK = 0
EXIT_EVENTS = 1
EXIT_TRUSTED_EXISTS = 2
EXIT_USAGE = 2  # bad flags/config values: the code argparse uses for usage errors
EXIT_TRANSPORT = 3
EXIT_NO_BASELINE = 4
EXIT_INCOMPARABLE = 5
EXIT_BAD_SCRIPT = 6

# Every failure that leaves a command, mapped to its exit code.  First match
# wins.  An unreadable scenario is converted to MalformedScript where it is
# read, and an unreadable fingerprint file to CorruptRecord, so OSError here
# means the transport or the local state (state dir, --out, config file).
EXIT_CODES = (
    (TrustedAlreadyExists, EXIT_TRUSTED_EXISTS),
    (NotFound, EXIT_NO_BASELINE),
    (CorruptRecord, EXIT_INCOMPARABLE),
    (IncomparableFingerprints, EXIT_INCOMPARABLE),
    (MalformedScript, EXIT_BAD_SCRIPT),
    (TransportDown, EXIT_TRANSPORT),
    (OSError, EXIT_TRANSPORT),
    (CapabilityUnsupported, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)

LOGGER_ENV = "EDGEMAP_LOGGER"


def _parse_ports(text: str) -> tuple:
    lo, sep, hi = text.partition("-")
    return int(lo), int(hi if sep else lo)


# Every ScanConfig field a config file or a flag may set, with the parser
# of its text.  Flags are stored under the field name, so one lookup
# serves both.
CONFIG_FIELDS = {
    "address_range": AddressRange.parse,
    "port_range": _parse_ports,
    "ping_delay": parse_duration,
    "port_delay": parse_duration,
    "startup_delay_min": parse_duration,
    "startup_delay_max": parse_duration,
    "rescan_interval": parse_duration,
    "seed": int,
    "scan_silent_hosts": scenario_mod.parse_bool,
    "banner_grab": scenario_mod.parse_bool,
    "banner_max_bytes": int,
    "rtt_anomaly_factor": float,
    "rtt_anomaly_floor": parse_duration,
    "connect_timeout": parse_duration,
    "ping_timeout": parse_duration,
    "syn_scan": scenario_mod.parse_bool,
}


def load_config_file(path: str) -> dict:
    """Flat key=value config mirroring ScanConfig field names."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def build_config(args) -> ScanConfig:
    """The config file's values with the flags given over them."""
    text = load_config_file(args.config) if args.config else {}
    for key in CONFIG_FIELDS:
        if getattr(args, key, None) is not None:
            text[key] = getattr(args, key)
    values = {}
    for key, raw in text.items():
        if key not in CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = CONFIG_FIELDS[key](raw)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    if "address_range" not in values:
        raise ValueError("an address range is required (--range or config file)")
    return ScanConfig(**values)


def build_transport(backend: str, config: ScanConfig):
    if backend == "os":
        if config.syn_scan:
            # refused before any probe, not at the first host that answers
            raise CapabilityUnsupported("the os backend runs unprivileged; SYN scan unavailable")
        return OsNetwork()
    if backend.startswith("sim:"):
        return scenario_mod.load(backend[4:]).build(seed=config.seed or 0)
    raise ValueError(f"unknown backend {backend!r} (use 'os' or 'sim:<scenario>')")


def build_sink(args, stream=None) -> EventSink:
    outputs = []
    specs = list(getattr(args, "sink", None) or [])
    if not any(spec.startswith("udp:") for spec in specs) and os.environ.get(LOGGER_ENV):
        specs.append("udp:" + os.environ[LOGGER_ENV])
    if not specs:
        specs = ["stdout"]
    repeated = sorted({spec for spec in specs if specs.count(spec) > 1})
    if repeated:  # an output named twice would get every line twice
        raise ValueError(f"sink given more than once: {', '.join(repeated)}")
    for spec in specs:
        if spec == "stdout":
            outputs.append(StdoutOutput(stream))
        elif spec.startswith("file:"):
            outputs.append(FileOutput(spec[5:]))
        elif spec.startswith("udp:"):
            host, _, port = spec[4:].rpartition(":")
            if not host or not port.isdecimal() or not 1 <= int(port) <= 65535:
                raise ValueError(f"sink {spec!r} is not udp:<host>:<port 1-65535>")
            outputs.append(UdpOutput(host, int(port)))
        else:
            raise ValueError(f"unknown sink {spec!r}")
    return EventSink(tuple(outputs), node_id=getattr(args, "node_id", "edgemap"))


def _sweep(args, config):
    """One sweep on a fresh transport; returns it with the fingerprint."""
    transport = build_transport(args.backend, config)
    schedule = make_schedule(config, Prng(config.seed))
    return transport, full_sweep(config, transport, schedule)


def _summary(fp, transport) -> str:
    # the transport is fresh, so its totals are this sweep's
    return (f"hosts={len(fp.hosts)} open_ports={fp.open_port_count()} "
            f"duration={format_duration(fp.finished_at - fp.started_at)} "
            f"packets={transport.counters.total_packets()}")


def cmd_baseline(args, out) -> int:
    config = build_config(args)
    store = FingerprintStore(args.state_dir)
    if store.has_trusted(config_digest(config)):
        raise TrustedAlreadyExists("trusted baseline already exists (use rebaseline --force)")
    transport, fp = _sweep(args, config)
    store.save_trusted(replace(fp, trusted=True))
    print(f"baseline {_summary(fp, transport)}", file=out)
    return EXIT_OK


def cmd_rebaseline(args, out) -> int:
    config = build_config(args)
    store = FingerprintStore(args.state_dir)
    digest = config_digest(config)
    try:
        store.delete_trusted(digest)
        print("previous trusted baseline discarded", file=out)
    except NotFound:
        pass
    return cmd_baseline(args, out)


def cmd_scan(args, out) -> int:
    transport, fp = _sweep(args, build_config(args))
    for addr in sorted(fp.hosts, key=int):
        rec = fp.hosts[addr]
        open_ports = ",".join(str(p) for p in sorted(rec.ports)
                              if rec.ports[p].value == "open")
        print(f"host {addr} {rec.alive.value} open=[{open_ports}]", file=out)
    print(f"scan {_summary(fp, transport)}", file=out)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(dumps_fingerprint(fp))
    return EXIT_OK


def cmd_monitor(args, out) -> int:
    config = build_config(args)
    transport = build_transport(args.backend, config)
    store = FingerprintStore(args.state_dir)
    if not store.has_trusted(config_digest(config)):
        raise NotFound("no trusted baseline for this config (run baseline first)")
    sink = build_sink(args)
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, lambda *_: stop.set())
    try:
        run_monitor(config, transport, store, sink,
                    stop=stop.is_set, max_epochs=args.epochs)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return EXIT_OK


def cmd_diff(args, out) -> int:
    config = build_config(args) if (args.config or args.address_range) else None
    try:
        # one file's bytes at a time, each dropped once parsed
        base, cur = (loads_fingerprint(Path(path).read_bytes())
                     for path in (args.fileA, args.fileB))
    except OSError as exc:
        raise CorruptRecord(f"cannot read fingerprint: {exc}") from exc
    if config is None:
        # thresholds only; the range is irrelevant for a file-to-file diff
        config = ScanConfig(address_range=AddressRange.parse("0.0.0.0-255.255.255.255"))
    events = diff(replace(base, trusted=True), cur, config)
    for event in events:
        if args.format == "lines":
            print(format_intrusion("diff", 0, 0, event), file=out)
        else:
            port = f" port {event.port}" if event.port is not None else ""
            print(f"{event.kind.wire_name} {event.address}{port} "
                  f"({event.baseline_value} -> {event.observed_value})", file=out)
    return EXIT_EVENTS if events else EXIT_OK


def _print_rates(counters, out) -> None:
    print("# per-second packet rates", file=out)
    print("sec " + " ".join(PACKET_CLASSES) + " bytes", file=out)
    columns = counters.per_second
    for sec, *row in zip(counters.seconds(), *(columns[cls] for cls in PACKET_CLASSES)):
        print(f"{sec} {' '.join(map(str, row))} {counters.second_bytes(sec)}", file=out)


def _print_peaks(counters, out) -> None:
    tcp = counters.peak(TCP_CLASSES)
    # every TCP class is a control segment of TCP_CONTROL_BYTES
    print(f"peak discovery_pps={counters.peak(DISCOVERY_CLASSES)} tcp_pps={tcp} "
          f"tcp_bytes_per_s={tcp * TCP_CONTROL_BYTES} "
          f"total_packets={counters.total_packets()} total_bytes={counters.total_bytes()}",
          file=out)


def cmd_simulate(args, out) -> int:
    if args.backend is not None:
        raise ValueError("simulate runs the scenario it names; --backend does not apply")
    config = build_config(args)
    transport = build_transport(f"sim:{args.scenario}", config)
    with (nullcontext(args.state_dir) if args.state_dir
          else tempfile.TemporaryDirectory(prefix="edgemap-sim-")) as state_dir:
        store = FingerprintStore(state_dir)
        sink = build_sink(args, stream=out)
        run_monitor(config, transport, store, sink, max_epochs=args.epochs)
    if args.rates != "none":
        _print_rates(transport.counters, out)
    _print_peaks(transport.counters, out)
    tags = classify_scenario(sink.kinds)
    print("tags " + ",".join(sorted(tag.value for tag in tags)), file=out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--backend", default="os", help="os (default) or sim:<scenario-file>")
    parser.add_argument("--seed", help="fixed PRNG seed")
    parser.add_argument("--range", dest="address_range", help="IPv4 range a-b or CIDR")
    parser.add_argument("--ports", dest="port_range", help="port interval lo-hi")
    parser.add_argument("--ping-delay", dest="ping_delay", help="e.g. 100ms")
    parser.add_argument("--port-delay", dest="port_delay", help="e.g. 100ms")
    parser.add_argument("--rescan-interval", dest="rescan_interval", help="e.g. 300s")
    parser.add_argument("--syn", dest="syn_scan", action="store_const", const="on",
                        help="use SYN scanning")
    parser.add_argument("--sink", action="append",
                        help="stdout, file:<path> or udp:<host>:<port> (repeatable)")
    parser.add_argument("--node-id", dest="node_id", default="edgemap")
    parser.add_argument("--state-dir", dest="state_dir", default="edgemap-state",
                        help="fingerprint store directory")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemap",
        description="Active network scanning with trusted-baseline intrusion detection")
    sub = parser.add_subparsers(dest="command", required=True)
    # built once and shared by the live commands; simulate builds its own,
    # since its set_defaults would rewrite the shared actions' defaults
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common)

    p = sub.add_parser("baseline", parents=[common],
                       help="learn and persist the trusted fingerprint")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rebaseline", parents=[common],
                       help="deliberately replace the trusted fingerprint")
    p.add_argument("--force", action="store_true", required=True,
                   help="required; baseline replacement is a deliberate act")
    p.set_defaults(func=cmd_rebaseline)

    p = sub.add_parser("scan", parents=[common], help="one sweep, print results")
    p.add_argument("--out", help="write the fingerprint to this file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("monitor", parents=[common],
                       help="continuous monitoring against the baseline")
    p.add_argument("--epochs", type=int, default=None,
                   help="stop after N sweeps (default: run until signalled)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("diff", help="compare two fingerprint files")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--config", help="config file for anomaly thresholds")
    p.add_argument("--range", dest="address_range",
                   help="IPv4 range (threshold config only)")
    p.add_argument("--format", choices=("human", "lines"), default="human")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("simulate",
                       help="run the monitor loop against a scripted simulated network")
    p.add_argument("scenario", help="scenario file")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=2, help="monitoring sweeps to run")
    p.add_argument("--rates", choices=("full", "none"), default="full",
                   help="per-second packet rate table")
    # unlike the live commands, simulation state is throwaway by default, and
    # the backend is always the scenario named
    p.set_defaults(func=cmd_simulate, state_dir=None, backend=None)
    return parser


def main(argv=None, out=None) -> int:
    args = make_parser().parse_args(argv)
    if out is None:
        out = sys.stdout
    try:
        return args.func(args, out)
    except tuple(exc_type for exc_type, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for exc_type, code in EXIT_CODES if isinstance(exc, exc_type))


if __name__ == "__main__":
    sys.exit(main())
