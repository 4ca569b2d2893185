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
from .model import AddressRange, EventKind, ScanConfig, config_digest
from .osnet import OsNetwork
from .probe import full_sweep
from .rng import Prng
from .scheduler import make_schedule, run_monitor
from .sink import EventSink, FileOutput, StdoutOutput, UdpOutput, format_intrusion
from .store import FingerprintStore, dumps_fingerprint, loads_fingerprint
from .timebase import SECOND, format_duration, parse_duration
from .transport import DISCOVERY_CLASSES, PACKET_CLASSES, TCP_CLASSES

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

_DURATION_KEYS = {"ping_delay", "port_delay", "startup_delay_min",
                  "startup_delay_max", "rescan_interval", "rtt_anomaly_floor",
                  "connect_timeout", "ping_timeout"}
_BOOL_KEYS = {"scan_silent_hosts", "banner_grab", "syn_scan"}
_INT_KEYS = {"seed", "banner_max_bytes"}


def _parse_ports(text: str) -> tuple:
    lo, _, hi = text.partition("-")
    return (int(lo), int(hi)) if hi else (int(lo), int(lo))


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


def _coerce(key: str, value: str):
    if key == "address_range":
        return AddressRange.parse(value)
    if key == "port_range":
        return _parse_ports(value)
    if key in _DURATION_KEYS:
        return parse_duration(value)
    if key in _BOOL_KEYS:
        return value.lower() in ("1", "true", "yes", "on")
    if key in _INT_KEYS:
        return int(value)
    if key == "rtt_anomaly_factor":
        return float(value)
    raise ValueError(f"unknown config key {key!r}")


def build_config(args) -> ScanConfig:
    values = {}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            values[key] = _coerce(key, raw)
    if getattr(args, "range", None):
        values["address_range"] = AddressRange.parse(args.range)
    if getattr(args, "ports", None):
        values["port_range"] = _parse_ports(args.ports)
    for flag, key in (("ping_delay", "ping_delay"), ("port_delay", "port_delay"),
                      ("rescan_interval", "rescan_interval")):
        raw = getattr(args, flag, None)
        if raw is not None:
            values[key] = parse_duration(raw)
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    if getattr(args, "syn", False):
        values["syn_scan"] = True
    if "address_range" not in values:
        raise ValueError("an address range is required (--range or config file)")
    return ScanConfig(**values)


def build_transport(args, config: ScanConfig):
    backend = getattr(args, "backend", None) or "os"
    if backend == "os":
        return OsNetwork()
    if backend.startswith("sim:"):
        scn = scenario_mod.load(backend[4:])
        seed = config.seed if config.seed is not None else 0
        return scn.build(seed=seed)
    raise ValueError(f"unknown backend {backend!r} (use 'os' or 'sim:<scenario>')")


def build_sink(args, stream=None) -> EventSink:
    outputs = []
    specs = list(getattr(args, "sink", None) or [])
    if not any(spec.startswith("udp:") for spec in specs) and os.environ.get(LOGGER_ENV):
        specs.append("udp:" + os.environ[LOGGER_ENV])
    if not specs:
        specs = ["stdout"]
    for spec in specs:
        if spec == "stdout":
            outputs.append(StdoutOutput(stream))
        elif spec.startswith("file:"):
            outputs.append(FileOutput(spec[5:]))
        elif spec.startswith("udp:"):
            host, _, port = spec[4:].rpartition(":")
            outputs.append(UdpOutput(host, int(port)))
        else:
            raise ValueError(f"unknown sink {spec!r}")
    return EventSink(tuple(outputs), node_id=getattr(args, "node_id", "edgemap"))


def _sweep(args, config):
    """One sweep on a fresh transport; returns it with the fingerprint."""
    transport = build_transport(args, config)
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
    store = FingerprintStore(args.state_dir)
    if not store.has_trusted(config_digest(config)):
        raise NotFound("no trusted baseline for this config (run baseline first)")
    transport = build_transport(args, config)
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
    config = build_config(args) if (args.config or args.range) else None
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
    for sec in counters.seconds():
        row = " ".join(str(counters.per_second[cls].get(sec, 0))
                       for cls in PACKET_CLASSES)
        print(f"{sec} {row} {counters.second_bytes(sec)}", file=out)


def _peak(buckets, classes) -> int:
    """Busiest second of the classes' summed per-second buckets."""
    totals = {}
    for cls in classes:
        for sec, n in buckets[cls].items():
            totals[sec] = totals.get(sec, 0) + n
    return max(totals.values(), default=0)


def _print_peaks(counters, out) -> None:
    disc = _peak(counters.per_second, DISCOVERY_CLASSES)
    tcp = _peak(counters.per_second, TCP_CLASSES)
    tcp_bytes = _peak(counters.per_second_bytes, TCP_CLASSES)
    print(f"peak discovery_pps={disc} tcp_pps={tcp} tcp_bytes_per_s={tcp_bytes} "
          f"total_packets={counters.total_packets()} total_bytes={counters.total_bytes()}",
          file=out)


def cmd_simulate(args, out) -> int:
    if not args.backend or not args.backend.startswith("sim:"):
        args.backend = f"sim:{args.scenario}"
    config = build_config(args)
    transport = build_transport(args, config)
    tags = set()
    with (nullcontext(args.state_dir) if args.state_dir
          else tempfile.TemporaryDirectory(prefix="edgemap-sim-")) as state_dir:
        store = FingerprintStore(state_dir)
        sink = build_sink(args, stream=out)
        # every epoch with events reaches the hook, so the tags cover the run
        sink.trigger_kinds = frozenset(EventKind)
        sink.safe_state_callback = lambda events: tags.update(classify_scenario(events))
        run_monitor(config, transport, store, sink, max_epochs=args.epochs)
    if args.rates != "none":
        _print_rates(transport.counters, out)
    _print_peaks(transport.counters, out)
    tags = tags or classify_scenario(())
    print("tags " + ",".join(sorted(tag.value for tag in tags)), file=out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--backend", help="os or sim:<scenario-file>")
    parser.add_argument("--seed", type=int, help="fixed PRNG seed")
    parser.add_argument("--range", help="IPv4 range a-b or CIDR")
    parser.add_argument("--ports", help="port interval lo-hi")
    parser.add_argument("--ping-delay", dest="ping_delay", help="e.g. 100ms")
    parser.add_argument("--port-delay", dest="port_delay", help="e.g. 100ms")
    parser.add_argument("--rescan-interval", dest="rescan_interval", help="e.g. 300s")
    parser.add_argument("--syn", action="store_true", help="use SYN scanning")
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

    p = sub.add_parser("baseline", help="learn and persist the trusted fingerprint")
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rebaseline", help="deliberately replace the trusted fingerprint")
    _add_common(p)
    p.add_argument("--force", action="store_true", required=True,
                   help="required; baseline replacement is a deliberate act")
    p.set_defaults(func=cmd_rebaseline)

    p = sub.add_parser("scan", help="one sweep, print results")
    _add_common(p)
    p.add_argument("--out", help="write the fingerprint to this file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("monitor", help="continuous monitoring against the baseline")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None,
                   help="stop after N sweeps (default: run until signalled)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("diff", help="compare two fingerprint files")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--config", help="config file for anomaly thresholds")
    p.add_argument("--range", help="IPv4 range (threshold config only)")
    p.add_argument("--format", choices=("human", "lines"), default="human")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("simulate",
                       help="run the monitor loop against a scripted simulated network")
    p.add_argument("scenario", help="scenario file")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=2, help="monitoring sweeps to run")
    p.add_argument("--rates", choices=("full", "none"), default="full",
                   help="per-second packet rate table")
    # unlike the live commands, simulation state is throwaway by default
    p.set_defaults(func=cmd_simulate, state_dir=None)
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
