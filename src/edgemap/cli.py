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
from pathlib import Path

from . import scenario as scenario_mod
from .diffing import classify_scenario, diff
from .errors import (CapabilityUnsupported, CorruptRecord, IncomparableFingerprints,
                     MalformedScript, NotFound, TransportDown, TrustedAlreadyExists)
from .model import OPEN_CODE, AddressRange, ScanConfig, config_digest, dotted_quad
from .osnet import OsNetwork
from .probe import full_sweep
from .rng import Prng
from .scheduler import make_schedule, run_monitor
from .sink import format_intrusion, open_sink
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
# means the transport or the local state (state dir, --out, config file, file sink).
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
# the live commands' store when no --state-dir is given; simulate's is throwaway
STATE_DIR = "edgemap-state"


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
            if key in values:
                raise ValueError(f"{path}:{lineno}: config key {key!r} given twice")
            values[key] = value
    return values


def build_config(args) -> ScanConfig:
    """The config file's values over the command's defaults, with the flags
    given over both."""
    text = {**getattr(args, "config_defaults", {}),
            **(load_config_file(args.config) if args.config else {})}
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


def build_transport(backend, config: ScanConfig):
    if backend in (None, "os"):  # None: no --backend given
        if config.syn_scan:
            # refused before any probe, not at the first host that answers
            raise CapabilityUnsupported("the os backend runs unprivileged; SYN scan unavailable")
        return OsNetwork()
    if backend.startswith("sim:"):
        return scenario_mod.load(backend[4:]).build(seed=config.seed or 0)
    raise ValueError(f"unknown backend {backend!r} (use 'os' or 'sim:<scenario>')")


def build_sink(args, stream=None):
    """The --sink outputs, plus the EDGEMAP_LOGGER one if no UDP output is given; or stdout."""
    specs = list(args.sink or [])
    if not any(spec.startswith("udp:") for spec in specs) and os.environ.get(LOGGER_ENV):
        specs.append("udp:" + os.environ[LOGGER_ENV])
    return open_sink(specs or ["stdout"], args.node_id, stream)


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
    """`baseline`, or with --force `rebaseline`, which replaces the old after the sweep."""
    config = build_config(args)
    store = FingerprintStore(args.state_dir or STATE_DIR)
    force = getattr(args, "force", False)
    replacing = store.has_trusted(config_digest(config))
    if replacing and not force:
        raise TrustedAlreadyExists("trusted baseline already exists (use rebaseline --force)")
    transport, fp = _sweep(args, config)
    store.save_trusted(fp, force=force)
    if replacing:
        print("previous trusted baseline discarded", file=out)
    print(f"baseline {_summary(fp, transport)}", file=out)
    return EXIT_OK


def cmd_scan(args, out) -> int:
    transport, fp = _sweep(args, build_config(args))
    for addr in sorted(fp.hosts, key=int):
        rec = fp.hosts[addr]
        first, codes = rec.ports.first, rec.ports.codes
        open_ports = ",".join(str(first + i) for i, code in enumerate(codes) if code == OPEN_CODE)
        print(f"host {addr} {rec.alive} open=[{open_ports}]", file=out)
    print(f"scan {_summary(fp, transport)}", file=out)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(dumps_fingerprint(fp))
    return EXIT_OK


def cmd_monitor(args, out) -> int:
    config = build_config(args)
    sink = build_sink(args)
    transport = build_transport(args.backend, config)
    store = FingerprintStore(args.state_dir or STATE_DIR)
    if not store.has_trusted(config_digest(config)):
        raise NotFound("no trusted baseline for this config (run baseline first)")
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
    config = build_config(args)
    try:
        # one file's bytes at a time, each dropped once parsed
        base, cur = (loads_fingerprint(Path(path).read_bytes())
                     for path in (args.fileA, args.fileB))
    except OSError as exc:
        raise CorruptRecord(f"cannot read fingerprint: {exc}") from exc
    events = diff(base, cur, config)
    for event in events:
        if args.format == "lines":
            print(format_intrusion("diff", 0, 0, event), file=out)
        else:
            port = f" port {event.port}" if event.port is not None else ""
            print(f"{event.kind.value} {dotted_quad(event.address)}{port} "
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
    sink = build_sink(args, stream=out)
    transport = build_transport(f"sim:{args.scenario}", config)
    with (nullcontext(args.state_dir) if args.state_dir
          else tempfile.TemporaryDirectory(prefix="edgemap-sim-")) as state_dir:
        store = FingerprintStore(state_dir)
        run_monitor(config, transport, store, sink, max_epochs=args.epochs)
    if args.rates != "none":
        _print_rates(transport.counters, out)
    _print_peaks(transport.counters, out)
    print("tags " + ",".join(sorted(classify_scenario(sink.kinds))), file=out)
    return EXIT_OK


def _flag_sets() -> tuple:
    """The flags the commands share, as three parent parsers: the scan
    settings, the fingerprint store, and the event outputs.  A command
    takes only the sets it reads, so argparse refuses any other flag."""
    scanning = argparse.ArgumentParser(add_help=False)
    scanning.add_argument("--config", help="key=value config file")
    scanning.add_argument("--backend", help="os (default) or sim:<scenario-file>")
    scanning.add_argument("--seed", help="fixed PRNG seed")
    scanning.add_argument("--range", dest="address_range", help="IPv4 range a-b or CIDR")
    scanning.add_argument("--ports", dest="port_range", help="port interval lo-hi")
    scanning.add_argument("--ping-delay", dest="ping_delay", help="e.g. 100ms")
    scanning.add_argument("--port-delay", dest="port_delay", help="e.g. 100ms")
    scanning.add_argument("--rescan-interval", dest="rescan_interval", help="e.g. 300s")
    scanning.add_argument("--syn", dest="syn_scan", action="store_const", const="on",
                          help="use SYN scanning")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--state-dir", dest="state_dir", help="fingerprint store directory "
                       f"(default: {STATE_DIR}; simulate: a throwaway one)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--sink", action="append",
                        help="stdout, file:<path> or udp:<host>:<port> (repeatable)")
    output.add_argument("--node-id", dest="node_id", default="edgemap")
    return scanning, state, output


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemap",
        description="Active network scanning with trusted-baseline intrusion detection")
    sub = parser.add_subparsers(dest="command", required=True)
    # built once and shared by the commands that take them, so no command's
    # set_defaults may name a shared flag: it would rewrite the shared action
    scanning, state, output = _flag_sets()

    p = sub.add_parser("baseline", parents=[scanning, state],
                       help="learn and persist the trusted fingerprint")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("rebaseline", parents=[scanning, state],
                       help="deliberately replace the trusted fingerprint")
    p.add_argument("--force", action="store_true", required=True,
                   help="required; baseline replacement is a deliberate act")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("scan", parents=[scanning], help="one sweep, print results")
    p.add_argument("--out", help="write the fingerprint to this file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("monitor", parents=[scanning, state, output],
                       help="continuous monitoring against the baseline")
    p.add_argument("--epochs", type=int, default=None,
                   help="stop after N sweeps (default: run until signalled)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("diff", help="compare two fingerprint files")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--config", help="config file for anomaly thresholds")
    p.add_argument("--format", choices=("human", "lines"), default="human")
    # a file-to-file diff reads only the anomaly thresholds; each record's
    # config digest says what it swept, so any range serves
    p.set_defaults(func=cmd_diff,
                   config_defaults={"address_range": "0.0.0.0-255.255.255.255"})

    p = sub.add_parser("simulate", parents=[scanning, state, output],
                       help="run the monitor loop against a scripted simulated network")
    p.add_argument("scenario", help="scenario file")
    p.add_argument("--epochs", type=int, default=2, help="monitoring sweeps to run")
    p.add_argument("--rates", choices=("full", "none"), default="full",
                   help="per-second packet rate table")
    p.set_defaults(func=cmd_simulate)
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
