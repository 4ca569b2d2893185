"""Pseudo-random scan ordering, startup jitter, and the monitor loop."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diffing import diff
from .errors import NotFound
from .model import ScanConfig, config_digest
from .probe import SweepAborted, full_sweep
from .rng import Prng
from .sink import OperationalEvent, Severity
from .timebase import MILLISECOND


@dataclass
class ScanSchedule:
    """One epoch's pseudo-random scan plan.

    Host order is a fresh Fisher-Yates permutation of the address range.
    Port orders are drawn lazily per host from the schedule's own PRNG
    stream, so a /24 sweep does not materialize a thousand-entry
    permutation for every silent address up front.
    """

    host_order: tuple
    startup_delay: int
    epoch: int
    port_range: tuple
    _rng: Prng = field(repr=False, default=None)
    _port_orders: dict = field(default_factory=dict, repr=False)

    def port_order(self, address) -> tuple:
        if address not in self._port_orders:
            ports = list(range(self.port_range[0], self.port_range[1] + 1))
            self._port_orders[address] = tuple(self._rng.shuffle(ports))
        return self._port_orders[address]


def make_schedule(config: ScanConfig, rng: Prng, epoch: int = 0) -> ScanSchedule:
    """Draw a fresh schedule from the PRNG stream; fixed seed reproduces it."""
    addresses = list(config.address_range)
    rng.shuffle(addresses)
    startup = rng.uniform_int(config.startup_delay_min, config.startup_delay_max)
    return ScanSchedule(host_order=tuple(addresses), startup_delay=startup,
                        epoch=epoch, port_range=config.port_range, _rng=rng)


def _wait(clock, duration: int, stop) -> bool:
    """Sleep, staying responsive to stop requests; True if interrupted."""
    if clock.is_virtual:
        if stop is not None and stop():
            return True
        clock.sleep(duration)
        return stop is not None and stop()
    deadline = clock.now() + duration
    while clock.now() < deadline:
        if stop is not None and stop():
            return True
        clock.sleep(min(100 * MILLISECOND, deadline - clock.now()))
    return stop is not None and stop()


@dataclass
class MonitorResult:
    epochs_run: int
    events: list


def run_monitor(config: ScanConfig, transport, store, sink,
                stop=None, max_epochs=None) -> MonitorResult:
    """The continuous scan loop.

    Waits out the startup jitter, learns the trusted baseline if the
    store has none for this config, then sweeps every rescan interval and
    diffs each result against the trusted baseline.  Epochs are numbered
    on from the highest one the store already holds.  Store or transport
    trouble becomes an operational event and the loop carries on; only a
    stop request (or the epoch budget, when set) ends it.
    """
    clock = transport.clock
    rng = Prng(config.seed)
    digest = config_digest(config)
    all_events = []

    schedule = make_schedule(config, rng, epoch=0)
    if _wait(clock, schedule.startup_delay, stop):
        return MonitorResult(0, all_events)

    try:
        trusted = store.load_trusted(digest)
    except NotFound:
        trusted = None

    if trusted is None:
        try:
            fp = full_sweep(config, transport, schedule, stop)
        except SweepAborted:
            return MonitorResult(0, all_events)
        trusted = replace(fp, trusted=True)
        store.save_trusted(trusted)
        sink.emit_operational(
            OperationalEvent(
                f"baseline recorded: hosts={len(trusted.hosts)} "
                f"open_ports={trusted.open_port_count()}"),
            epoch=0, ts=clock.now())

    epoch = store.latest_epoch(digest) + 1
    epochs_run = 0
    while max_epochs is None or epochs_run < max_epochs:
        if _wait(clock, config.rescan_interval, stop):
            break
        schedule = make_schedule(config, rng, epoch=epoch)
        try:
            fp = full_sweep(config, transport, schedule, stop)
        except SweepAborted:
            break
        except Exception as exc:
            sink.emit_operational(
                OperationalEvent(f"sweep failed: {exc}", Severity.WARNING),
                epoch=epoch, ts=clock.now())
            epoch += 1
            epochs_run += 1
            continue
        events = diff(trusted, fp, config, epoch=epoch)
        for event in events:
            sink.emit_intrusion(event, ts=clock.now())
        sink.end_epoch(events, epoch, ts=clock.now())
        try:
            store.save_epoch(fp, epoch)
        except OSError as exc:
            sink.emit_operational(
                OperationalEvent(f"store write failed: {exc}", Severity.WARNING),
                epoch=epoch, ts=clock.now())
        all_events.extend(events)
        epoch += 1
        epochs_run += 1
    return MonitorResult(epochs_run, all_events)
