"""Pseudo-random scan ordering, startup jitter, and the monitor loop."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .diffing import diff
from .errors import NotFound
from .model import ScanConfig, config_digest
from .probe import SweepAborted, full_sweep
from .rng import Prng
from .sink import Severity
from .timebase import MILLISECOND

# epoch files kept per config digest; a /24 epoch is about 1 MB
KEEP_EPOCHS = 100


@dataclass
class ScanSchedule:
    """One epoch's pseudo-random scan plan.

    Host order is a fresh Fisher-Yates permutation of the address range.
    Port orders are drawn lazily, one per call, from the schedule's own
    PRNG stream, so a /24 sweep does not materialize a thousand-entry
    permutation for every silent address up front.
    """

    host_order: tuple
    startup_delay: int
    port_range: tuple
    _rng: Prng = field(repr=False, default=None)

    def port_order(self, address) -> tuple:
        ports = list(range(self.port_range[0], self.port_range[1] + 1))
        return tuple(self._rng.shuffle(ports))


def make_schedule(config: ScanConfig, rng: Prng) -> ScanSchedule:
    """Draw a fresh schedule from the PRNG stream; fixed seed reproduces it."""
    addresses = list(config.address_range)
    rng.shuffle(addresses)
    startup = rng.uniform_int(config.startup_delay_min, config.startup_delay_max)
    return ScanSchedule(host_order=tuple(addresses), startup_delay=startup,
                        port_range=config.port_range, _rng=rng)


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


def run_monitor(config: ScanConfig, transport, store, sink,
                stop=None, max_epochs=None) -> int:
    """The continuous scan loop.

    Reads the trusted baseline first, so a corrupt one fails before the
    startup jitter is waited out.  Learns the baseline if the store has
    none for this config, then sweeps every rescan interval and diffs
    each result against the trusted baseline.  Epochs are numbered on
    from the highest one the store already holds, and the store keeps
    only the newest KEEP_EPOCHS of them.  A failed sweep (not
    diffed, not stored) or store write becomes an operational event and
    the loop carries on; only a stop request (or the epoch budget, when
    set) ends it, or a failed baseline sweep, which leaves nothing trusted.
    Returns the number of epochs run; events leave only through the sink.
    """
    clock = transport.clock
    rng = Prng(config.seed)
    digest = config_digest(config)

    try:
        trusted = store.load_trusted(digest)
    except NotFound:
        trusted = None

    schedule = make_schedule(config, rng)
    if _wait(clock, schedule.startup_delay, stop):
        return 0

    if trusted is None:
        try:
            fp = full_sweep(config, transport, schedule, stop)
        except SweepAborted:
            return 0
        trusted = replace(fp, trusted=True)
        store.save_trusted(trusted)
        sink.emit_operational(
            f"baseline recorded: hosts={len(trusted.hosts)} "
            f"open_ports={trusted.open_port_count()}",
            epoch=0, ts=clock.now())

    # each epoch number the loop passes takes epoch k - KEEP_EPOCHS with
    # it, stored or not; older leftovers of an earlier run go here, once
    first = epoch = store.latest_epoch(digest) + 1
    store.prune_epochs(digest, through=first - KEEP_EPOCHS)
    while max_epochs is None or epoch - first < max_epochs:
        if _wait(clock, config.rescan_interval, stop):
            break
        schedule = make_schedule(config, rng)
        try:
            fp = full_sweep(config, transport, schedule, stop)
        except SweepAborted:
            break
        except Exception as exc:
            sink.emit_operational(f"sweep failed: {exc}", epoch=epoch, ts=clock.now(),
                                  severity=Severity.WARNING)
        else:
            events = diff(trusted, fp, config, epoch=epoch)
            for event in events:
                sink.emit_intrusion(event, ts=clock.now())
            try:
                store.save_epoch(fp, epoch)
            except OSError as exc:
                sink.emit_operational(f"store write failed: {exc}", epoch=epoch,
                                      ts=clock.now(), severity=Severity.WARNING)
        try:
            store.delete_epoch(digest, epoch - KEEP_EPOCHS)
        except OSError as exc:
            sink.emit_operational(f"store delete failed: {exc}", epoch=epoch,
                                  ts=clock.now(), severity=Severity.WARNING)
        epoch += 1
    return epoch - first
