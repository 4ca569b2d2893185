"""Pseudo-random scan ordering, startup jitter, and the monitor loop."""

from __future__ import annotations

from dataclasses import dataclass, field

from .diffing import diff
from .errors import NotFound
from .model import ScanConfig, config_digest
from .probe import SweepAborted, full_sweep
from .rng import Prng
from .sink import Severity
from .timebase import MILLISECOND

# epoch files kept per config digest; a /24 epoch on ports 1-1024 is about 12 KB
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


def _wait(clock, duration: int, stop) -> None:
    """Sleep `duration`.  With a stop given, wake every 100 ms to read it,
    and raise SweepAborted once it is set; without one, sleep once."""
    if stop is None:
        clock.sleep(duration)
        return
    deadline = clock.now() + duration
    while not stop():
        left = deadline - clock.now()
        if left <= 0:
            return
        clock.sleep(min(100 * MILLISECOND, left))
    raise SweepAborted


def run_monitor(config: ScanConfig, transport, store, sink,
                stop=None, max_epochs=None) -> int:
    """The continuous scan loop.

    Reads the trusted baseline first, so a corrupt one fails before the
    startup jitter is waited out.  Learns the baseline if the store has
    none for this config (the store marks it trusted; a failed baseline
    sweep raises and leaves nothing trusted), then sweeps every rescan
    interval and diffs each result against the baseline.  Epochs are
    numbered on from the highest one the store holds, and it keeps only
    the newest KEEP_EPOCHS.  A failed sweep (not diffed, not stored),
    store write or delete is an operational warning and the loop goes on.
    A stop request (SweepAborted, within 100 ms of a wait or before the
    next probe) or the epoch budget ends it; an interrupted epoch stores
    nothing.  Returns the number of epochs finished.  A negative budget
    is refused before anything is read or waited.
    """
    if max_epochs is not None and max_epochs < 0:
        raise ValueError(f"epoch budget cannot be negative, got {max_epochs}")
    clock = transport.clock
    rng = Prng(config.seed)
    digest = config_digest(config)

    try:
        trusted = store.load_trusted(digest)
    except NotFound:
        trusted = None

    def warn(message):
        sink.emit_operational(message, epoch=epoch, ts=clock.now(),
                              severity=Severity.WARNING)

    schedule = make_schedule(config, rng)
    first = epoch = 0
    try:
        _wait(clock, schedule.startup_delay, stop)
        if trusted is None:
            trusted = full_sweep(config, transport, schedule, stop)
            store.save_trusted(trusted)
            sink.emit_operational(
                f"baseline recorded: hosts={len(trusted.hosts)} "
                f"open_ports={trusted.open_port_count()}",
                epoch=0, ts=clock.now())

        # each epoch number the loop passes takes epoch k - KEEP_EPOCHS with
        # it, stored or not; older leftovers of an earlier run go here, once
        first = epoch = store.resume_epochs(digest, KEEP_EPOCHS)
        while max_epochs is None or epoch - first < max_epochs:
            _wait(clock, config.rescan_interval, stop)
            schedule = make_schedule(config, rng)
            try:
                fp = full_sweep(config, transport, schedule, stop)
            except Exception as exc:  # a stop request is no Exception
                warn(f"sweep failed: {exc}")
            else:
                for event in diff(trusted, fp, config):
                    sink.emit_intrusion(event, epoch=epoch, ts=clock.now())
                try:
                    store.save_epoch(fp, epoch)
                except OSError as exc:
                    warn(f"store write failed: {exc}")
            try:
                store.delete_epoch(digest, epoch - KEEP_EPOCHS)
            except OSError as exc:
                warn(f"store delete failed: {exc}")
            epoch += 1
    except SweepAborted:
        pass
    return epoch - first
