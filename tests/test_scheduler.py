import ipaddress
import math
import os
import tracemalloc

import pytest

from edgemap.errors import CorruptRecord, TransportDown
from edgemap.model import AddressRange
from edgemap.rng import Prng
from edgemap.scheduler import KEEP_EPOCHS, make_schedule, run_monitor
from edgemap.simnet import SimHostSpec, SimNetwork
from edgemap.sink import EventSink, parse_line
from edgemap.store import FingerprintStore, loads_fingerprint
from edgemap.model import config_digest
from conftest import small_config

A = ipaddress.IPv4Address
SEC = 1_000_000


class TestMakeSchedule:
    def test_host_order_is_a_permutation(self):
        cfg = small_config(address_range=AddressRange.parse("10.1.0.1-10.1.0.50"))
        schedule = make_schedule(cfg, Prng(1))
        assert sorted(schedule.host_order, key=int) == list(cfg.address_range)

    def test_each_port_order_is_a_permutation_and_hosts_differ(self):
        cfg = small_config()
        schedule = make_schedule(cfg, Prng(1))
        orders = [schedule.port_order(a) for a in schedule.host_order]
        for order in orders:
            assert sorted(order) == list(range(1, 17))
        assert len(set(orders)) > 1

    def test_startup_delay_within_bounds(self):
        cfg = small_config(startup_delay_min=60 * SEC, startup_delay_max=300 * SEC)
        for seed in range(50):
            schedule = make_schedule(cfg, Prng(seed))
            assert 60 * SEC <= schedule.startup_delay <= 300 * SEC

    def test_fixed_seed_reproduces_schedule(self):
        cfg = small_config(address_range=AddressRange.parse("10.1.0.1-10.1.0.40"))
        a = make_schedule(cfg, Prng(99))
        b = make_schedule(cfg, Prng(99))
        assert a.host_order == b.host_order
        assert a.startup_delay == b.startup_delay
        assert all(a.port_order(x) == b.port_order(x) for x in a.host_order)

    def test_consecutive_epochs_differ(self):
        cfg = small_config(address_range=AddressRange.parse("10.1.0.1-10.1.0.40"))
        rng = Prng(5)
        a = make_schedule(cfg, rng)
        b = make_schedule(cfg, rng)
        assert a.host_order != b.host_order


def base_specs():
    return [
        SimHostSpec(address=A("10.0.0.1"), open_ports={22: b"SSH-2.0 one\r\n"}),
        SimHostSpec(address=A("10.0.0.2"), open_ports={13: None}),
    ]


class RecordingStore(FingerprintStore):
    """A store that lists the name of every file it writes."""

    def __init__(self, directory):
        super().__init__(directory)
        self.written = []

    def _write(self, path, fp, **kwargs):
        super()._write(path, fp, **kwargs)
        self.written.append(os.path.basename(path))


def intrusions(lines):
    return [f for f in map(parse_line, lines) if f["kind"] != "Operational"]


class IcmpGone(SimNetwork):
    """A network whose ICMP socket goes away at `down_at` on the scan clock."""

    down_at = math.inf

    def icmp_ping(self, target, timeout):
        if self.clock.now() >= self.down_at:
            raise TransportDown("no ICMP socket available")
        return super().icmp_ping(target, timeout)


class Outage(SimNetwork):
    """A network whose ICMP socket is gone for its next `sweeps_down` pings."""

    sweeps_down = 0

    def icmp_ping(self, target, timeout):
        if self.sweeps_down:
            self.sweeps_down -= 1
            raise TransportDown("no ICMP socket available")
        return super().icmp_ping(target, timeout)


def stored_epochs(tmp_path):
    names = (tmp_path / "state").glob("*.epoch*.fp")
    return sorted(int(path.name[-9:-3]) for path in names)


def make_parts(tmp_path, actions=(), cfg=None, net_cls=SimNetwork):
    cfg = cfg or small_config()
    net = net_cls(base_specs(), actions, seed=cfg.seed)
    store = RecordingStore(tmp_path / "state")
    lines = []

    class Capture:
        name = "capture"

        def write_line(self, line):
            lines.append(line)

    sink = EventSink((Capture(),), node_id="n1")
    return cfg, net, store, sink, lines


class TestRunMonitor:
    def test_learns_baseline_then_reports_quiet_epochs(self, tmp_path):
        cfg, net, store, sink, lines = make_parts(tmp_path)
        assert run_monitor(cfg, net, store, sink, max_epochs=2) == 2
        assert intrusions(lines) == []
        assert any("baseline recorded" in line for line in lines)
        digest = config_digest(cfg)
        assert store.has_trusted(digest)
        assert store.load_trusted(digest).trusted
        epochs = [name for name in store.written if "epoch" in name]
        latest = loads_fingerprint((tmp_path / "state" / epochs[-1]).read_bytes())
        assert len(epochs) == 2 and latest.trusted is False

    def test_trusted_written_exactly_once(self, tmp_path):
        cfg, net, store, sink, _ = make_parts(tmp_path)
        run_monitor(cfg, net, store, sink, max_epochs=3)
        trusted_writes = [n for n in store.written if "trusted" in n]
        assert len(trusted_writes) == 1
        epoch_writes = [n for n in store.written if "epoch" in n]
        assert len(epoch_writes) == 3

    def test_existing_baseline_is_reused(self, tmp_path):
        cfg, net, store, sink, lines = make_parts(tmp_path)
        run_monitor(cfg, net, store, sink, max_epochs=0)
        before = list(store.written)
        run_monitor(cfg, net, store, sink, max_epochs=1)
        assert [n for n in store.written if "trusted" in n] == \
            [n for n in before if "trusted" in n]

    def test_scripted_change_becomes_events(self, tmp_path):
        actions = ((40 * SEC, A("10.0.0.2"), None),)
        cfg, net, store, sink, lines = make_parts(tmp_path, actions)
        assert run_monitor(cfg, net, store, sink, max_epochs=2) == 2
        events = intrusions(lines)
        assert [e["kind"] for e in events] == ["HostRemoved", "HostRemoved"]
        assert all(e["addr"] == "10.0.0.2" for e in events)
        # epochs are stamped on the events in order
        assert [e["epoch"] for e in events] == ["1", "2"]

    def test_stop_before_baseline(self, tmp_path):
        cfg, net, store, sink, _ = make_parts(tmp_path)
        assert run_monitor(cfg, net, store, sink, stop=lambda: True) == 0
        assert store.written == []

    def test_sweep_failure_becomes_operational_event(self, tmp_path):
        cfg, net, store, sink, lines = make_parts(tmp_path)
        original = net.tcp_connect
        state = {"epoch": 0}

        def flaky(*args, **kw):
            if state["epoch"] == 1:
                raise RuntimeError("nic wedged")
            return original(*args, **kw)

        net.tcp_connect = flaky
        state["epoch"] = 0
        run_monitor(cfg, net, store, sink, max_epochs=0)  # baseline only
        state["epoch"] = 1
        assert run_monitor(cfg, net, store, sink, max_epochs=1) == 1
        assert intrusions(lines) == []
        assert any("sweep failed" in line for line in lines)

    def test_lost_transport_fails_the_sweep_not_the_hosts(self, tmp_path):
        cfg, net, store, sink, lines = make_parts(tmp_path, net_cls=IcmpGone)
        net.down_at = 40 * SEC  # after the baseline sweep, before epoch 1's
        assert run_monitor(cfg, net, store, sink, max_epochs=1) == 1
        assert len(store.load_trusted(config_digest(cfg)).hosts) == 2
        assert intrusions(lines) == []
        assert sum("sweep failed" in line for line in lines) == 1
        assert [n for n in store.written if "epoch" in n] == []

    def test_lost_transport_in_the_baseline_sweep_trusts_nothing(self, tmp_path):
        cfg, net, store, sink, _ = make_parts(tmp_path, net_cls=IcmpGone)
        net.down_at = 5 * SEC  # mid-way through the baseline sweep
        with pytest.raises(TransportDown):
            run_monitor(cfg, net, store, sink, max_epochs=1)
        assert store.written == []

    def test_corrupt_baseline_fails_before_the_startup_wait(self, tmp_path):
        cfg, net, store, sink, _ = make_parts(
            tmp_path, cfg=small_config(startup_delay_min=60 * SEC,
                                       startup_delay_max=60 * SEC))
        run_monitor(cfg, net, store, sink, max_epochs=0)
        trusted = tmp_path / "state" / f"{config_digest(cfg):016x}.trusted.fp"
        trusted.write_bytes(trusted.read_bytes()[:-5] + b"XXXX\n")
        net = SimNetwork(base_specs(), (), seed=cfg.seed)
        with pytest.raises(CorruptRecord):
            run_monitor(cfg, net, store, sink, max_epochs=1)
        assert net.clock.now() == 0

    def test_only_the_newest_epoch_files_stay(self, tmp_path):
        cfg, net, store, sink, _ = make_parts(tmp_path)
        assert KEEP_EPOCHS == 100
        assert run_monitor(cfg, net, store, sink, max_epochs=1000) == 1000
        assert stored_epochs(tmp_path) == list(range(901, 1001))
        # a restart numbers on from the newest kept epoch, and a leftover
        # older than the window goes at start
        store.save_epoch(store.load_trusted(config_digest(cfg)), 5)
        assert run_monitor(cfg, net, store, sink, max_epochs=2) == 2
        assert stored_epochs(tmp_path) == list(range(903, 1003))

    def test_epochs_without_a_file_still_move_the_window(self, tmp_path):
        cfg, net, store, sink, lines = make_parts(tmp_path, net_cls=Outage)

        class Store(RecordingStore):
            def save_epoch(self, fp, epoch):
                if epoch == 140:
                    raise OSError("disk full")
                super().save_epoch(fp, epoch)
                if epoch == 119:
                    net.sweeps_down = 10

        store = Store(tmp_path / "state")
        assert run_monitor(cfg, net, store, sink, max_epochs=150) == 150
        failed = {int(parse_line(line)["epoch"]) for line in lines
                  if "sweep failed" in line or "store write failed" in line}
        assert 140 in failed and len(failed) > 1
        assert stored_epochs(tmp_path) == [e for e in range(51, 151) if e not in failed]

    def test_virtual_time_progression(self, tmp_path):
        cfg, net, store, sink, _ = make_parts(
            tmp_path, cfg=small_config(startup_delay_min=2 * SEC,
                                       startup_delay_max=2 * SEC))
        run_monitor(cfg, net, store, sink, max_epochs=1)
        # startup jitter + baseline sweep + one rescan interval + one sweep
        assert net.clock.now() >= 2 * SEC + cfg.rescan_interval


def test_monitor_memory_stays_flat(tmp_path):
    """A long run keeps no per-epoch history in memory.

    Every epoch emits one event, so a list of events, sink reports or
    store writes would grow by an entry an epoch.  Counted: what edgemap's
    own lines allocated and still hold.  Left out: the interpreter's own
    tables, which resize in steps (the interned strings behind pathlib,
    for one).  The packet counters (transport.py) still gain a row per
    busy second: an 8-byte second, a 2-byte count per packet class and a
    2-byte banner byte sum, about 31 bytes with the arrays' spare room.
    That is held here to 64 bytes per busy second.  A running peak per
    class group (ROADMAP item 1) would remove the growth.
    """
    snapshots = {}
    busy_seconds = {}

    class Measuring(FingerprintStore):
        def save_epoch(self, fp, epoch):
            super().save_epoch(fp, epoch)
            if epoch in (100, 1000):
                snapshots[epoch] = tracemalloc.take_snapshot()
                busy_seconds[epoch] = len(net.counters.seconds())

    class Discard:
        name = "discard"

        def write_line(self, line):
            pass

    cfg = small_config()
    actions = ((40 * SEC, A("10.0.0.2"), None),)
    net = SimNetwork(base_specs(), actions, seed=cfg.seed)
    sink = EventSink((Discard(),))
    tracemalloc.start()
    try:
        run_monitor(cfg, net, Measuring(tmp_path), sink, max_epochs=1000)
    finally:
        tracemalloc.stop()
    def traced(epoch, *filters):
        held = snapshots[epoch].filter_traces(filters).statistics("filename")
        return sum(stat.size for stat in held)

    rest = (tracemalloc.Filter(True, "*/edgemap/*.py"),
            tracemalloc.Filter(False, "*/edgemap/transport.py"))
    assert traced(1000, *rest) <= traced(100, *rest) + 4 * 1024
    counters = (tracemalloc.Filter(True, "*/edgemap/transport.py"),)
    new_seconds = busy_seconds[1000] - busy_seconds[100]
    assert new_seconds > 1000
    assert traced(1000, *counters) <= traced(100, *counters) + 64 * new_seconds
