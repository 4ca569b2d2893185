import ipaddress
import tracemalloc

import pytest

from edgemap.model import AddressRange, EventKind
from edgemap.rng import Prng
from edgemap.scheduler import make_schedule, run_monitor
from edgemap.simnet import (OpenPort, RemoveHost, SimHostSpec, SimNetwork,
                            SimScript)
from edgemap.sink import EventSink, parse_line
from edgemap.store import FingerprintStore
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

    def _write(self, path, fp):
        super()._write(path, fp)
        self.written.append(path.name)


def intrusions(lines):
    return [f for f in map(parse_line, lines) if f["kind"] != "Operational"]


def make_parts(tmp_path, script=SimScript(), cfg=None, hook=None, triggers=frozenset()):
    cfg = cfg or small_config()
    net = SimNetwork(base_specs(), script, seed=cfg.seed)
    store = RecordingStore(tmp_path / "state")
    lines = []

    class Capture:
        name = "capture"

        def write_line(self, line):
            lines.append(line)

    sink = EventSink((Capture(),), node_id="n1",
                     trigger_kinds=triggers, safe_state_callback=hook)
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
        assert store.load_latest(digest).trusted is False

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
        script = SimScript((RemoveHost(40 * SEC, A("10.0.0.2")),))
        cfg, net, store, sink, lines = make_parts(tmp_path, script)
        assert run_monitor(cfg, net, store, sink, max_epochs=2) == 2
        events = intrusions(lines)
        assert [e["kind"] for e in events] == ["HostRemoved", "HostRemoved"]
        assert all(e["addr"] == "10.0.0.2" for e in events)
        # epochs are stamped on the events in order
        assert [e["epoch"] for e in events] == ["1", "2"]

    def test_safe_state_hook_once_per_epoch(self, tmp_path):
        calls = []
        script = SimScript((OpenPort(40 * SEC, A("10.0.0.1"), 9, None),))
        cfg, net, store, sink, _ = make_parts(
            tmp_path, script, hook=calls.append,
            triggers=frozenset({EventKind.PORT_OPENED}))
        run_monitor(cfg, net, store, sink, max_epochs=3)
        assert len(calls) == 3
        assert all(len(batch) == 1 for batch in calls)

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
    own lines allocated and still hold.  Left out: the packet counters'
    per-second buckets (transport.py), which still grow with uptime, and
    the interpreter's own tables, which resize in steps (the interned
    strings behind pathlib, for one).
    """
    snapshots = {}
    epochs = 0

    def measure(events):
        nonlocal epochs
        epochs += 1
        if epochs in (100, 1000):
            snapshots[epochs] = tracemalloc.take_snapshot()

    class Discard:
        name = "discard"

        def write_line(self, line):
            pass

    cfg = small_config()
    script = SimScript((RemoveHost(40 * SEC, A("10.0.0.2")),))
    net = SimNetwork(base_specs(), script, seed=cfg.seed)
    sink = EventSink((Discard(),), trigger_kinds=frozenset(EventKind),
                     safe_state_callback=measure)
    tracemalloc.start()
    try:
        run_monitor(cfg, net, FingerprintStore(tmp_path), sink, max_epochs=1000)
    finally:
        tracemalloc.stop()
    held = [tracemalloc.Filter(True, "*/edgemap/*.py"),
            tracemalloc.Filter(False, "*/edgemap/transport.py")]
    traced = {epoch: sum(stat.size for stat in
                         snapshot.filter_traces(held).statistics("filename"))
              for epoch, snapshot in snapshots.items()}
    assert traced[1000] <= traced[100] + 4 * 1024
