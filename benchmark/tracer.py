"""Span tracer that wraps edgemap's public functions from the outside.

Each wrapped call records a span (name, start, end, parent span) in
compact arrays kept in memory and written out at exit.  Self time is the
span's duration minus the time its child spans cover; calls in one thread
nest strictly, so that is the duration minus the sum of the durations of
its direct children, accumulated as each child closes.

Functions are wrapped where callers look them up: a module-level function
imported by name into another module is patched in every module that
holds it, and methods are patched on their class.
"""

from __future__ import annotations

import gzip
import time
from array import array

from edgemap import cli, diffing, probe, scenario, scheduler, sink, store
from edgemap.rng import Prng
from edgemap.scheduler import ScanSchedule
from edgemap.simnet import SimNetwork
from edgemap.store import FingerprintStore
from edgemap.timebase import VirtualClock
from edgemap.transport import PacketCounters

# span name -> every (owner, attribute) through which callers reach it
TARGETS = {
    "transport.record": [(PacketCounters, "record")],
    "transport.snapshot": [(PacketCounters, "snapshot")],
    "simnet.arp_probe": [(SimNetwork, "arp_probe")],
    "simnet.icmp_ping": [(SimNetwork, "icmp_ping")],
    "simnet.tcp_connect": [(SimNetwork, "tcp_connect")],
    "simnet.tcp_syn": [(SimNetwork, "tcp_syn")],
    "timebase.advance_to": [(VirtualClock, "advance_to")],
    "rng.shuffle": [(Prng, "shuffle")],
    "scheduler.port_order": [(ScanSchedule, "port_order")],
    "scheduler.run_monitor": [(scheduler, "run_monitor"), (cli, "run_monitor")],
    "probe.discover_host": [(probe, "discover_host")],
    "probe.scan_host_ports": [(probe, "scan_host_ports")],
    "probe.full_sweep": [(probe, "full_sweep"), (scheduler, "full_sweep"),
                         (cli, "full_sweep")],
    "diffing.diff": [(diffing, "diff"), (scheduler, "diff"), (cli, "diff")],
    "store.save_epoch": [(FingerprintStore, "save_epoch")],
    "store.dumps": [(store, "dumps_fingerprint"), (cli, "dumps_fingerprint")],
    "store.loads": [(store, "loads_fingerprint"), (cli, "loads_fingerprint")],
    "sink.format_intrusion": [(sink, "format_intrusion"), (cli, "format_intrusion")],
    "scenario.load": [(scenario, "load")],
    "cli.main": [(cli, "main")],
}

PROBE_PRIMITIVES = ("simnet.arp_probe", "simnet.icmp_ping", "simnet.tcp_connect",
                    "simnet.tcp_syn")

# spans kept for the trace file; beyond this only the per-name sums grow
SPAN_LIMIT = 1_000_000


class ScanTally:
    """Scan-clock counts taken at the probe and sweep boundaries."""

    def __init__(self):
        self.probes = 0
        self.answered = 0
        self.timeout_wait = 0     # scan-clock us spent on probes nobody answered
        self.sweeps = 0
        self.sweep_time = 0       # scan-clock us inside full_sweep
        self.diffs = 0
        self.events = 0


class Tracer:
    def __init__(self, limit: int = SPAN_LIMIT):
        self.limit = limit
        self.names = list(TARGETS)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.span_name = array("B")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.scan = ScanTally()
        self._stack = []
        self._saved = []

    def _wrap(self, fn, nid: int):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        limit = self.limit
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            if idx < limit:
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                starts.append(0)
                ends.append(0)
            else:
                idx = -1
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1

        return traced

    def _observe_probe(self, fn):
        scan = self.scan

        def observed(net, *args, **kwargs):
            t0 = net.clock.now()
            result = fn(net, *args, **kwargs)
            scan.probes += 1
            answered = (result.replied if hasattr(result, "replied")
                        else result.state.value != "filtered")
            if answered:
                scan.answered += 1
            else:
                scan.timeout_wait += net.clock.now() - t0
            return result
        return observed

    def _observe_sweep(self, fn):
        scan = self.scan

        def observed(config, transport, *args, **kwargs):
            t0 = transport.clock.now()
            result = fn(config, transport, *args, **kwargs)
            scan.sweeps += 1
            scan.sweep_time += transport.clock.now() - t0
            return result
        return observed

    def _observe_diff(self, fn):
        scan = self.scan

        def observed(*args, **kwargs):
            events = fn(*args, **kwargs)
            scan.diffs += 1
            scan.events += len(events)
            return events
        return observed

    def install(self) -> None:
        """Patch every target; the boundary observers sit outside the span."""
        for nid, (name, places) in enumerate(TARGETS.items()):
            for owner, attr in places:
                original = owner.__dict__[attr]
                wrapped = self._wrap(original, nid)
                if name in PROBE_PRIMITIVES:
                    wrapped = self._observe_probe(wrapped)
                elif name == "probe.full_sweep" and owner is not probe:
                    # probe's own name is never called from inside probe
                    wrapped = self._observe_sweep(wrapped)
                elif name == "diffing.diff" and owner is not diffing:
                    wrapped = self._observe_diff(wrapped)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def spans(self) -> int:
        return sum(self.calls)

    def write(self, path) -> None:
        """Kept spans as gzip'd TSV: id, parent id, name, start ns, end ns."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write(f"# spans kept {len(self.span_name)} of {self.spans}\n")
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{i}\t{parent}\t{names[nid]}\t{start}\t{end}\n")
