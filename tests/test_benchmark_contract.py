"""The benchmark under benchmark/ reaches into edgemap by name.

Its tracer wraps module-level functions and class methods it looks up by
attribute, and its untraced markers patch a few CLI and store names.  A
refactor that deletes or renames one of them would otherwise fail only
when the benchmark runs.  The benchmark files are loaded read-only.
"""

import argparse
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from edgemap import cli
from edgemap.simnet import SimNetwork
from edgemap.store import FingerprintStore

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark_module(name):
    qualified = f"edgemap_benchmark_{name}"
    if qualified not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            qualified, ROOT / "benchmark" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve their annotations through sys.modules
        sys.modules[qualified] = module
        spec.loader.exec_module(module)
    return sys.modules[qualified]


def patched_names(places):
    return {(owner, attr): owner.__dict__[attr] for owner, attr in places}


def test_tracer_wraps_the_names_a_simulate_run_calls(monkeypatch):
    tracer_mod = load_benchmark_module("tracer")
    places = [place for targets in tracer_mod.TARGETS.values() for place in targets]
    originals = patched_names(places)
    networks = []
    init = SimNetwork.__init__

    def keep(net, *args, **kwargs):
        init(net, *args, **kwargs)
        networks.append(net)

    monkeypatch.setattr(SimNetwork, "__init__", keep)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for scn, conf in (("01-node-removed.scn", "sim.conf"), ("peak-syn.scn", "peak.conf")):
            assert cli.main(["simulate", str(ROOT / "scenarios" / scn),
                             "--config", str(ROOT / "scenarios" / conf),
                             "--rates", "none"], io.StringIO()) == 0
    finally:
        tracer.uninstall()
    assert patched_names(places) == originals
    calls = dict(zip(tracer.names, tracer.calls))
    # no CLI path snapshots the counters or reads a stored fingerprint back
    idle = {"transport.snapshot", "store.loads"}
    assert {name for name, n in calls.items() if n == 0} == idle
    assert tracer.scan.sweeps == 6 and tracer.scan.diffs == 4
    # every probe the commands sent went through a traced primitive, so the
    # per-probe ratios (useful_ratio, timeout_wait_share) count them all
    sent = {cls: sum(net.counters.counts[cls] for net in networks)
            for cls in ("tcp_syn", "arp_request", "icmp_request")}
    assert len(networks) == 2 and sent["tcp_syn"] > 0
    assert calls["simnet.tcp_connect"] + calls["simnet.tcp_syn"] == sent["tcp_syn"]
    assert calls["simnet.arp_probe"] == sent["arp_request"]
    assert calls["simnet.icmp_ping"] == sent["icmp_request"]
    assert tracer.scan.probes == sum(sent.values())


@pytest.mark.parametrize("workload", ["longrun", "compare"])
def test_markers_patch_and_restore(workload):
    run_mod = load_benchmark_module("run")
    places = [(cli, "build_config"), (cli, "run_monitor"),
              (FingerprintStore, "save_trusted"), (FingerprintStore, "save_epoch")]
    originals = patched_names(places)
    markers = run_mod.Markers(cli, FingerprintStore, workload)
    changed = {place for place, fn in originals.items() if place[0].__dict__[place[1]] is not fn}
    markers.uninstall()
    assert patched_names(places) == originals
    expected = ({(cli, "build_config")} if workload == "compare"
                else set(places) - {(cli, "build_config")})
    assert changed == expected


def test_a_diff_command_runs_through_the_compare_markers(tmp_path, monkeypatch):
    """One `compare` operation as the benchmark issues it: `diff` of two
    generated v1 records through the marked `cli.build_config`, checked by
    the benchmark's own oracle, then one set-up-only command.  A changed
    call form of build_config fails here, not only when the benchmark runs."""
    run_mod = load_benchmark_module("run")
    places = [(cli, "build_config")]
    originals = patched_names(places)
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))  # Bench imports check and inputs
    bench = run_mod.Bench(argparse.Namespace(workload="compare", seed=1), tmp_path)
    try:
        inv = bench.invoke()
        marked_setup = bench.markers.setup_end is not None
        setup = bench.invoke(setup_only=True)
    finally:
        bench.close()
    assert patched_names(places) == originals
    assert inv.code == 1 and marked_setup
    assert bench.tally.ops == 1 and bench.tally.correct, bench.tally.problems
    assert setup.code is None and bench.markers.setup_end is not None


def test_scan_stats_agree_with_the_peak_line():
    """The benchmark's scan-clock figures read the packet counters through
    their API; on a real run they must match what `simulate` prints."""
    run_mod = load_benchmark_module("run")
    markers = run_mod.Markers(cli, FingerprintStore, "longrun")
    markers.in_command_refs = False
    out = io.StringIO()
    try:
        assert cli.main(["simulate", str(ROOT / "scenarios" / "peak-syn.scn"),
                         "--config", str(ROOT / "scenarios" / "peak.conf"),
                         "--rates", "none"], out) == 0
    finally:
        markers.uninstall()
    (peak,) = [line for line in out.getvalue().splitlines() if line.startswith("peak ")]
    printed = {key: int(value) for key, value in
               (field.split("=") for field in peak.split()[1:])}
    stats = run_mod.scan_stats(markers.transport, markers.sweep_us)
    assert printed["discovery_pps"] > 0 and printed["tcp_pps"] > 0
    assert (stats["peak_discovery_pps"], stats["peak_tcp_pps"],
            stats["total_packets"], stats["total_bytes"]) == (
        printed["discovery_pps"], printed["tcp_pps"],
        printed["total_packets"], printed["total_bytes"])
