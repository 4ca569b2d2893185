"""The benchmark under benchmark/ reaches into edgemap by name.

Its tracer wraps module-level functions and class methods it looks up by
attribute, and its untraced markers patch a few CLI and store names.  A
refactor that deletes or renames one of them would otherwise fail only
when the benchmark runs.  The benchmark files are loaded read-only.
"""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

from edgemap import cli
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


def test_tracer_wraps_the_names_a_simulate_run_calls():
    tracer_mod = load_benchmark_module("tracer")
    places = [place for targets in tracer_mod.TARGETS.values() for place in targets]
    originals = patched_names(places)
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
