"""Byte-for-byte pins on the CLI output for every shipped scenario.

`simulate <scn> --seed 7` prints events, the per-second rates table, the
peak line and the tags; its full stdout is pinned by sha256.  The
`baseline`/`scan` summary lines are pinned as text.  A refactor of the
probe, simulator or CLI layers that moves any packet, RTT draw or event
changes one of these.  peak-syn.scn runs with peak.conf, the others with
sim.conf.
"""

import hashlib
import io
from pathlib import Path

import pytest

from edgemap import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SIMULATE_SHA256 = {
    "01-node-removed.scn": "368ad46419003eead8e48d544c2c963fd7981a89e7baf4265fdac416b16a4371",
    "02-service-changed.scn": "563b9a4a0a3fe09a8343ad98abd52c3aa2dd8142bf375d09badc14d168aa6046",
    "03-new-device.scn": "95c1e8554e92f3519d6550d73f64e4da37bcbdf52076a4d9378cb3c8909f05bb",
    "04-mitm-below.scn": "11a590162b109984a660604ee84a8413eae00862a68c66559cc523b4005b7f50",
    "04-mitm.scn": "99233e0a75c3bdc1e5f5ce0501572716cd30725b24abccb32191ffa58400e08a",
    "05-stealth.scn": "3c2732156f39ab6f6ef70f826f846395c22c2212329693399352b8a7aabc895e",
    "peak-syn.scn": "81f748c4fe94aed4d713e715a9754c153d76cc26f584ae394ae995136ff64bec",
    "rates-10host.scn": "d598817bbfa2eb28f034bd0d5539472e6fa036f5c4ecf003e04e55e348efdb8b",
}

# the first sweep sees the network at time zero, before any scripted action
REFERENCE_NET = "hosts=4 open_ports=3 duration=33712500us packets=297"
SUMMARY = {
    "01-node-removed.scn": REFERENCE_NET,
    "02-service-changed.scn": REFERENCE_NET,
    "03-new-device.scn": REFERENCE_NET,
    "04-mitm-below.scn": REFERENCE_NET,
    "04-mitm.scn": REFERENCE_NET,
    "05-stealth.scn": REFERENCE_NET,
    "peak-syn.scn": "hosts=1 open_ports=5 duration=5001ms packets=33",
    "rates-10host.scn": "hosts=6 open_ports=3 duration=46696500us packets=439",
}


def backend(name):
    conf = "peak.conf" if name == "peak-syn.scn" else "sim.conf"
    return ["--config", str(SCENARIOS / conf), "--seed", "7"]


def run(argv):
    out = io.StringIO()
    assert cli.main(argv, out) == 0
    return out.getvalue()


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.scn")) == sorted(SIMULATE_SHA256)


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_stdout(name):
    text = run(["simulate", str(SCENARIOS / name)] + backend(name))
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_SHA256[name]


@pytest.mark.parametrize("name", sorted(SUMMARY))
def test_baseline_and_scan_summaries(name, tmp_path):
    args = backend(name) + ["--backend", f"sim:{SCENARIOS / name}"]
    text = run(["baseline", "--state-dir", str(tmp_path)] + args)
    assert text.splitlines()[-1] == f"baseline {SUMMARY[name]}"
    text = run(["scan"] + args)
    assert text.splitlines()[-1] == f"scan {SUMMARY[name]}"
