"""Byte-for-byte pins on the CLI output for every shipped scenario.

`simulate <scn> --seed 7` prints events, the per-second rates table, the
peak line and the tags; its full stdout is pinned by sha256, and so is
every fingerprint file it stores, which holds every port state, banner
and RTT sample of the baseline and of each epoch.  The `baseline`/`scan`
summary lines are pinned as text.  A refactor of the probe, simulator or
CLI layers that moves any packet, RTT draw or event changes one of these.  peak-syn.scn runs with peak.conf, the others with
sim.conf.
"""

import hashlib
import io
from pathlib import Path

import pytest

from edgemap import cli

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# the six scenarios on sim.conf share the reference network's baseline
REFERENCE_TRUSTED = "ef6e6e44b44045d6e1e3f557aa1c30bcd1a040179744ae5508ded17183f20938"

# scenario -> sha256 of simulate's stdout, and of each stored fingerprint
SIMULATE_SHA256 = {
    "01-node-removed.scn": (
        "368ad46419003eead8e48d544c2c963fd7981a89e7baf4265fdac416b16a4371",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "314e0716ac4259ee4ce34a89a8accad06ece6d3465ec64440ef085ed6a296a2e",
         "epoch000002": "062d33638fa40141f987dff540eeed21df9fc4d11be5b8e969ac9b8fc489f9ae"}),
    "02-service-changed.scn": (
        "563b9a4a0a3fe09a8343ad98abd52c3aa2dd8142bf375d09badc14d168aa6046",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "fc2c8306fbeb0e3979988de18ecb7b396ad7518292b86b8a061901eab4daa844",
         "epoch000002": "227ab8c7714934642fa644d2028234e4f7785e52a2fb5ee111de4c8b170a66f7"}),
    "03-new-device.scn": (
        "95c1e8554e92f3519d6550d73f64e4da37bcbdf52076a4d9378cb3c8909f05bb",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "c67155d5c0ec38e91bb23366fcac8f08e463ebf1a922a19b29270d8bf6ff4662",
         "epoch000002": "0737c7bdbed81c906e644140b7be2876e57c235b6d68569af6496742bd16bba8"}),
    "04-mitm-below.scn": (
        "11a590162b109984a660604ee84a8413eae00862a68c66559cc523b4005b7f50",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "43bb7dbea494a04b02b1f448f90adaa77014e3124450586b06d6c57e31dee718",
         "epoch000002": "0403ab02939997dd14f2873d720eac3ce52665f934645f9fbf63416fe1950d42"}),
    "04-mitm.scn": (
        "99233e0a75c3bdc1e5f5ce0501572716cd30725b24abccb32191ffa58400e08a",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "d1647df2e43f8775433b97341542813187d148bf76dbd41ee594c672f886c56e",
         "epoch000002": "a444de3bb9faa1991a9f6ccaa3f21c24dfc3cd8bd3203d80fc605196c6ea944e"}),
    "05-stealth.scn": (
        "3c2732156f39ab6f6ef70f826f846395c22c2212329693399352b8a7aabc895e",
        {"trusted": REFERENCE_TRUSTED,
         "epoch000001": "2fcb431e07afa7d8c039c91c2a30f874bf2ff5c9658ff6b9ca196e47ed200802",
         "epoch000002": "67414df426440e43b2bbcc84cbe7112475c80d5ddf2abf6689e628204d9338cc"}),
    "peak-syn.scn": (
        "81f748c4fe94aed4d713e715a9754c153d76cc26f584ae394ae995136ff64bec",
        # a SYN scan grabs no banners, and its config digest says so
        {"trusted": "47ffc37deb86ff40032f1de239dc6248207e18b45b82fd50333c0d605400eb17",
         "epoch000001": "81dc0a4c4c7c1c7adfd0d26f403110c6f280b3246ba4155a094f91a702b6425c",
         "epoch000002": "6b721f547e0528a3528199578b6e14ed3fbe6cfe588553a1ee6755d61382c268"}),
    "rates-10host.scn": (
        "d598817bbfa2eb28f034bd0d5539472e6fa036f5c4ecf003e04e55e348efdb8b",
        {"trusted": "a1000c7c1ce6ac0963419d971b443c3e00492657c319d7cd3775b833f1021827",
         "epoch000001": "7c6afddf7ab4a5738091ce52f640d7708a1c51be2f66a05543ad3a2e5ebc906f",
         "epoch000002": "e3b8b36bc9e292fa5542cf98e1c74f20acc4479630b61a9ef1ef818c4e4a2ab2"}),
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_stdout(name, tmp_path):
    stdout, stored = SIMULATE_SHA256[name]
    text = run(["simulate", str(SCENARIOS / name), "--state-dir", str(tmp_path)]
               + backend(name))
    assert sha256(text.encode()) == stdout
    # <digest>.<record>.fp: the digest is the config's, pinned by the stdout
    assert {path.name.split(".")[1]: sha256(path.read_bytes())
            for path in tmp_path.glob("*.fp")} == stored


@pytest.mark.parametrize("name", sorted(SUMMARY))
def test_baseline_and_scan_summaries(name, tmp_path):
    args = backend(name) + ["--backend", f"sim:{SCENARIOS / name}"]
    text = run(["baseline", "--state-dir", str(tmp_path)] + args)
    assert text.splitlines()[-1] == f"baseline {SUMMARY[name]}"
    text = run(["scan"] + args)
    assert text.splitlines()[-1] == f"scan {SUMMARY[name]}"
