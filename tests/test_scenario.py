import ipaddress
from pathlib import Path

import pytest

from edgemap import scenario
from edgemap.errors import MalformedScript
from edgemap.simnet import (AddHost, OpenPort, RemoveHost, SetArp,
                            SetIcmpEcho, SetLatencyFactor, SimNetwork)

A = ipaddress.IPv4Address

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_host_line_full_form():
    sc = scenario.loads(
        'host 10.0.0.1 arp=on icmp=off rtt=2ms jitter=100us '
        'port=22:"SSH-2.0 hi\\r\\n" port=80 filtered=23,24\n')
    (spec,) = sc.hosts
    assert spec.address == A("10.0.0.1")
    assert spec.arp_enabled and not spec.icmp_echo_enabled
    assert spec.base_rtt == 2000 and spec.rtt_jitter == 100
    assert spec.open_ports == {22: b"SSH-2.0 hi\r\n", 80: None}
    assert spec.filtered_ports == frozenset({23, 24})


def test_comments_and_blank_lines_ignored():
    sc = scenario.loads("# intro\n\nhost 10.0.0.1  # trailing\n")
    assert len(sc.hosts) == 1 and not sc.actions


def test_all_action_verbs():
    sc = scenario.loads(
        "host 10.0.0.1\n"
        "at 10s open-port 10.0.0.1 23 banner=telnetd\n"
        "at 20s close-port 10.0.0.1 23\n"
        "at 30s set-latency 10.0.0.1 2.5\n"
        "at 40s set-icmp 10.0.0.1 off\n"
        "at 50s set-arp 10.0.0.1 off\n"
        "at 60s add-host 10.0.0.2 port=80\n"
        "at 70s remove-host 10.0.0.2\n")
    assert isinstance(sc.actions[0], OpenPort)
    assert sc.actions[0].banner == b"telnetd"
    assert type(sc.actions[1]).__name__ == "ClosePort"
    assert isinstance(sc.actions[2], SetLatencyFactor)
    assert sc.actions[2].factor == 2.5
    assert isinstance(sc.actions[3], SetIcmpEcho) and not sc.actions[3].enabled
    assert isinstance(sc.actions[4], SetArp)
    assert isinstance(sc.actions[5], AddHost)
    assert sc.actions[5].spec.open_ports == {80: None}
    assert isinstance(sc.actions[6], RemoveHost)
    assert [a.at for a in sc.actions] == [i * 10_000_000 for i in range(1, 8)]


def test_build_returns_working_network():
    sc = scenario.loads("host 10.0.0.1 port=22\nat 1s remove-host 10.0.0.1\n")
    net = sc.build(seed=3)
    assert isinstance(net, SimNetwork)
    assert net.arp_probe(A("10.0.0.1"), 1000).replied
    net.simnet_advance(1_000_000)
    assert not net.arp_probe(A("10.0.0.1"), 1000).replied
    # host lines declare time zero wherever they stand
    assert scenario.loads("at 1s remove-host 10.0.0.1\nhost 10.0.0.1 port=22\n") == sc


@pytest.mark.parametrize("text,fragment", [
    ("frob 10.0.0.1\n", "line 1"),
    ("host\n", "line 1"),
    ("host 10.0.0.999\n", "bad IPv4"),
    ("host 10.0.0.1 bogus=1\n", "unknown host key"),
    ("host 10.0.0.1 mac=02:00:00:00:00:01\n", "unknown host key"),
    ("host 10.0.0.1 modbus=Acme,PLC,v1\n", "unknown host key"),
    ("host 10.0.0.1 arp=maybe\n", "expected on/off"),
    ("host 10.0.0.1 rtt=fast\n", "line 1"),
    ("host 10.0.0.1\nhost 10.0.0.1\n", "duplicate host"),
    ("at 1s\n", "line 1"),
    ("at soon remove-host 10.0.0.1\n", "line 1"),
    ("at 1s warp-host 10.0.0.1\n", "unknown action"),
    ("at 1s open-port 10.0.0.1\n", "at least 2"),
    ("host 10.0.0.1\nat 2s remove-host 10.0.0.1\nat 1s set-arp 10.0.0.1 off\n",
     "non-decreasing"),
    ('host 10.0.0.1 port=22:"unterminated\n', "line 1"),
    ("host 10.0.0.1\nhost 10.0.0.1\n", "line 2"),
    ("host 10.0.0.1\nat 1s close-port 10.0.0.1 abc\n", "line 2"),
    ('host 10.0.0.1\nhost 10.0.0.2 port=22:"unclosed\n', "line 2: no closing quotation"),
    ("host 10.0.0.1\nhost 10.0.0.2 \\\n", "line 2: no escaped character"),
    ("host 10.0.0.1\nat 2s set-arp 10.0.0.1 off\nat 1s set-arp 10.0.0.1 on\n",
     "line 3: times must be non-decreasing"),
    ("host 10.0.0.1\nat 1s remove-host 10.0.0.9\n", "line 2: host 10.0.0.9 is absent"),
    ("host 10.0.0.1\nat 1s add-host 10.0.0.1\n", "line 2: host 10.0.0.1 is already present"),
    ("at 1s add-host 10.0.0.1\nhost 10.0.0.1\n", "line 1: host 10.0.0.1 is already present"),
    ("host 10.0.0.1\nat 1s remove-host 10.0.0.1\nat 2s set-icmp 10.0.0.1 off\n",
     "line 3: host 10.0.0.1 is absent"),
])
def test_malformed_inputs_name_the_line(text, fragment):
    with pytest.raises(MalformedScript) as excinfo:
        scenario.loads(text)
    assert fragment in str(excinfo.value)


def test_shipped_scenarios_parse():
    files = sorted(SCENARIO_DIR.glob("*.scn"))
    assert len(files) >= 7
    for path in files:
        sc = scenario.load(path)
        sc.build(seed=7)
