import ipaddress
from dataclasses import replace
from pathlib import Path

import pytest

from edgemap import scenario
from edgemap.errors import MalformedScript
from edgemap.model import PortState
from edgemap.simnet import SimHostSpec, SimNetwork

A = ipaddress.IPv4Address
SEC = 1_000_000

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
        "host 10.0.0.1 filtered=23,24\n"
        "at 10s open-port 10.0.0.1 23 banner=telnetd\n"
        "at 20s close-port 10.0.0.1 23\n"
        "at 30s set-latency 10.0.0.1 2.5\n"
        "at 40s set-icmp 10.0.0.1 off\n"
        "at 50s set-arp 10.0.0.1 off\n"
        "at 60s add-host 10.0.0.2 port=80\n"
        "at 70s remove-host 10.0.0.2\n"
        "at 80s close-port 10.0.0.1 24\n"
        "at 90s set-arp 10.0.0.1 on\n")
    one, two = A("10.0.0.1"), A("10.0.0.2")
    (initial,) = sc.hosts
    opened = SimHostSpec(one, open_ports={23: b"telnetd"}, filtered_ports=frozenset({24}))
    closed = SimHostSpec(one, filtered_ports=frozenset({24}))
    slowed = SimHostSpec(one, filtered_ports=frozenset({24}), latency_factor=2.5)
    mute = SimHostSpec(one, icmp_echo_enabled=False, filtered_ports=frozenset({24}),
                       latency_factor=2.5)
    dark = SimHostSpec(one, arp_enabled=False, icmp_echo_enabled=False,
                       filtered_ports=frozenset({24}), latency_factor=2.5)
    unfiltered = SimHostSpec(one, arp_enabled=False, icmp_echo_enabled=False,
                             latency_factor=2.5)
    assert initial == SimHostSpec(one, filtered_ports=frozenset({23, 24}))
    assert sc.actions == (
        (10_000_000, one, opened),
        (20_000_000, one, closed),
        (30_000_000, one, slowed),
        (40_000_000, one, mute),
        (50_000_000, one, dark),
        (60_000_000, two, SimHostSpec(two, open_ports={80: None})),
        (70_000_000, two, None),
        (80_000_000, one, unfiltered),
        (90_000_000, one, replace(unfiltered, arp_enabled=True)),
    )


def test_removed_then_readded_host_starts_from_its_add_host_line():
    sc = scenario.loads(
        "host 10.0.0.1 port=22:ssh filtered=25\n"
        "at 1s set-latency 10.0.0.1 3\n"
        "at 1s open-port 10.0.0.1 23\n"
        "at 2s remove-host 10.0.0.1\n"
        "at 3s add-host 10.0.0.1 port=80\n")
    net, addr = sc.build(), A("10.0.0.1")
    net.clock.advance_to(1_000_000)
    assert net.icmp_ping(addr, SEC).rtt == 1500
    assert net.tcp_syn(addr, 23, SEC).state is PortState.OPEN
    net.clock.advance_to(3_000_000)
    assert net.icmp_ping(addr, SEC).rtt == 500
    assert [net.tcp_syn(addr, port, SEC).state for port in (22, 23, 25, 80)] == [
        PortState.CLOSED, PortState.CLOSED, PortState.CLOSED, PortState.OPEN]


def test_build_returns_working_network():
    sc = scenario.loads("host 10.0.0.1 port=22\nat 1s remove-host 10.0.0.1\n")
    net = sc.build(seed=3)
    assert isinstance(net, SimNetwork)
    assert net.arp_probe(A("10.0.0.1"), 1000).replied
    net.clock.advance_to(1_000_000)
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
    ("host 10.0.0.1\nat 1s set-latency 10.0.0.1 inf\n", "line 2: latency factor"),
    ("host 10.0.0.1\nat 1s set-latency 10.0.0.1 nan\n", "line 2: latency factor"),
    ("host 10.0.0.1\nat 1s set-latency 10.0.0.1 0\n", "line 2: latency factor"),
    ("host 10.0.0.1\nat 1s set-latency 10.0.0.1 -3\n", "line 2: latency factor"),
    ("host 10.0.0.1\nhost 10.0.0.2 port=70000\n", "line 2: port 70000 is outside 1-65535"),
    ("host 10.0.0.1 filtered=0\n", "line 1: port 0 is outside 1-65535"),
    ("host 10.0.0.1\nat 1s open-port 10.0.0.1 0\n", "line 2: port 0 is outside 1-65535"),
    ("host 10.0.0.1\nhost 10.0.0.2\nat 1s remove-host 10.0.0.1 10.0.0.2\n",
     "line 3: remove-host takes 1 argument(s); unexpected '10.0.0.2'"),
    ("host 10.0.0.1 port=24\nat 1s close-port 10.0.0.1 24 25\n",
     "line 2: close-port takes 2 argument(s); unexpected '25'"),
    ("host 10.0.0.1\nat 1s set-latency 10.0.0.1 2 3\n", "line 2: set-latency takes 2"),
    ("host 10.0.0.1\nat 1s set-icmp 10.0.0.1 off on\n", "line 2: set-icmp takes 2"),
    ("host 10.0.0.1\nat 1s set-arp 10.0.0.1 off on\n", "line 2: set-arp takes 2"),
    ("host 10.0.0.1 port=23:a port=23:b\n", "line 1: port 23 given twice"),
    ("host 10.0.0.1\nat 1s add-host 10.0.0.2 port=23 port=23\n", "line 2: port 23 given twice"),
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
