import dataclasses
import hashlib
import ipaddress
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from edgemap.model import (AddressRange, EventKind, HostRecord,
                           IntrusionEvent, NetworkFingerprint, PortState,
                           PortTable, ScanConfig, config_digest)
from conftest import small_config

A = ipaddress.IPv4Address


class TestAddressRange:
    def test_parse_dash(self):
        r = AddressRange.parse("10.0.0.1-10.0.0.6")
        assert r.low == A("10.0.0.1") and r.high == A("10.0.0.6")
        assert list(r) == [A(f"10.0.0.{i}") for i in range(1, 7)]
        assert str(r) == "10.0.0.1-10.0.0.6"

    def test_parse_single(self):
        r = AddressRange.parse("192.168.1.9")
        assert list(r) == [A("192.168.1.9")]

    def test_parse_cidr_drops_network_and_broadcast(self):
        r = AddressRange.parse("192.168.5.0/29")
        # /29 holds 8 addresses; .0 and .7 are excluded
        assert r.low == A("192.168.5.1") and r.high == A("192.168.5.6")

    @pytest.mark.parametrize("prefix", [8] + list(range(20, 33)))
    def test_parse_cidr_reads_the_endpoints_of_hosts(self, prefix, monkeypatch):
        text = f"10.0.0.77/{prefix}"
        if prefix >= 20:
            hosts = list(ipaddress.IPv4Network(text, strict=False).hosts())
            expected = (hosts[0], hosts[-1])
        else:
            expected = (A("10.0.0.1"), A("10.255.255.254"))
        # a block's endpoints cost the same whatever its size
        monkeypatch.setattr(ipaddress.IPv4Network, "hosts",
                            lambda net: pytest.fail("parse walked the block's hosts"))
        r = AddressRange.parse(text)
        assert (r.low, r.high) == expected

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            AddressRange.parse("10.0.0.6-10.0.0.1")


class TestScanConfig:
    def test_defaults(self):
        c = ScanConfig(address_range=AddressRange.parse("10.0.0.0/24"))
        assert c.port_range == (1, 1024)
        assert c.ping_delay == 100_000
        assert c.port_delay == 100_000
        assert c.startup_delay_min == 60_000_000
        assert c.startup_delay_max == 300_000_000
        assert c.rescan_interval == 300_000_000
        assert c.banner_max_bytes == 128
        assert c.rtt_anomaly_factor == 2.0
        assert c.rtt_anomaly_floor == 1_000
        assert not c.syn_scan

    @pytest.mark.parametrize("bad", [
        dict(port_range=(0, 80)),
        dict(port_range=(80, 79)),
        dict(port_range=(1, 65536)),
        dict(startup_delay_min=-1),
        dict(startup_delay_min=10, startup_delay_max=5),
        dict(ping_delay=0),
        dict(rescan_interval=0),
        dict(rtt_anomaly_factor=0.5),
        dict(rtt_anomaly_floor=0),
        dict(banner_max_bytes=0),
        # neither would ever raise a LatencyAnomaly
        dict(rtt_anomaly_factor=float("nan")),
        dict(rtt_anomaly_factor=float("inf")),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)


class TestConfigDigest:
    def oracle(self, c):
        grabbed = c.banner_grab and not c.syn_scan
        fields = [str(c.address_range), f"{c.port_range[0]}-{c.port_range[1]}"]
        fields += ["b1", str(c.banner_max_bytes)] if grabbed else ["b0"]
        canon = "|".join(fields)
        return int.from_bytes(hashlib.sha256(canon.encode()).digest()[:8], "big")

    def test_matches_independent_recomputation(self):
        for c in (small_config(), small_config(syn_scan=True),
                  small_config(banner_grab=False)):
            assert config_digest(c) == self.oracle(c)

    def test_comparability_fields_change_digest(self):
        base = config_digest(small_config())
        assert config_digest(small_config(port_range=(1, 17))) != base
        assert config_digest(small_config(
            address_range=AddressRange.parse("10.0.0.1-10.0.0.7"))) != base
        assert config_digest(small_config(banner_grab=False)) != base
        assert config_digest(small_config(banner_max_bytes=64)) != base
        # a SYN scan grabs no banners, whatever banner_grab says
        assert config_digest(small_config(syn_scan=True)) != base
        assert config_digest(small_config(syn_scan=True)) == config_digest(
            small_config(syn_scan=True, banner_grab=False))

    def test_banner_cap_counts_only_when_banners_are_grabbed(self):
        for no_banners in ({"syn_scan": True}, {"banner_grab": False}):
            assert config_digest(small_config(**no_banners)) == config_digest(
                small_config(banner_max_bytes=64, **no_banners))

    def test_timing_and_seed_do_not_change_digest(self):
        base = config_digest(small_config())
        assert config_digest(small_config(seed=99)) == base
        assert config_digest(small_config(ping_delay=5, port_delay=5)) == base
        assert config_digest(small_config(rescan_interval=1)) == base


class TestHostRecord:
    def test_liveness_follows_the_samples(self):
        assert HostRecord(rtt_samples=(100,)).alive == "up"
        assert HostRecord(ports={22: PortState.OPEN}).alive == "silent"
        with pytest.raises(TypeError):  # liveness is no field
            HostRecord(alive="up")

    def test_banner_requires_open_port(self):
        with pytest.raises(ValueError):
            HostRecord(rtt_samples=(9,), ports={22: PortState.CLOSED}, banners={22: b"x"})

    @pytest.mark.parametrize("banners, error", [
        ({22: "x"}, "banners must be byte strings"),
        ({21: b"x"}, "banner recorded for non-open port 21"),
        ({23: b"x"}, "banner recorded for non-open port 23"),
        ({24: b"x"}, "banner recorded for non-open port 24"),
        ({"22": b"x"}, "banner recorded for non-open port 22"),
        ({22.0: b"x"}, "banner recorded for non-open port 22.0"),
    ])
    def test_a_banner_is_bytes_on_an_open_port(self, banners, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            HostRecord(ports={22: PortState.OPEN, 23: PortState.CLOSED}, banners=banners)

    def test_valid_record(self):
        rec = HostRecord(rtt_samples=(400, 500, 900),
                         ports={22: PortState.OPEN, 23: PortState.FILTERED},
                         banners={22: b"SSH-2.0\r\n"})
        assert rec.ports[22] is PortState.OPEN


# sparse port maps, the edge ports 1 and 65535 drawn often
port_maps = st.dictionaries(st.one_of(st.integers(1, 65535), st.sampled_from([1, 2, 65534, 65535])),
                            st.sampled_from(list(PortState)), max_size=30)


class TestPortTable:
    @settings(derandomize=True, max_examples=300)
    @given(port_maps)
    @example({1: PortState.OPEN, 65535: PortState.FILTERED})
    @example({})
    def test_behaves_like_the_dict_it_was_built_from(self, ports):
        table = PortTable.from_mapping(ports)
        assert len(table) == len(ports)
        assert list(table) == sorted(ports)
        assert list(table.items()) == sorted(ports.items())
        assert list(table.values()) == [ports[p] for p in sorted(ports)]
        assert table == ports and ports == table
        assert not table != ports
        for port in [*ports, 0, 1, 2, 1000, 65534, 65535, 65536, -1, "22", None]:
            assert (port in table) == (port in ports)
            assert table.get(port) is ports.get(port)
            if port in ports:
                assert table[port] is ports[port]
            else:
                with pytest.raises(KeyError):
                    table[port]

    @settings(derandomize=True, max_examples=300)
    @given(port_maps, st.data())
    def test_two_tables_are_equal_exactly_when_their_dicts_are(self, ports, data):
        other = dict(ports)
        edit = data.draw(st.sampled_from(["none", "drop", "add", "restate"]))
        port = data.draw(st.sampled_from(sorted(ports)) if ports and edit != "add"
                         else st.integers(1, 65535))
        state = data.draw(st.sampled_from(list(PortState)))
        if edit == "drop":
            other.pop(port, None)
        elif edit != "none":
            other[port] = state
        assert (PortTable.from_mapping(ports) == PortTable.from_mapping(other)) == (ports == other)

    def test_the_table_is_canonical(self):
        table = PortTable.from_mapping({22: PortState.OPEN, 24: PortState.CLOSED})
        assert (table.first, table.codes) == (22, b"\x01\x00\x02")
        padded = PortTable(19, b"\x00\x00\x00\x01\x00\x02\x00\x00")
        assert (padded.first, padded.codes) == (22, b"\x01\x00\x02")
        assert padded == table
        assert (PortTable(7, b"\x00\x00").first, PortTable(7, b"").codes) == (0, b"")
        assert PortTable(7, b"") == PortTable.from_mapping({}) == {}

    @pytest.mark.parametrize("ports", [
        {22: "open"},
        {22: PortState.OPEN, 23: None},
        {0: PortState.OPEN},
        {65536: PortState.CLOSED},
        {22.0: PortState.OPEN},
        {21: PortState.OPEN, 22.5: PortState.CLOSED, 23: PortState.OPEN},
    ])
    def test_a_bad_port_or_state_raises_value_error(self, ports):
        with pytest.raises(ValueError):
            PortTable.from_mapping(ports)
        with pytest.raises(ValueError):
            HostRecord(ports=ports)

    @pytest.mark.parametrize("first, codes", [(1, b"\x04"), (0, b"\x01"), (65535, b"\x01\x01")])
    def test_a_bad_code_or_span_raises_value_error(self, first, codes):
        with pytest.raises(ValueError):
            PortTable(first, codes)

    def test_a_host_record_holds_a_table(self):
        rec = HostRecord(ports={23: PortState.CLOSED, 22: PortState.OPEN})
        assert type(rec.ports) is PortTable
        assert dataclasses.replace(rec).ports is rec.ports


class TestFingerprint:
    def test_time_ordering(self):
        with pytest.raises(ValueError):
            NetworkFingerprint(started_at=5, finished_at=4, config_digest=1, hosts={})

    def test_open_port_count(self):
        rec = HostRecord(rtt_samples=(1,),
                         ports={1: PortState.OPEN, 2: PortState.OPEN,
                                3: PortState.CLOSED})
        fp = NetworkFingerprint(started_at=0, finished_at=1, config_digest=1,
                                hosts={A("10.0.0.1"): rec})
        assert fp.open_port_count() == 2


PORT_KINDS = {EventKind.PORT_OPENED, EventKind.PORT_CLOSED, EventKind.BANNER_CHANGED}

events = st.builds(
    lambda kind, number, port, baseline, observed: IntrusionEvent(
        kind=kind, address=A(number), port=port if kind in PORT_KINDS else None,
        baseline_value=baseline, observed_value=observed),
    st.sampled_from(EventKind), st.integers(0, 2**32 - 1), st.integers(1, 65535),
    st.sampled_from(["", "closed", "open"]), st.sampled_from(["", "absent", "'x y'"]))


class TestIntrusionEvent:
    def test_port_kinds_require_port(self):
        with pytest.raises(ValueError):
            IntrusionEvent(kind=EventKind.PORT_OPENED, address=A("10.0.0.1"))

    def test_host_kinds_reject_port(self):
        with pytest.raises(ValueError):
            IntrusionEvent(kind=EventKind.HOST_ADDED, address=A("10.0.0.1"), port=80)

    @pytest.mark.parametrize("kind", EventKind)
    def test_each_kind_with_and_without_a_port(self, kind):
        addr = A("10.0.0.1")
        if kind in PORT_KINDS:
            assert IntrusionEvent(kind=kind, address=addr, port=80).port == 80
            with pytest.raises(ValueError) as excinfo:
                IntrusionEvent(kind=kind, address=addr)
            assert str(excinfo.value) == f"{kind.value} requires a port"
        else:
            assert IntrusionEvent(kind=kind, address=addr).port is None
            with pytest.raises(ValueError) as excinfo:
                IntrusionEvent(kind=kind, address=addr, port=80)
            assert str(excinfo.value) == f"{kind.value} must not carry a port"

    def test_fields_defaults_and_positional_form(self):
        event = IntrusionEvent(EventKind.HOST_ADDED, A("10.0.0.1"))
        assert (event.kind, event.address, event.port, event.baseline_value,
                event.observed_value) == (EventKind.HOST_ADDED, A("10.0.0.1"), None, "", "")
        assert IntrusionEvent(EventKind.PORT_OPENED, A("10.0.0.1"), 80, "closed", "open") == \
            IntrusionEvent(kind=EventKind.PORT_OPENED, address=A("10.0.0.1"), port=80,
                           baseline_value="closed", observed_value="open")

    def test_no_field_can_be_assigned_or_replaced_invalidly(self):
        event = IntrusionEvent(kind=EventKind.PORT_OPENED, address=A("10.0.0.1"), port=80)
        for name, value in (("kind", EventKind.HOST_ADDED), ("address", A("10.0.0.2")),
                            ("port", None), ("baseline_value", "x"), ("observed_value", "y")):
            with pytest.raises(AttributeError):
                setattr(event, name, value)
        with pytest.raises(AttributeError):
            event.extra = 1
        with pytest.raises(ValueError, match="PortOpened requires a port"):
            event._replace(port=None)
        assert event.port == 80

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(events, min_size=1, max_size=6))
    def test_equal_events_are_equal_and_hash_equal(self, drawn):
        # a fresh address object of the same value, as a loaded record holds
        copies = [IntrusionEvent(kind=e.kind, address=A(int(e.address)), port=e.port,
                                 baseline_value=e.baseline_value,
                                 observed_value=e.observed_value) for e in drawn]
        for event, copy in zip(drawn, copies):
            assert event == copy and hash(event) == hash(copy)
        assert set(copies) == set(drawn)
        standing = dict.fromkeys(drawn, "seen")
        assert all(standing[copy] == "seen" for copy in copies)
        assert len(standing) == len({(e.kind, int(e.address), e.port, e.baseline_value,
                                      e.observed_value) for e in drawn})

    def test_events_differing_in_one_field_differ(self):
        event = IntrusionEvent(kind=EventKind.PORT_OPENED, address=A("10.0.0.1"), port=80,
                               baseline_value="closed", observed_value="open")
        for other in (IntrusionEvent(EventKind.PORT_CLOSED, A("10.0.0.1"), 80, "closed", "open"),
                      IntrusionEvent(EventKind.PORT_OPENED, A("10.0.0.2"), 80, "closed", "open"),
                      IntrusionEvent(EventKind.PORT_OPENED, A("10.0.0.1"), 81, "closed", "open"),
                      IntrusionEvent(EventKind.PORT_OPENED, A("10.0.0.1"), 80, "open", "open"),
                      IntrusionEvent(EventKind.PORT_OPENED, A("10.0.0.1"), 80, "closed", "")):
            assert event != other
        assert len({event, *[event] * 3}) == 1

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(events, max_size=30))
    def test_sort_key_orders_as_the_brute_force_key(self, drawn):
        rank = list(EventKind).index

        def brute_force(event):
            return (int(event.address), rank(event.kind),
                    -1 if event.port is None else event.port)

        assert [e.sort_key() for e in drawn] == [brute_force(e) for e in drawn]
        assert (sorted(drawn, key=IntrusionEvent.sort_key)
                == sorted(drawn, key=brute_force))

    def test_sort_order_is_address_then_kind_then_port(self):
        evs = [
            IntrusionEvent(kind=EventKind.PORT_CLOSED, address=A("10.0.0.2"), port=23),
            IntrusionEvent(kind=EventKind.LATENCY_ANOMALY, address=A("10.0.0.1")),
            IntrusionEvent(kind=EventKind.PORT_OPENED, address=A("10.0.0.2"), port=80),
            IntrusionEvent(kind=EventKind.PORT_OPENED, address=A("10.0.0.2"), port=22),
            IntrusionEvent(kind=EventKind.HOST_ADDED, address=A("10.0.0.2")),
        ]
        ordered = sorted(evs, key=IntrusionEvent.sort_key)
        assert [(str(e.address), e.kind.value, e.port) for e in ordered] == [
            ("10.0.0.1", "LatencyAnomaly", None),
            ("10.0.0.2", "HostAdded", None),
            ("10.0.0.2", "PortOpened", 22),
            ("10.0.0.2", "PortOpened", 80),
            ("10.0.0.2", "PortClosed", 23),
        ]


@given(st.integers(min_value=-2, max_value=70000), st.integers(min_value=-2, max_value=70000))
def test_port_range_property(lo, hi):
    valid = 1 <= lo <= hi <= 65535
    try:
        small_config(port_range=(lo, hi))
        assert valid
    except ValueError:
        assert not valid
