import dataclasses
import io
import ipaddress
import random

import pytest

from edgemap import cli
from edgemap.diffing import classify_scenario, diff
from edgemap.errors import IncomparableFingerprints
from edgemap.model import EventKind, HostRecord, NetworkFingerprint, PortState
from edgemap.store import dumps_fingerprint
from conftest import random_fingerprint, random_host_record, small_config
from oracles import brute_force_diff, dumps_v1, event_tuples

A = ipaddress.IPv4Address


def fp(hosts, trusted=False, digest=0xD1):
    return NetworkFingerprint(started_at=0, finished_at=10, config_digest=digest,
                              hosts=dict(hosts), trusted=trusted)


def host(i, rtt=(500, 500, 500), ports=None, banners=None):
    """An address and its record; a host without samples is SilentUp."""
    return A(f"10.0.0.{i}"), HostRecord(rtt_samples=rtt, ports=ports or {},
                                        banners=banners or {})


CFG = small_config()


class TestPreconditions:
    def test_mismatched_digests_rejected(self):
        with pytest.raises(IncomparableFingerprints):
            diff(fp([], trusted=True, digest=1), fp([], digest=2), CFG)

    def test_identical_fingerprints_are_quiet(self):
        base = fp([host(1, ports={22: PortState.OPEN}, banners={22: b"x"})],
                  trusted=True)
        cur = fp([host(1, ports={22: PortState.OPEN}, banners={22: b"x"})])
        assert diff(base, cur, CFG) == []


class TestHostEvents:
    def test_added_and_removed(self):
        base = fp([host(1)], trusted=True)
        cur = fp([host(2, rtt=())])
        events = diff(base, cur, CFG)
        assert event_tuples(events) == {
            (int(A("10.0.0.1")), "HostRemoved", None),
            (int(A("10.0.0.2")), "HostAdded", None),
        }

    def test_up_to_silent_is_not_an_event(self):
        base = fp([host(1)], trusted=True)
        cur = fp([host(1, rtt=())])
        assert diff(base, cur, CFG) == []


class TestPortEvents:
    def test_open_close_transitions(self):
        base = fp([host(1, ports={1: PortState.CLOSED, 2: PortState.OPEN,
                                  3: PortState.FILTERED})], trusted=True)
        cur = fp([host(1, ports={1: PortState.OPEN, 2: PortState.FILTERED,
                                 3: PortState.CLOSED})])
        assert event_tuples(diff(base, cur, CFG)) == {
            (int(A("10.0.0.1")), "PortOpened", 1),
            (int(A("10.0.0.1")), "PortClosed", 2),
        }

    def test_closed_filtered_flap_is_quiet(self):
        base = fp([host(1, ports={1: PortState.CLOSED})], trusted=True)
        cur = fp([host(1, ports={1: PortState.FILTERED})])
        assert diff(base, cur, CFG) == []

    def test_port_probed_in_only_one_scan_is_ignored(self):
        base = fp([host(1, ports={1: PortState.OPEN})], trusted=True)
        cur = fp([host(1, ports={2: PortState.OPEN})])
        assert diff(base, cur, CFG) == []

    def test_banner_changed_only_when_open_in_both(self):
        base = fp([host(1, ports={1: PortState.OPEN, 2: PortState.OPEN},
                        banners={1: b"v1", 2: b"same"})], trusted=True)
        cur = fp([host(1, ports={1: PortState.OPEN, 2: PortState.OPEN},
                       banners={1: b"v2", 2: b"same"})])
        assert event_tuples(diff(base, cur, CFG)) == {
            (int(A("10.0.0.1")), "BannerChanged", 1)}

    def test_banner_appearing_counts_as_change(self):
        base = fp([host(1, ports={1: PortState.OPEN})], trusted=True)
        cur = fp([host(1, ports={1: PortState.OPEN}, banners={1: b"new"})])
        (event,) = diff(base, cur, CFG)
        assert event.kind is EventKind.BANNER_CHANGED
        assert event.baseline_value == "no banner"

    def test_open_to_closed_with_banner_reports_only_port_closed(self):
        base = fp([host(1, ports={1: PortState.OPEN}, banners={1: b"v1"})],
                  trusted=True)
        cur = fp([host(1, ports={1: PortState.CLOSED})])
        (event,) = diff(base, cur, CFG)
        assert event.kind is EventKind.PORT_CLOSED


class TestLatency:
    def mk(self, rtts):
        return fp([host(1, rtt=tuple(rtts))])

    def base(self, rtts=(1000, 1000, 1000)):
        return fp([host(1, rtt=tuple(rtts))], trusted=True)

    def test_anomaly_when_both_clauses_hold(self):
        cfg = small_config()  # factor 2.0, floor 1ms
        (event,) = diff(self.base(), self.mk([2500, 2600, 2400]), cfg)
        assert event.kind is EventKind.LATENCY_ANOMALY
        assert "1ms" in event.baseline_value

    def test_factor_boundary_is_strict(self):
        # median exactly factor * baseline: no event
        assert diff(self.base(), self.mk([2000, 2000, 2000]), CFG) == []

    def test_floor_boundary_is_strict(self):
        base = fp([host(1, rtt=(400, 400, 400))], trusted=True)
        # 3x the median but the absolute delta is below the 1ms floor
        assert diff(base, self.mk([1200, 1200, 1200]), CFG) == []
        # delta exactly at the floor: still quiet
        assert diff(base, self.mk([1400, 1400, 1400]), CFG) == []
        # one microsecond past the floor and past the factor: event
        assert len(diff(base, self.mk([1401, 1401, 1401]), CFG)) == 1

    def test_median_is_lower_middle(self):
        # median_low of (1000, 1000, 9000) is 1000: quiet despite the spike
        assert diff(self.base(), self.mk([1000, 9000, 1000]), CFG) == []

    def test_silent_hosts_have_no_latency_events(self):
        base = fp([host(1)], trusted=True)
        cur = fp([host(1, rtt=())])
        assert diff(base, cur, CFG) == []


class TestOrderingAndSymmetry:
    def test_events_sorted_by_address_kind_port(self):
        base = fp([host(1, ports={5: PortState.OPEN, 2: PortState.CLOSED}),
                   host(3)], trusted=True)
        cur = fp([host(1, ports={5: PortState.CLOSED, 2: PortState.OPEN},
                       rtt=(500, 500, 500)),
                  host(2, rtt=())])
        events = diff(base, cur, CFG)
        assert [e.sort_key() for e in events] == sorted(e.sort_key() for e in events)

    def test_swapping_scans_mirrors_events(self, rnd):
        for _ in range(50):
            a = random_fingerprint(rnd, trusted=True)
            b = dataclasses.replace(random_fingerprint(rnd), trusted=True)
            forward = event_tuples(diff(a, dataclasses.replace(b, trusted=False), CFG))
            backward = event_tuples(diff(b, dataclasses.replace(a, trusted=False), CFG))
            mirror = {"HostAdded": "HostRemoved", "HostRemoved": "HostAdded",
                      "PortOpened": "PortClosed", "PortClosed": "PortOpened"}
            symmetric_forward = {(addr, mirror.get(kind, kind), port)
                                 for addr, kind, port in forward
                                 if kind != "LatencyAnomaly"}
            backward_no_latency = {t for t in backward if t[1] != "LatencyAnomaly"}
            assert symmetric_forward == backward_no_latency


class TestOracleEquivalence:
    def test_random_pairs_match_brute_force(self, rnd):
        for _ in range(300):
            base = random_fingerprint(rnd, trusted=True)
            cur = random_fingerprint(rnd)
            expected = brute_force_diff(base, cur, CFG.rtt_anomaly_factor,
                                        CFG.rtt_anomaly_floor)
            assert event_tuples(diff(base, cur, CFG)) == expected

    def test_pairs_with_different_port_spans_match_brute_force(self, rnd):
        # port tables of different, overlapping or disjoint spans, with holes
        spans = [(1, 16), (5, 30), (1, 3), (14, 14), (60000, 60012), (65530, 65535)]

        def spanned():
            rec = random_host_record(rnd, *rnd.choice(spans))
            ports = {p: s for p, s in rec.ports.items() if p in rec.banners or rnd.random() < 0.8}
            return dataclasses.replace(rec, ports=ports)

        def edited(rec):
            """The host rescanned: some ports restated, the span clipped
            below and grown above."""
            cut = rnd.choice([0, *rec.ports])
            ports = {p: s for p, s in rec.ports.items() if p >= cut}
            for p in rnd.sample(sorted(ports), min(3, len(ports))):
                ports[p] = rnd.choice(list(PortState))
            top = max(ports, default=rnd.randrange(1, 65000))
            ports.update((p, rnd.choice(list(PortState)))
                         for p in range(top + 1, min(top + rnd.randrange(8), 65535) + 1))
            banners = {p: b for p, b in rec.banners.items() if ports.get(p) is PortState.OPEN}
            return dataclasses.replace(rec, ports=ports, banners=banners)

        for _ in range(500):
            addrs = [A(f"10.0.2.{i}") for i in rnd.sample(range(1, 12), 4)]
            base_hosts = {a: spanned() for a in addrs[:3]}
            cur_hosts = {a: edited(base_hosts[a]) if a in base_hosts and rnd.random() < 0.5
                         else spanned() for a in addrs[1:]}
            base = fp(base_hosts.items(), trusted=True)
            cur = fp(cur_hosts.items())
            expected = brute_force_diff(base, cur, CFG.rtt_anomaly_factor,
                                        CFG.rtt_anomaly_floor)
            assert event_tuples(diff(base, cur, CFG)) == expected

    def test_a_compare_sized_pair_matches_brute_force(self, tmp_path):
        """Eight hosts x 1,024 ports: states flipped among all three,
        banners changed, added and removed on ports open on both sides,
        banners on ports open on one side only, and one host whose two
        spans are disjoint.  Its v1 and v2 records diff to the same lines."""
        rnd = random.Random(1024)
        base_hosts, cur_hosts = {}, {}
        for i in range(1, 9):
            ports = dict(zip(range(1, 1025), rnd.choices(list(PortState), (5, 80, 15), k=1024)))
            new = dict(ports)
            for p in rnd.sample(sorted(ports), 64):
                new[p] = rnd.choice([s for s in PortState if s is not ports[p]])
            banners = {p: b"svc %d" % p for p, s in ports.items()
                       if s is PortState.OPEN and rnd.random() < 0.8}
            new_banners = {p: b"svc %d" % p for p, s in new.items()
                           if s is PortState.OPEN and rnd.random() < 0.8}
            for p in rnd.sample(sorted(set(banners) & set(new_banners)), 4):
                new_banners[p] = b"svc %d patched" % p
            if i == 8:
                new = {p + 1024: s for p, s in new.items()}
                new_banners = {p + 1024: b for p, b in new_banners.items()}
            base_hosts[A(f"10.0.0.{i}")] = HostRecord((500,), ports, banners)
            cur_hosts[A(f"10.0.0.{i}")] = HostRecord((500,), new, new_banners)
        base, cur = fp(base_hosts.items(), trusted=True), fp(cur_hosts.items())
        events = diff(base, cur, CFG)
        expected = brute_force_diff(base, cur, CFG.rtt_anomaly_factor, CFG.rtt_anomaly_floor)
        assert event_tuples(events) == expected and len(events) == len(expected)
        assert {kind for _, kind, _ in expected} == {"PortOpened", "PortClosed", "BannerChanged"}
        outputs = []
        for dumps in (dumps_fingerprint, dumps_v1):
            paths = [tmp_path / f"{side}.fp" for side in "ab"]
            for path, side in zip(paths, (base, cur)):
                path.write_bytes(dumps(side))
            out = io.StringIO()
            assert cli.main(["diff", *map(str, paths), "--format", "lines"], out) == 1
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == len(events)

    def test_self_diff_is_always_empty(self, rnd):
        for _ in range(100):
            fp_ = random_fingerprint(rnd, trusted=True)
            assert diff(fp_, dataclasses.replace(fp_, trusted=False), CFG) == []


class TestClassifyScenario:
    def test_empty_is_none(self):
        assert classify_scenario(set()) == {"None"}

    def test_each_kind_maps_to_its_tag(self):
        assert classify_scenario({EventKind.HOST_REMOVED}) == {"NodeRemoved"}
        assert classify_scenario({EventKind.HOST_ADDED}) == {"NewDevice"}
        assert classify_scenario({EventKind.LATENCY_ANOMALY}) == \
            {"MitmSuspected"}
        for kind in (EventKind.PORT_OPENED, EventKind.PORT_CLOSED,
                     EventKind.BANNER_CHANGED):
            assert classify_scenario({kind}) == {"ServiceChanged"}

    def test_mixed_events_collect_tags(self):
        tags = classify_scenario({EventKind.HOST_ADDED, EventKind.PORT_OPENED})
        assert tags == {"NewDevice", "ServiceChanged"}
