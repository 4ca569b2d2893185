"""Classify deviations between the trusted baseline and a current scan."""

from __future__ import annotations

import re
import statistics

from .errors import IncomparableFingerprints
from .model import (OPEN_CODE, PORT_STATES, EventKind, IntrusionEvent,
                    NetworkFingerprint, ScanConfig)
from .timebase import format_duration


_NONZERO = re.compile(rb"[^\x00]")  # a byte of a port whose codes differ, in their XOR


def _describe_banner(banner) -> str:
    if banner is None:
        return "no banner"
    text = banner.decode("ascii", "backslashreplace")
    return repr(text)


def _port_events(addr, base, cur) -> list:
    """PortOpened, PortClosed and BannerChanged events of one host.

    Only ports probed by both scans count.  The ports whose codes differ
    are the nonzero bytes of the XOR of the two tables' codes over the
    overlap of their spans, found in C; a banner can differ only at a port
    of an item in one side's banners and not in the other's, and counts
    only where the codes say open on both sides.
    """
    events = []
    old, new = base.ports, cur.ports
    old_codes, new_codes = old.codes, new.codes
    lo = max(old.first, new.first)
    hi = max(lo, min(old.first + len(old_codes), new.first + len(new_codes)))
    differing = (int.from_bytes(old_codes[lo - old.first:hi - old.first], "big")
                 ^ int.from_bytes(new_codes[lo - new.first:hi - new.first], "big"))
    for at in _NONZERO.finditer(differing.to_bytes(hi - lo, "big")):
        port = lo + at.start()
        was = old_codes[port - old.first]
        now = new_codes[port - new.first]
        if was and now and OPEN_CODE in (was, now):
            events.append(IntrusionEvent(
                kind=EventKind.PORT_OPENED if now == OPEN_CODE else EventKind.PORT_CLOSED,
                address=addr, port=port, baseline_value=PORT_STATES[was]._value_,
                observed_value=PORT_STATES[now]._value_))
    for port in {port for port, _ in base.banners.items() ^ cur.banners.items()}:
        if (lo <= port < hi
                and old_codes[port - old.first] == new_codes[port - new.first] == OPEN_CODE):
            events.append(IntrusionEvent(
                kind=EventKind.BANNER_CHANGED, address=addr, port=port,
                baseline_value=_describe_banner(base.banners.get(port)),
                observed_value=_describe_banner(cur.banners.get(port))))
    return events


def diff_host(addr, base, cur, config: ScanConfig) -> list:
    """The unsorted events of one address, given its record on each side
    (None for a side that did not see it).

    An address one side did not see is HostAdded or HostRemoved; one both
    saw gets the port and latency rules.  Port transitions count only
    where both scans probed the port, and only in or out of Open.  The
    latency rule needs samples on both sides and both clauses: current
    median above factor * baseline median AND above baseline by the
    absolute floor, so sub-millisecond jitter cannot flap the alarm.
    """
    if base is None:
        return [IntrusionEvent(kind=EventKind.HOST_ADDED, address=addr,
                               baseline_value="absent", observed_value=cur.alive)]
    if cur is None:
        return [IntrusionEvent(kind=EventKind.HOST_REMOVED, address=addr,
                               baseline_value=base.alive, observed_value="absent")]
    events = []
    if base.ports != cur.ports or base.banners != cur.banners:
        events = _port_events(addr, base, cur)
    if base.rtt_samples and cur.rtt_samples:
        base_median = statistics.median_low(base.rtt_samples)
        cur_median = statistics.median_low(cur.rtt_samples)
        if (cur_median > base_median * config.rtt_anomaly_factor
                and cur_median - base_median > config.rtt_anomaly_floor):
            events.append(IntrusionEvent(
                kind=EventKind.LATENCY_ANOMALY, address=addr,
                baseline_value=f"median rtt {format_duration(base_median)}",
                observed_value=f"median rtt {format_duration(cur_median)}"))
    return events


def diff(baseline: NetworkFingerprint, current: NetworkFingerprint, config: ScanConfig):
    """Ordered list of intrusion events separating current from baseline:
    diff_host's over every address either side saw, sorted by address,
    kind and port.  The events carry no epoch; their emitter supplies it."""
    if baseline.config_digest != current.config_digest:
        raise IncomparableFingerprints(
            f"config digests differ: {baseline.config_digest:016x} "
            f"vs {current.config_digest:016x}")

    events = []
    # sets built from the dicts reuse the keys' stored hashes
    for addr in set(baseline.hosts) | set(current.hosts):
        events += diff_host(addr, baseline.hosts.get(addr), current.hosts.get(addr), config)
    events.sort(key=IntrusionEvent.sort_key)
    return events


_TAG_BY_KIND = {
    EventKind.HOST_REMOVED: "NodeRemoved",
    EventKind.PORT_OPENED: "ServiceChanged",
    EventKind.PORT_CLOSED: "ServiceChanged",
    EventKind.BANNER_CHANGED: "ServiceChanged",
    EventKind.HOST_ADDED: "NewDevice",
    EventKind.LATENCY_ANOMALY: "MitmSuspected",
}


def classify_scenario(kinds) -> set:
    """The advisory attack-scenario tags of the kinds a run raised; {"None"} if none."""
    return {_TAG_BY_KIND[kind] for kind in kinds} or {"None"}
