"""Classify deviations between the trusted baseline and a current scan."""

from __future__ import annotations

import statistics
from enum import Enum
from itertools import compress, count
from operator import ne

from .errors import IncomparableFingerprints, UntrustedBaseline
from .model import (OPEN_CODE, PORT_STATES, Alive, EventKind, IntrusionEvent,
                    NetworkFingerprint, PortState, ScanConfig)
from .timebase import format_duration


def _describe_banner(banner) -> str:
    if banner is None:
        return "no banner"
    text = banner.decode("ascii", "backslashreplace")
    return repr(text)


def _port_events(addr, base, cur, epoch: int) -> list:
    """PortOpened, PortClosed and BannerChanged events of one host.

    Only ports probed by both scans count.  The ports whose codes differ
    are found over the overlap of the two tables' spans; a banner can
    differ only where one side recorded one.
    """
    events = []
    old, new = base.ports, cur.ports
    old_codes, new_codes = old.codes, new.codes
    lo = max(old.first, new.first)
    hi = max(lo, min(old.first + len(old_codes), new.first + len(new_codes)))
    differing = map(ne, old_codes[lo - old.first:hi - old.first],
                    new_codes[lo - new.first:hi - new.first])
    for port in compress(count(lo), differing):
        was = old_codes[port - old.first]
        now = new_codes[port - new.first]
        if was and now and OPEN_CODE in (was, now):
            events.append(IntrusionEvent(
                kind=EventKind.PORT_OPENED if now == OPEN_CODE else EventKind.PORT_CLOSED,
                address=addr, port=port, baseline_value=PORT_STATES[was]._value_,
                observed_value=PORT_STATES[now]._value_, scan_epoch=epoch))
    for port in base.banners.keys() | cur.banners.keys():
        before = base.banners.get(port)
        after = cur.banners.get(port)
        if (before != after and old.get(port) is PortState.OPEN
                and new.get(port) is PortState.OPEN):
            events.append(IntrusionEvent(
                kind=EventKind.BANNER_CHANGED, address=addr, port=port,
                baseline_value=_describe_banner(before),
                observed_value=_describe_banner(after), scan_epoch=epoch))
    return events


def diff(baseline: NetworkFingerprint, current: NetworkFingerprint,
         config: ScanConfig, epoch: int = 0):
    """Ordered list of intrusion events separating current from baseline.

    Host presence means the sweep saw the device at all (Up or SilentUp);
    Down hosts never enter a fingerprint.  Port transitions are judged
    only where both scans probed the port, and only transitions in or out
    of Open count.  The latency rule needs both clauses: current median
    above factor * baseline median AND above baseline by the absolute
    floor, so sub-millisecond jitter cannot flap the alarm.
    """
    if not baseline.trusted:
        raise UntrustedBaseline("diff baseline must be the trusted fingerprint")
    if baseline.config_digest != current.config_digest:
        raise IncomparableFingerprints(
            f"config digests differ: {baseline.config_digest:016x} "
            f"vs {current.config_digest:016x}")

    events = []

    for addr in set(current.hosts) - set(baseline.hosts):
        events.append(IntrusionEvent(
            kind=EventKind.HOST_ADDED, address=addr,
            baseline_value="absent", observed_value=current.hosts[addr].alive.value,
            scan_epoch=epoch))

    for addr in set(baseline.hosts) - set(current.hosts):
        events.append(IntrusionEvent(
            kind=EventKind.HOST_REMOVED, address=addr,
            baseline_value=baseline.hosts[addr].alive.value, observed_value="absent",
            scan_epoch=epoch))

    for addr in set(baseline.hosts) & set(current.hosts):
        base = baseline.hosts[addr]
        cur = current.hosts[addr]
        if base.ports != cur.ports or base.banners != cur.banners:
            events += _port_events(addr, base, cur, epoch)

        if base.alive is Alive.UP and cur.alive is Alive.UP:
            base_median = statistics.median_low(base.rtt_samples)
            cur_median = statistics.median_low(cur.rtt_samples)
            if (cur_median > base_median * config.rtt_anomaly_factor
                    and cur_median - base_median > config.rtt_anomaly_floor):
                events.append(IntrusionEvent(
                    kind=EventKind.LATENCY_ANOMALY, address=addr,
                    baseline_value=f"median rtt {format_duration(base_median)}",
                    observed_value=f"median rtt {format_duration(cur_median)}",
                    scan_epoch=epoch))

    events.sort(key=IntrusionEvent.sort_key)
    return events


class ScenarioTag(Enum):
    NODE_REMOVED = "NodeRemoved"
    SERVICE_CHANGED = "ServiceChanged"
    NEW_DEVICE = "NewDevice"
    MITM_SUSPECTED = "MitmSuspected"
    NONE = "None"


_TAG_BY_KIND = {
    EventKind.HOST_REMOVED: ScenarioTag.NODE_REMOVED,
    EventKind.PORT_OPENED: ScenarioTag.SERVICE_CHANGED,
    EventKind.PORT_CLOSED: ScenarioTag.SERVICE_CHANGED,
    EventKind.BANNER_CHANGED: ScenarioTag.SERVICE_CHANGED,
    EventKind.HOST_ADDED: ScenarioTag.NEW_DEVICE,
    EventKind.LATENCY_ANOMALY: ScenarioTag.MITM_SUSPECTED,
}


def classify_scenario(kinds) -> set:
    """Map the event kinds a run raised onto advisory attack-scenario tags."""
    return {_TAG_BY_KIND[kind] for kind in kinds} or {ScenarioTag.NONE}
