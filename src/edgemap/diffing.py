"""Classify deviations between the trusted baseline and a current scan."""

from __future__ import annotations

import statistics
from enum import Enum

from .errors import IncomparableFingerprints, UntrustedBaseline
from .model import (Alive, EventKind, IntrusionEvent, NetworkFingerprint,
                    PortState, ScanConfig)
from .timebase import format_duration

# looked up once: diff compares every port of every host against it
_OPEN = PortState.OPEN


def _describe_banner(banner) -> str:
    if banner is None:
        return "no banner"
    text = banner.decode("ascii", "backslashreplace")
    return repr(text)


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

        cur_ports = cur.ports
        for port, was in base.ports.items():
            now = cur_ports.get(port)
            if now is None or (was is not _OPEN and now is not _OPEN):
                continue  # probed by one scan only, or open in neither
            if was is not _OPEN:
                events.append(IntrusionEvent(
                    kind=EventKind.PORT_OPENED, address=addr, port=port,
                    baseline_value=was.value, observed_value=now.value,
                    scan_epoch=epoch))
            elif now is not _OPEN:
                events.append(IntrusionEvent(
                    kind=EventKind.PORT_CLOSED, address=addr, port=port,
                    baseline_value=was.value, observed_value=now.value,
                    scan_epoch=epoch))
            else:
                old = base.banners.get(port)
                new = cur.banners.get(port)
                if old != new:
                    events.append(IntrusionEvent(
                        kind=EventKind.BANNER_CHANGED, address=addr, port=port,
                        baseline_value=_describe_banner(old),
                        observed_value=_describe_banner(new), scan_epoch=epoch))

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


def classify_scenario(events) -> set:
    """Map one epoch's events onto advisory attack-scenario tags."""
    if not events:
        return {ScenarioTag.NONE}
    return {_TAG_BY_KIND[event.kind] for event in events}
