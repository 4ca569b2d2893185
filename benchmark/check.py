"""Independent output oracle.

Expected events come from the generators' own change lists; nothing here
calls edgemap.diffing.  Event lines are parsed with edgemap's documented
line parser (`sink.parse_line`), every other line of output is matched
against its documented shape.  A mismatch is counted, never raised, so it
shows in the failure ratios and in `correct` instead of ending the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from edgemap.sink import parse_line

EXIT_OK = 0
EXIT_EVENTS = 1
PROBLEMS_KEPT = 5


@dataclass
class Tally:
    """Correctness counts summed over every operation of a run."""

    ops: int = 0
    failed_ops: int = 0
    changes: int = 0          # detectable scripted changes, per invocation
    detected: int = 0
    events: int = 0
    false_events: int = 0
    ceiling_violations: int = 0
    problems: list = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append(text)

    @property
    def correct(self) -> bool:
        return (self.failed_ops == 0 and self.detected == self.changes
                and self.false_events == 0 and self.ceiling_violations == 0
                and not self.problems)

    def ratios(self) -> dict:
        return {
            "miss_ratio": 1 - self.detected / self.changes if self.changes else 0.0,
            "false_event_ratio": self.false_events / self.events if self.events else 0.0,
            "error_ratio": self.failed_ops / self.ops if self.ops else 0.0,
        }


def _event_key(fields: dict):
    port = int(fields["port"]) if "port" in fields else None
    return (fields["kind"], fields["addr"], port)


def _check_peak(fields: dict, scan: dict, tally: Tally) -> None:
    """The printed peak line must agree with the command's own counters."""
    expected = {
        "discovery_pps": scan.get("peak_discovery_pps"),
        "tcp_pps": scan.get("peak_tcp_pps"),
        "total_packets": scan.get("total_packets"),
        "total_bytes": scan.get("total_bytes"),
    }
    for key, value in expected.items():
        if fields.get(key) != str(value):
            tally.problem(f"peak line {key}={fields.get(key)}, counters say {value}")


def check_simulate(inputs, inv, epochs: int, tally: Tally) -> dict:
    """Check one `simulate` invocation; returns first-detection ts per change."""
    failed_epochs = set()
    bad_invocation = False
    if inv.code != EXIT_OK:
        tally.problem(f"simulate exit code {inv.code}, expected {EXIT_OK}")
        bad_invocation = True
    if inv.stderr:
        tally.problem(f"simulate wrote to stderr: {inv.stderr.strip()[:200]}")
        bad_invocation = True
    if inv.failed_deliveries:
        tally.problem(f"{inv.failed_deliveries} sink deliveries failed")
        bad_invocation = True

    by_key = {c.key: c for c in inputs.changes if c.kind}
    first_seen = {}
    tags = None
    for line in inv.stdout.splitlines():
        if line.startswith("node="):
            fields = parse_line(line)
            if fields.get("kind") == "Operational":
                if fields.get("severity") != "info":
                    failed_epochs.add(int(fields["epoch"]))
                    tally.problem(f"operational warning: {line[:200]}")
                continue
            tally.events += 1
            key = _event_key(fields)
            ts = int(fields["ts"])
            change = by_key.get(key)
            if change is None or change.at > ts:
                tally.false_events += 1
                tally.problem(f"event with no scripted cause: {line[:200]}")
                continue
            first_seen[key] = min(ts, first_seen.get(key, ts))
        elif line.startswith("tags "):
            tags = set(line[5:].split(","))
        elif line.startswith("peak "):
            _check_peak(parse_line(line[5:]), inv.scan, tally)
        else:
            tally.problem(f"unexpected output line: {line[:200]}")
    if tags != inputs.expected_tags:
        tally.problem(f"tags {sorted(tags or ())} != expected {sorted(inputs.expected_tags)}")
    if inv.epochs_stored != epochs:
        tally.problem(f"{inv.epochs_stored} epochs stored, expected {epochs}")
        bad_invocation = True

    tally.ops += epochs
    tally.failed_ops += epochs if bad_invocation else len(failed_epochs)
    tally.changes += len(by_key)
    tally.detected += len(first_seen)
    for key in by_key.keys() - first_seen.keys():
        tally.problem(f"missed scripted change {key}")
    return {key: ts - by_key[key].at for key, ts in first_seen.items()}


def check_compare(inputs, inv, tally: Tally) -> None:
    """Check one `diff --format lines` invocation against the expected events."""
    tally.ops += 1
    failed = False
    if inv.code != EXIT_EVENTS:
        tally.problem(f"diff exit code {inv.code}, expected {EXIT_EVENTS}")
        failed = True
    if inv.stderr:
        tally.problem(f"diff wrote to stderr: {inv.stderr.strip()[:200]}")
        failed = True
    got = Counter()
    for line in inv.stdout.splitlines():
        try:
            got[_event_key(parse_line(line))] += 1
        except (ValueError, KeyError):
            tally.problem(f"unparseable diff line: {line[:200]}")
            failed = True
    expected = Counter(inputs.expected)
    extra = got - expected
    missing = expected - got
    tally.failed_ops += failed
    tally.changes += sum(expected.values())
    tally.detected += sum(expected.values()) - sum(missing.values())
    tally.events += sum(got.values())
    tally.false_events += sum(extra.values())
    for key in list(missing)[:2]:
        tally.problem(f"diff missed {key}")
    for key in list(extra)[:2]:
        tally.problem(f"diff reported unexpected {key}")
