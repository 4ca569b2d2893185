"""edgemap: active network scanning and baseline-diff intrusion detection.

Learns a trusted fingerprint of hosts, ports, and service banners on the
first sweep, then re-scans in a pseudo-random paced manner and reports
every deviation.  Runs against real networks (OS sockets) or a scripted,
fully deterministic simulated network on a virtual clock.
"""

from .model import (AddressRange, EventKind, HostRecord, IntrusionEvent,
                    NetworkFingerprint, PortState, ScanConfig, config_digest)

__all__ = [
    "AddressRange", "EventKind", "HostRecord", "IntrusionEvent",
    "NetworkFingerprint", "PortState", "ScanConfig", "config_digest",
]

__version__ = "0.1.0"
