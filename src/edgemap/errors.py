"""Exception types shared across the toolkit."""


class EdgemapError(Exception):
    """Base class for all toolkit errors."""


class CapabilityUnsupported(EdgemapError):
    """A probe method was requested that the active backend cannot perform."""


class TransportDown(EdgemapError):
    """The underlying network backend is unusable."""


class MalformedScript(EdgemapError):
    """A simulation scenario file or action sequence is invalid."""


class IncomparableFingerprints(EdgemapError):
    """Two fingerprints were taken under incompatible scan configs."""


class UntrustedBaseline(EdgemapError):
    """A diff was attempted against a fingerprint not marked trusted."""


class TrustedAlreadyExists(EdgemapError):
    """A trusted fingerprint is already stored for this config."""


class CorruptRecord(EdgemapError):
    """A stored fingerprint failed checksum or structural validation."""


class NotFound(EdgemapError):
    """No stored fingerprint matches the request."""
