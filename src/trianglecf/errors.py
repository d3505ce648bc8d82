"""Exception types shared across the library."""


class TriangleCFError(Exception):
    """Base class for all library errors."""


class DomainError(TriangleCFError):
    """An argument lies outside the domain of the requested operation: the one
    bad-input exception, raised where the value is read (CLI exit code 2)."""


class PrecisionExhausted(TriangleCFError):
    """A numeric decision could not be made within the precision cap.

    Carries the undecided quantity so callers can report which boundary
    was too close to call, and for an exact decision the last precision in
    bits that it tried.
    """

    def __init__(self, message, boundary=None, bits=None):
        super().__init__(message)
        self.boundary = boundary
        self.bits = bits


class ConsistencyError(TriangleCFError):
    """An internal exact identity failed; indicates a construction bug."""
