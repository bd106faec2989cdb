"""Exception hierarchy for the RPKI substrate."""

from repro.errors import ReproError


class RPKIError(ReproError):
    """Base class for RPKI failures."""


class IssuanceError(RPKIError):
    """A CA refused to issue an object (e.g. resources not held)."""


class ValidationStateError(RPKIError, ValueError):
    """A value names no RFC 6811 route validation state."""
