"""Exception hierarchy for the crypto substrate."""

from repro.errors import ReproError


class CryptoError(ReproError):
    """Base class for crypto failures."""


class SignatureError(CryptoError):
    """A signature failed to verify or could not be produced."""
