"""The root of the substrate exception hierarchy (``repro.errors``).

Every substrate package historically grew its own disjoint exception
base (``DNSError``, ``BGPError``, ``CryptoError``, ``NetError``,
``RPKIError``, ``RTRError``).  The resilience layer needs *one*
catchable surface — a retry loop cannot enumerate every substrate —
so all of those bases now derive from :class:`ReproError`, and each
package re-exports it::

    from repro.dns import ReproError   # same class everywhere
    try:
        measure(...)
    except ReproError:                 # catches any substrate failure
        ...

Two refinements matter to the retry machinery:

* :class:`TransientFault` marks failures that are *worth retrying* —
  injected faults and (in a live deployment) network-weather errors.
  Deterministic protocol errors (a CNAME loop, a malformed PDU) stay
  plain ``ReproError`` subtypes: retrying them cannot help.
* :class:`RetryExhausted` is what the retry layer raises when it
  gives up; it carries the attribution the degradation accounting
  records (key, attempt count, last cause).
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Root of every substrate failure in the reproduction."""


class TransientFault(ReproError):
    """A failure that may succeed on retry (injected or environmental)."""


class RetryExhausted(ReproError):
    """The retry layer gave up on one call; the outcome is *degraded*."""

    def __init__(
        self,
        key: str,
        attempts: int,
        cause: Optional[BaseException] = None,
    ):
        super().__init__(
            f"gave up on {key!r} after {attempts} attempt(s): {cause}"
        )
        self.key = key
        self.attempts = attempts
        self.cause = cause


__all__ = ["ReproError", "RetryExhausted", "TransientFault"]
