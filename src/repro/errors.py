"""The root of the substrate exception hierarchy (``repro.errors``).

Every substrate package historically grew its own disjoint exception
base (``DNSError``, ``BGPError``, ``CryptoError``, ``NetError``,
``RPKIError``, ``RTRError``).  Callers need *one* catchable surface
— nothing should enumerate every substrate — so all of those bases
derive from :class:`ReproError`, and each package re-exports it::

    from repro.dns import ReproError   # same class everywhere
    try:
        measure(...)
    except ReproError:                 # catches any substrate failure
        ...

:class:`TransientFault` marks failures that may succeed on a retry —
injected faults and (in a live deployment) network-weather errors.
Deterministic protocol errors (a CNAME loop, a malformed PDU) stay
plain ``ReproError`` subtypes, and a measurement run propagates them:
only an injected fault degrades a name form.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of every substrate failure in the reproduction."""


class TransientFault(ReproError):
    """A failure that may succeed on retry (injected or environmental)."""


__all__ = ["ReproError", "TransientFault"]
