"""The injected fault types.

The funnel needs no exception for its injected faults: it reads a
stage's outcome from :func:`~repro.faults.plan.stage_outcome`
before running the stage.  The query service is the one path that
raises and catches an injected fault (:class:`InjectedServeFault`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TransientFault


class InjectedFault(TransientFault):
    """Base of every injected failure; carries its kind and site key."""

    def __init__(self, kind: str, key: str, message: Optional[str] = None):
        super().__init__(message or f"injected {kind} at {key!r}")
        self.kind = kind
        self.key = key


class InjectedServeFault(InjectedFault):
    """An injected serving-layer failure (stale snapshot, missed refresh).

    The query service consults the plan itself, catches this fault on
    the query path, and *degrades* the answer (``stale`` or
    ``degraded`` marker) instead of letting it escape — a read-only
    index can always serve what it has.
    """
