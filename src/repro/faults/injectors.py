"""Substrate wrappers that inject the faults a plan schedules.

Each wrapper is a thin proxy over a real substrate object: it asks
the :class:`~repro.faults.plan.FaultPlan` whether the current
(kind, key, attempt) should fail, raises a typed
:class:`InjectedFault` if so, and otherwise delegates untouched.  The
current attempt number is read from a shared
:class:`~repro.faults.retry.AttemptCell`, so the injection schedule
is a pure function of the plan — wrapper instances carry no decision
state and can be created per run, per shard, or per worker without
changing the outcome.

The injected exception types are diamond subclasses: every
``InjectedDNSFault`` *is* a ``DNSError`` (so substrate-aware callers
see the failure they expect) and *is* a
:class:`~repro.errors.TransientFault` (so funnel code knows it is
retryable rather than a permanent protocol error).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.bgp.errors import BGPError
from repro.dns.errors import DNSError
from repro.errors import TransientFault
from repro.faults.plan import (
    DNS_SERVFAIL,
    DNS_TIMEOUT,
    DNS_TRUNCATED_CHAIN,
    DUMP_CORRUPT,
    DUMP_MISSING_ROUTE,
    FaultPlan,
)
from repro.faults.retry import AttemptCell

FaultCallback = Optional[Callable[[str], None]]


class InjectedFault(TransientFault):
    """Base of every injected failure; carries its kind and site key."""

    def __init__(self, kind: str, key: str, message: Optional[str] = None):
        super().__init__(message or f"injected {kind} at {key!r}")
        self.kind = kind
        self.key = key


class InjectedDNSFault(InjectedFault, DNSError):
    """An injected resolver failure (SERVFAIL, timeout, cut chain)."""


class InjectedDumpFault(InjectedFault, BGPError):
    """An injected table-dump failure (corrupt or missing-route read)."""


class InjectedServeFault(InjectedFault):
    """An injected serving-layer failure (stale snapshot, missed refresh).

    Unlike the substrate faults above there is no wrapped object to
    proxy: the query service consults the plan itself, catches this
    fault on the query path, and *degrades* the answer (``stale`` or
    ``degraded`` marker) instead of letting it escape — a read-only
    index can always serve what it has.
    """


_DNS_MESSAGES = {
    DNS_SERVFAIL: "SERVFAIL from upstream",
    DNS_TIMEOUT: "query timed out",
    DNS_TRUNCATED_CHAIN: "CNAME chain truncated mid-walk",
}

_DUMP_MESSAGES = {
    DUMP_CORRUPT: "table-dump read returned corrupt entries",
    DUMP_MISSING_ROUTE: "route absent from a stale table dump",
}


class FaultyResolver:
    """A resolver proxy that injects DNS faults before delegating.

    Duck-types :class:`repro.dns.PublicResolver` for everything the
    funnel touches.
    """

    KINDS = (DNS_SERVFAIL, DNS_TIMEOUT, DNS_TRUNCATED_CHAIN)

    def __init__(
        self,
        resolver,
        plan: FaultPlan,
        attempt: Optional[AttemptCell] = None,
        on_fault: FaultCallback = None,
    ):
        self._resolver = resolver
        self._plan = plan
        self._attempt = attempt if attempt is not None else AttemptCell()
        self._on_fault = on_fault

    def resolve(self, name: str):
        for kind in self.KINDS:
            if self._plan.should_fail(kind, name, self._attempt.value):
                if self._on_fault is not None:
                    self._on_fault(kind)
                raise InjectedDNSFault(
                    kind, name, f"injected {_DNS_MESSAGES[kind]} for {name!r}"
                )
        return self._resolver.resolve(name)

    def __getattr__(self, attr):
        return getattr(self._resolver, attr)

    def __repr__(self) -> str:
        return f"<FaultyResolver over {self._resolver!r}>"


class FaultyTableDump:
    """A table-dump proxy injecting read faults on covering lookups."""

    KINDS = (DUMP_CORRUPT, DUMP_MISSING_ROUTE)

    def __init__(
        self,
        dump,
        plan: FaultPlan,
        attempt: Optional[AttemptCell] = None,
        on_fault: FaultCallback = None,
    ):
        self._dump = dump
        self._plan = plan
        self._attempt = attempt if attempt is not None else AttemptCell()
        self._on_fault = on_fault

    def covering_entries(self, target) -> List:
        key = str(target)
        for kind in self.KINDS:
            if self._plan.should_fail(kind, key, self._attempt.value):
                if self._on_fault is not None:
                    self._on_fault(kind)
                raise InjectedDumpFault(
                    kind, key, f"injected {_DUMP_MESSAGES[kind]} for {key}"
                )
        return self._dump.covering_entries(target)

    def __getattr__(self, attr):
        return getattr(self._dump, attr)

    def __len__(self) -> int:
        return len(self._dump)

    def __iter__(self):
        return iter(self._dump)

    def __repr__(self) -> str:
        return f"<FaultyTableDump over {self._dump!r}>"
