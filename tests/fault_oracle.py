"""The per-call fault walk: the oracle for the funnel's fault overlay.

A resilient :class:`repro.core.pipeline.Funnel` never retries
anything: it asks :meth:`repro.faults.FaultPlan.stage_outcome` how a
stage would fare and runs the stage only if it heals.  This module
keeps the walk that closed form replaces — substrate proxies that
raise an injected fault on schedule, and a loop that retries each
stage up to ``max_attempts`` times — so tests can hold the overlay
equal to it, result and Prometheus text alike.

Every attempt counts its metric ticks in a scratch registry that is
merged only if the attempt returns, so a failed attempt leaves no
trace in the exposition; no memo is used.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar

from repro.bgp.errors import BGPError
from repro.core.dns_mapping import measure_name
from repro.core.pipeline import StudyResult, StudyStatistics
from repro.core.prefix_mapping import map_addresses
from repro.core.records import DomainMeasurement, NameMeasurement
from repro.core.rpki_validation import validate_pairs
from repro.dns.errors import DNSError
from repro.errors import ReproError
from repro.faults import (
    DNS_KINDS,
    DNS_SERVFAIL,
    DNS_TIMEOUT,
    DNS_TRUNCATED_CHAIN,
    DUMP_CORRUPT,
    DUMP_KINDS,
    DUMP_MISSING_ROUTE,
    FaultPlan,
    InjectedFault,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import metrics, thread_scope, tracer

T = TypeVar("T")

FaultCallback = Optional[Callable[[str], None]]


class InjectedDNSFault(InjectedFault, DNSError):
    """An injected resolver failure (SERVFAIL, timeout, cut chain)."""


class InjectedDumpFault(InjectedFault, BGPError):
    """An injected table-dump failure (corrupt or missing-route read)."""


class RetryExhausted(ReproError):
    """:func:`call_with_retry` gave up on one call."""

    def __init__(
        self, key: str, attempts: int, cause: Optional[BaseException] = None
    ):
        super().__init__(
            f"gave up on {key!r} after {attempts} attempt(s): {cause}"
        )
        self.key = key
        self.attempts = attempts
        self.cause = cause


_DNS_MESSAGES = {
    DNS_SERVFAIL: "SERVFAIL from upstream",
    DNS_TIMEOUT: "query timed out",
    DNS_TRUNCATED_CHAIN: "CNAME chain truncated mid-walk",
}

_DUMP_MESSAGES = {
    DUMP_CORRUPT: "table-dump read returned corrupt entries",
    DUMP_MISSING_ROUTE: "route absent from a stale table dump",
}


class AttemptCell:
    """The attempt number the retry loop publishes to the proxies."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value


def call_with_retry(
    fn: Callable[[], T],
    *,
    attempts: int,
    key: str = "",
    attempt_cell: Optional[AttemptCell] = None,
) -> Tuple[T, int]:
    """Run ``fn`` up to ``attempts`` times; ``(value, attempts used)``.

    Retries on any :class:`ReproError`; other exceptions propagate.
    The 0-based attempt number goes to ``attempt_cell`` before each
    attempt.  Raises :class:`RetryExhausted` when every attempt failed.
    """
    last: Optional[ReproError] = None
    for attempt in range(attempts):
        if attempt_cell is not None:
            attempt_cell.value = attempt
        try:
            return fn(), attempt + 1
        except ReproError as error:
            last = error
    raise RetryExhausted(key=key, attempts=attempts, cause=last) from last


class FaultyResolver:
    """A resolver proxy that injects DNS faults before delegating."""

    KINDS = DNS_KINDS

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

    def inject(self, name: str) -> None:
        """Raise the fault scheduled for ``name`` at this attempt, if any."""
        for kind in self.KINDS:
            if self._plan.should_fail(kind, name, self._attempt.value):
                if self._on_fault is not None:
                    self._on_fault(kind)
                raise InjectedDNSFault(
                    kind, name, f"injected {_DNS_MESSAGES[kind]} for {name!r}"
                )

    def resolve(self, name: str):
        self.inject(name)
        return self._resolver.resolve(name)

    def __getattr__(self, attr):
        return getattr(self._resolver, attr)


class FaultyTableDump:
    """A table-dump proxy injecting read faults on covering lookups."""

    KINDS = DUMP_KINDS

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


class FaultWalk:
    """Steps 2-4 per name form, each stage retried through the proxies."""

    def __init__(self, study, config):
        self._study = study
        self._attempts = config.max_attempts
        self._cell = AttemptCell()
        self._faults: dict = {}
        self._resolver = FaultyResolver(
            study.resolver, config.faults,
            attempt=self._cell, on_fault=self._record,
        )
        self._dump = FaultyTableDump(
            study.table_dump, config.faults,
            attempt=self._cell, on_fault=self._record,
        )

    def _record(self, kind: str) -> None:
        self._faults[kind] = self._faults.get(kind, 0) + 1

    def _retried(self, key: str, fn: Callable[[], T]) -> Tuple[T, int]:
        return call_with_retry(
            lambda: _kept_if_returns(fn),
            attempts=self._attempts, key=key, attempt_cell=self._cell,
        )

    def _resolve(self, name: str) -> NameMeasurement:
        # measure_name reads any DNSError as "did not resolve"; the
        # injected fault has to reach the retry loop instead.
        self._resolver.inject(name)
        return measure_name(self._study.resolver, name)

    def _map_and_validate(self, base: NameMeasurement) -> NameMeasurement:
        # A trial copy: a failed attempt leaves ``base`` untouched.
        trial = NameMeasurement(
            name=base.name,
            resolved=base.resolved,
            addresses=list(base.addresses),
            excluded_special=base.excluded_special,
            cname_count=base.cname_count,
        )
        pairs = map_addresses(self._dump, trial)
        trial.pairs = validate_pairs(self._study.payloads, pairs)
        return trial

    def measure_form(self, name: str) -> NameMeasurement:
        self._faults = {}
        retries = 0
        try:
            measurement, attempts = self._retried(
                f"dns|{name}", lambda: self._resolve(name)
            )
            retries += attempts - 1
        except RetryExhausted as exhausted:
            retries += exhausted.attempts - 1
            measurement = NameMeasurement(name=name, degraded_stage="dns")
        else:
            if measurement.resolved and measurement.addresses:
                base = measurement
                try:
                    measurement, attempts = self._retried(
                        f"prefix|{name}",
                        lambda: self._map_and_validate(base),
                    )
                    retries += attempts - 1
                except RetryExhausted as exhausted:
                    retries += exhausted.attempts - 1
                    measurement.degraded_stage = "prefix"
        measurement.retries = retries
        measurement.faults = tuple(sorted(self._faults.items()))
        return measurement

    def run(self) -> StudyResult:
        """The whole ranking, then the one funnel-family write."""
        measurements = [
            DomainMeasurement(
                domain,
                self.measure_form(domain.www_name),
                self.measure_form(domain.name),
            )
            for domain in self._study.ranking
        ]
        stats = StudyStatistics.from_measurements(measurements)
        stats.to_metrics(metrics(), resilient=True)
        return StudyResult(measurements, stats)


def _kept_if_returns(fn: Callable[[], T]) -> T:
    """``fn()``, its metric ticks merged into the active registry only
    if it returns."""
    scratch = MetricsRegistry()
    with thread_scope(scratch, tracer()):
        value = fn()
    if metrics().enabled:
        metrics().merge(scratch)
    return value
