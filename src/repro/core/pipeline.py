"""The end-to-end measurement study (Section 3).

:class:`MeasurementStudy` runs steps 1–4 for every ranked domain and
returns a :class:`StudyResult` — "a comprehensive list of all Alexa
websites that (i) can be resolved from our DNS vantage point and (ii)
mapped to an IP prefix AS pair ... (iii) annotated with RPKI origin
validation outcome."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.bgp import TableDump
from repro.dns import PublicResolver
from repro.errors import RetryExhausted
from repro.faults import (
    AttemptCell,
    FaultPlan,
    FaultyResolver,
    FaultyTableDump,
    call_with_retry,
)
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.metrics import (
    MetricsRegistry,
    registry_from_wire,
    registry_to_wire,
)
from repro.obs.runtime import metrics, thread_scope, tracer
from repro.rpki import ValidatedPayloads
from repro.web.alexa import AlexaRanking, Domain
from repro.core.dns_mapping import measure_name
from repro.core.prefix_mapping import map_addresses, map_single_address
from repro.core.records import DomainMeasurement, NameMeasurement
from repro.core.rpki_validation import validate_pairs, validate_single_pair

# Execution backends; repro.exec re-exports this as MODES.
RUN_MODES: Tuple[str, ...] = ("auto", "serial", "thread", "process", "workers")

# Stage names recorded in NameMeasurement.degraded_stage.
STAGE_DNS = "dns"
STAGE_PREFIX = "prefix"

# Funnel counters, one metric name per StudyStatistics field, written
# only by StudyStatistics.to_metrics.  The labelled entries share a
# metric family split by name form.
_STAT_METRICS: Dict[str, Tuple[str, Optional[Dict[str, str]]]] = {
    "domain_count": ("ripki_domains_measured_total", None),
    "invalid_dns_domains": ("ripki_invalid_dns_domains_total", None),
    "www_addresses": ("ripki_addresses_total", {"form": "www"}),
    "plain_addresses": ("ripki_addresses_total", {"form": "plain"}),
    "www_pairs": ("ripki_pairs_total", {"form": "www"}),
    "plain_pairs": ("ripki_pairs_total", {"form": "plain"}),
    "unreachable_addresses": ("ripki_unreachable_addresses_total", None),
    "as_set_exclusions": ("ripki_as_set_exclusions_total", None),
}

# Resilience counters — written only for fault-injected runs, so a run
# without a fault plan emits byte-identical metrics to one predating
# the resilience layer.
_RESILIENCE_METRICS: Dict[str, str] = {
    "degraded_domains": "ripki_degraded_domains_total",
    "retries_total": "ripki_retries_total",
}
_FAULTS_METRIC = "ripki_faults_injected_total"

# Snapshot-cache counters — written only for cache-backed runs, so a
# run without a cache emits byte-identical metrics to one predating
# the cache layer.  Labelled by stage key: per-stage keys
# ("dns.www", "dns.plain", "prefix", "rpki") on plain runs, form-level
# keys ("form.www", "form.plain") on fault runs, and for invalidation
# the store stages ("dns", "prefix", "rpki", "form") plus "config".
_CACHE_STAT_METRICS: Dict[str, str] = {
    "cache_hits_by_stage": "ripki_cache_hits_total",
    "cache_misses_by_stage": "ripki_cache_misses_total",
    "cache_invalidated_by_stage": "ripki_cache_invalidated_total",
}

_STAT_HELP = {
    "ripki_domains_measured_total": "Domains pushed through the funnel",
    "ripki_invalid_dns_domains_total":
        "Domains excluded: only special-purpose answers",
    "ripki_addresses_total": "Step-2 addresses kept, by name form",
    "ripki_pairs_total": "Step-3/4 prefix-origin pairs, by name form",
    "ripki_unreachable_addresses_total":
        "Addresses with no covering prefix in the table dump",
    "ripki_as_set_exclusions_total":
        "Table rows skipped for an AS_SET origin (RFC 6472)",
    "ripki_degraded_domains_total":
        "Domains with a name form that exhausted its retry budget",
    "ripki_retries_total": "Stage retries spent across all domains",
    "ripki_faults_injected_total": "Injected faults observed, by kind",
    "ripki_cache_hits_total": "Snapshot-cache artifacts served, by stage",
    "ripki_cache_misses_total":
        "Snapshot-cache stage computations recorded, by stage",
    "ripki_cache_invalidated_total":
        "Stored artifacts dropped at session open, by stage",
}

ProgressSink = Union[ProgressReporter, Callable[[ProgressEvent], None]]


@dataclass
class StudyStatistics:
    """The aggregate counters Section 4 reports in its first paragraph."""

    domain_count: int = 0
    invalid_dns_domains: int = 0      # excluded: only special-purpose answers
    www_addresses: int = 0
    plain_addresses: int = 0
    www_pairs: int = 0
    plain_pairs: int = 0
    unreachable_addresses: int = 0
    as_set_exclusions: int = 0
    # Resilience accounting (all zero/empty unless faults were injected).
    degraded_domains: int = 0         # a name form exhausted its retries
    retries_total: int = 0            # stage retries spent across domains
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    # Snapshot-cache accounting (all empty unless the run was
    # cache-backed); keyed by stage key, nonzero counts only.
    cache_hits_by_stage: Dict[str, int] = field(default_factory=dict)
    cache_misses_by_stage: Dict[str, int] = field(default_factory=dict)
    cache_invalidated_by_stage: Dict[str, int] = field(default_factory=dict)

    @property
    def total_addresses(self) -> int:
        return self.www_addresses + self.plain_addresses

    @property
    def cache_hits_total(self) -> int:
        return sum(self.cache_hits_by_stage.values())

    @property
    def cache_misses_total(self) -> int:
        return sum(self.cache_misses_by_stage.values())

    @property
    def faults_total(self) -> int:
        return sum(self.faults_by_kind.values())

    @property
    def degraded_fraction(self) -> float:
        if not self.domain_count:
            return 0.0
        return self.degraded_domains / self.domain_count

    @property
    def invalid_dns_fraction(self) -> float:
        if not self.domain_count:
            return 0.0
        return self.invalid_dns_domains / self.domain_count

    @property
    def unreachable_fraction(self) -> float:
        if not self.total_addresses:
            return 0.0
        return self.unreachable_addresses / self.total_addresses

    # -- the fold ----------------------------------------------------------

    @classmethod
    def from_measurements(cls, measurements) -> "StudyStatistics":
        """Fold domain measurements into the funnel's counts.

        Every run, shard and refresh campaign gets its statistics here;
        the cache fields are the caller's to set.
        """
        stats = cls()
        faults = stats.faults_by_kind
        for measurement in measurements:
            www, plain = measurement.www, measurement.plain
            stats.domain_count += 1
            resolved_forms = [form for form in (www, plain) if form.resolved]
            if resolved_forms and all(
                not form.addresses and form.excluded_special
                for form in resolved_forms
            ):
                stats.invalid_dns_domains += 1
            stats.www_addresses += len(www.addresses)
            stats.plain_addresses += len(plain.addresses)
            stats.www_pairs += len(www.pairs)
            stats.plain_pairs += len(plain.pairs)
            stats.unreachable_addresses += (
                www.unreachable_addresses + plain.unreachable_addresses
            )
            stats.as_set_exclusions += (
                www.as_set_excluded + plain.as_set_excluded
            )
            if measurement.degraded:
                stats.degraded_domains += 1
            stats.retries_total += www.retries + plain.retries
            for form in (www, plain):
                for kind, count in form.faults:
                    faults[kind] = faults.get(kind, 0) + count
        return stats

    # -- metrics round-trip ------------------------------------------------

    def to_metrics(
        self, registry, *, resilient: bool = False, cached: bool = False
    ) -> None:
        """Write the funnel families into ``registry``: their one writer.

        Called once per run or campaign, after its funnel finished:
        by :meth:`MeasurementStudy.run` (serial), by
        :func:`repro.exec.executor.execute_study` after the shard merge,
        and by each heuristic refresh campaign.  Counters add, so
        campaigns sharing a registry sum.  Zero counts are explicit:
        the eight stat series always; the resilience and fault
        families on ``resilient`` runs; on ``cached`` runs the hit/miss
        series of the run's stage keys (``form.*`` when also resilient,
        else ``dns.*``, ``prefix``, ``rpki``) and the invalidated
        family.  Other runs get a family only for a nonzero count, so
        fault-free and cache-free output is unchanged.
        """
        for field_name, (metric, labels) in _STAT_METRICS.items():
            labelnames = tuple(labels) if labels else ()
            counter = registry.counter(
                metric, _STAT_HELP[metric], labelnames=labelnames
            )
            if labels:
                counter = counter.labels(**labels)
            counter.inc(getattr(self, field_name))
        for field_name, metric in _RESILIENCE_METRICS.items():
            value = getattr(self, field_name)
            if resilient or value:
                registry.counter(metric, _STAT_HELP[metric]).inc(value)
        if resilient or self.faults_by_kind:
            faults = registry.counter(
                _FAULTS_METRIC, _STAT_HELP[_FAULTS_METRIC], labelnames=("kind",)
            )
            for kind, count in sorted(self.faults_by_kind.items()):
                faults.labels(kind=kind).inc(count)
        stage_keys = (
            ("form.www", "form.plain")
            if resilient
            else ("dns.www", "dns.plain", "prefix", "rpki")
        )
        for field_name, metric in _CACHE_STAT_METRICS.items():
            counts = dict(getattr(self, field_name))
            if not (cached or counts):
                continue
            if cached and field_name != "cache_invalidated_by_stage":
                for stage_key in stage_keys:
                    counts.setdefault(stage_key, 0)
            counter = registry.counter(
                metric, _STAT_HELP[metric], labelnames=("stage",)
            )
            for stage_key, count in sorted(counts.items()):
                counter.labels(stage=stage_key).inc(count)

    @classmethod
    def from_metrics(cls, registry) -> "StudyStatistics":
        """Rebuild the statistics from a registry's funnel counters."""
        stats = cls()
        for field_name, (metric, labels) in _STAT_METRICS.items():
            instrument = registry.get(metric)
            if instrument is None:
                continue
            if labels:
                instrument = instrument.labels(**labels)
            setattr(stats, field_name, int(instrument.value))
        for field_name, metric in _RESILIENCE_METRICS.items():
            instrument = registry.get(metric)
            if instrument is not None:
                setattr(stats, field_name, int(instrument.value))
        faults = registry.get(_FAULTS_METRIC)
        if faults is not None:
            for key, child in faults.series():
                if child.value:
                    stats.faults_by_kind[key[0]] = int(child.value)
        for field_name, metric in _CACHE_STAT_METRICS.items():
            instrument = registry.get(metric)
            if instrument is None:
                continue
            mapping = getattr(stats, field_name)
            for key, child in instrument.series():
                if child.value:
                    mapping[key[0]] = int(child.value)
        return stats

    def consistent_with(self, registry) -> bool:
        """Sanity check: do the registry's funnel counters match us?"""
        return StudyStatistics.from_metrics(registry) == self


class StudyResult:
    """All per-domain measurements plus the aggregate statistics."""

    def __init__(
        self,
        measurements: List[DomainMeasurement],
        statistics: StudyStatistics,
    ):
        self._measurements = measurements
        self.statistics = statistics
        # Dispatch accounting of a ``workers`` run (a
        # repro.exec.scheduler.SchedulerReport); None on every other
        # backend.  Deliberately outside __eq__: how a run was
        # scheduled must never affect what it measured.
        self.scheduler_report = None
        self._by_name: Dict[str, DomainMeasurement] = {
            m.domain.name: m for m in measurements
        }

    def __eq__(self, other: object) -> bool:
        """Equal when measurements (in order) and statistics match."""
        if not isinstance(other, StudyResult):
            return NotImplemented
        return (
            self._measurements == other._measurements
            and self.statistics == other.statistics
        )

    def __len__(self) -> int:
        return len(self._measurements)

    def __iter__(self) -> Iterator[DomainMeasurement]:
        return iter(self._measurements)

    def by_rank(self) -> List[DomainMeasurement]:
        """Measurements ordered by rank (rank 1 first)."""
        return sorted(self._measurements, key=lambda m: m.rank)

    def lookup(self, name: str) -> Optional[DomainMeasurement]:
        return self._by_name.get(name)

    def usable(self) -> List[DomainMeasurement]:
        return [m for m in self._measurements if m.usable]

    def __repr__(self) -> str:
        return f"<StudyResult {len(self._measurements)} domains>"


class Funnel:
    """Steps 2-4 that do each distinct thing once.

    Section 3 is stage-major: resolve the names, map the *set* of
    addresses, validate the *set* of (prefix, origin) pairs.  A funnel
    keeps a memo per distinct address (step 3) and per distinct pair
    (step 4); with a snapshot-cache ``session`` open it also keeps one
    per name form — the DNS answer on plain runs, the whole
    fault-injected form on resilient ones.  The session seeds the memo
    (:attr:`memo` starts as a copy of ``session.memo``) and takes back
    what the funnel computed
    (:meth:`repro.cache.session.CacheSession.fresh_rows`); degraded
    forms are never kept.  One funnel serves one :func:`run_funnel`
    call — a run or a shard — or one refresh campaign, and is dropped
    with it.

    A resilient ``config`` (one carrying a fault plan) wraps the
    resolver and table dump in fault injectors and gives each stage of
    a form up to ``max_attempts`` tries: the DNS stage, then steps 3-4
    on a trial copy of its outcome.  Retry decisions follow the
    sequence of faultable calls, so that walk never uses the address
    and pair memo.  A stage that exhausts its retries degrades the form
    (``degraded_stage`` "dns" or "prefix") instead of failing the
    study; retries spent and faults observed are recorded on the form.
    Fault decisions are pure functions of (plan seed, kind, site key,
    attempt), so any partition of the ranking over funnels yields
    bit-identical measurements.

    Metrics stay exact.  A miss — and each retried attempt — runs
    under a scratch registry when metrics are on or a session will
    store its delta; the delta is kept as wire rows, one copy per
    distinct content, and a failed attempt's delta is dropped with
    it.  Misses and hits only count uses, and :meth:`finish` merges
    each delta times its uses, once — so a hit is accounted as
    ``delta × hits`` per call, never replayed per hit.  Under the null
    runtime with no session nothing is captured.  These are the stage
    counters (lookups, validations, trie, DNS); a funnel writes no
    funnel family — :meth:`StudyStatistics.to_metrics` does, once per
    run, from the measurements.  Hits and misses by stage key
    (``prefix``, ``rpki``, ``dns.www``, ``form.plain`` …) are
    :attr:`hits` / :attr:`misses`; only cache-backed runs report them,
    through their statistics.
    """

    def __init__(self, study: "MeasurementStudy", config=None, session=None):
        self._resolver = study.resolver
        self._dump = study.table_dump
        self._payloads = study.payloads
        self._session = session
        self._resilient = config is not None and config.resilient
        if self._resilient:
            self._attempts = config.max_attempts
            self._cell = AttemptCell()
            self._form_faults: Dict[str, int] = {}
            self._resolver = FaultyResolver(
                self._resolver, config.faults,
                attempt=self._cell, on_fault=self._record_fault,
            )
            self._dump = FaultyTableDump(
                self._dump, config.faults,
                attempt=self._cell, on_fault=self._record_fault,
            )
        self._live = metrics()
        self._observe = self._live.enabled
        self._capture = self._observe or session is not None
        #: Stage -> key -> ``(value, metric delta)``.
        self.memo: Dict[str, dict] = (
            {stage: dict(table) for stage, table in session.memo.items()}
            if session is not None
            else {"prefix": {}, "rpki": {}}
        )
        # Metric deltas by content (most misses tick alike), and the
        # uses — misses and hits — each delta has to be accounted for.
        self._deltas: Dict[str, list] = {}
        self._uses: Dict[int, list] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}

    def measure_domain(self, domain: Domain) -> DomainMeasurement:
        """Steps 2-4 for one domain (both name forms)."""
        www = self.measure_form(domain.www_name, "www")
        plain = self.measure_form(domain.name, "plain")
        return DomainMeasurement(domain=domain, www=www, plain=plain)

    def measure_form(self, name: str, form: str) -> NameMeasurement:
        """Steps 2-4 for one name form (``form`` is "www" or "plain")."""
        if self._resilient:
            if self._session is None:
                return self._measure_faulty(name)
            measurement = self._memo(
                "form", f"form.{form}", name, self._measure_faulty, name
            )
            if measurement.degraded_stage:
                # A partial answer, not a reusable one.
                del self.memo["form"][name]
            return measurement
        if self._session is None:
            measurement = measure_name(self._resolver, name)
        else:
            resolved, addresses, excluded, cnames = self._memo(
                "dns", f"dns.{form}", name, _dns_answer, self._resolver, name
            )
            measurement = NameMeasurement(
                name, resolved, list(addresses), excluded, cname_count=cnames
            )
        if measurement.resolved and measurement.addresses:
            pairs: set = set()
            with tracer().span("stage.prefix", name=name):
                for address in measurement.addresses:
                    mapped, unreachable, as_set = self._memo(
                        "prefix", "prefix", address,
                        map_single_address, self._dump, address,
                    )
                    pairs.update(mapped)
                    measurement.unreachable_addresses += unreachable
                    measurement.as_set_excluded += as_set
            with tracer().span("stage.rpki"):
                measurement.pairs = [
                    self._memo(
                        "rpki", "rpki", pair,
                        validate_single_pair, self._payloads, *pair,
                    )
                    for pair in sorted(pairs)
                ]
        return measurement

    def _record_fault(self, kind: str) -> None:
        self._form_faults[kind] = self._form_faults.get(kind, 0) + 1

    def _measure_faulty(self, name: str) -> NameMeasurement:
        """Steps 2-4 for one name form, each stage retried."""
        self._form_faults = {}
        retries = 0
        try:
            measurement, attempts = self._retried(
                STAGE_DNS, name, measure_name, self._resolver, name
            )
            retries += attempts - 1
        except RetryExhausted as exhausted:
            retries += exhausted.attempts - 1
            measurement = NameMeasurement(name=name, degraded_stage=STAGE_DNS)
        else:
            if measurement.resolved and measurement.addresses:
                try:
                    mapped, attempts = self._retried(
                        STAGE_PREFIX, name, self._map_and_validate, measurement
                    )
                    retries += attempts - 1
                    measurement = mapped
                except RetryExhausted as exhausted:
                    retries += exhausted.attempts - 1
                    measurement.degraded_stage = STAGE_PREFIX
        measurement.retries = retries
        measurement.faults = tuple(sorted(self._form_faults.items()))
        return measurement

    def _map_and_validate(self, base: NameMeasurement) -> NameMeasurement:
        """Steps 3-4 on a trial copy of the DNS outcome.

        ``map_addresses`` mutates its measurement (unreachable/AS_SET
        counts); retrying on a copy keeps ``base`` pristine until an
        attempt completes, and leaves it untouched on exhaustion.
        """
        trial = NameMeasurement(
            name=base.name,
            resolved=base.resolved,
            addresses=list(base.addresses),
            excluded_special=base.excluded_special,
            cname_count=base.cname_count,
        )
        pairs = map_addresses(self._dump, trial)
        trial.pairs = validate_pairs(self._payloads, pairs)
        return trial

    def _retried(self, stage: str, name: str, compute, *args) -> tuple:
        """``(compute(*args), attempts)``, retried up to ``max_attempts``.

        Each attempt runs through :meth:`_compute`, so a failed one's
        metric ticks go with its scratch registry; the successful
        attempt's delta lands in the active registry — the live one,
        or the form's own scratch when the form memo is capturing.
        """
        (value, delta), attempts = call_with_retry(
            lambda: self._compute(compute, *args),
            attempts=self._attempts,
            key=f"{stage}|{name}",
            attempt_cell=self._cell,
        )
        if delta is not None:
            metrics().merge(registry_from_wire(delta))
        return value, attempts

    def _memo(self, stage: str, label: str, key, compute, *args):
        """``compute(*args)`` for ``key``, computed once per funnel."""
        table = self.memo[stage]
        entry = table.get(key)
        if entry is None:
            self.misses[label] = self.misses.get(label, 0) + 1
            entry = table[key] = self._compute(compute, *args)
        else:
            self.hits[label] = self.hits.get(label, 0) + 1
        if self._observe:
            delta = entry[1]
            use = self._uses.get(id(delta))
            if use is None:
                self._uses[id(delta)] = [delta, 1]
            else:
                use[1] += 1
        return entry[0]

    def _compute(self, compute, *args) -> tuple:
        """``(value, metric delta)``; the delta is wire rows, interned."""
        if not self._capture:
            return compute(*args), None
        scratch = MetricsRegistry()
        with thread_scope(scratch, tracer()):
            value = compute(*args)
        delta = registry_to_wire(scratch)
        return value, self._deltas.setdefault(repr(delta), delta)

    def finish(self) -> None:
        """Account every use: each distinct delta times its uses, once."""
        if not self._observe:
            return
        for delta, times in self._uses.values():
            self._live.merge(registry_from_wire(delta), times=times)


def _dns_answer(resolver: PublicResolver, name: str) -> tuple:
    """Step 2 as the memo keeps it: ``(resolved, addresses, excluded, cnames)``."""
    measurement = measure_name(resolver, name)
    return (
        measurement.resolved,
        tuple(measurement.addresses),
        measurement.excluded_special,
        measurement.cname_count,
    )


def run_funnel(
    study: "MeasurementStudy",
    domains,
    config: Optional["RunConfig"] = None,
    session=None,
    on_domain: Optional[Callable[[], None]] = None,
) -> Tuple[List[DomainMeasurement], StudyStatistics, Optional[dict]]:
    """Steps 2-4 for ``domains``, in order, and their statistics.

    The one per-domain loop: :meth:`MeasurementStudy.run` walks the
    whole ranking through it and every shard worker
    (:func:`repro.exec.executor.run_shard`) its slice, each through one
    :class:`Funnel`, which measures every form under a resilient
    ``config``'s fault plan and attempt count.  The active registry
    gets the funnel's stage counters only; the funnel families are
    the caller's to write, once, via :meth:`StudyStatistics.to_metrics`.
    A cache ``session`` seeds the funnel's memo; the rows of what the
    funnel computed come back third (stage -> key -> row; ``None`` on
    uncached runs).  ``on_domain`` fires after each domain.
    """
    funnel = Funnel(study, config, session)
    measurements: List[DomainMeasurement] = []
    for domain in domains:
        measurements.append(funnel.measure_domain(domain))
        if on_domain is not None:
            on_domain()
    funnel.finish()
    stats = StudyStatistics.from_measurements(measurements)
    if session is None:
        return measurements, stats, None
    stats.cache_hits_by_stage = dict(funnel.hits)
    stats.cache_misses_by_stage = dict(funnel.misses)
    return measurements, stats, session.fresh_rows(funnel.memo, study.resolver)


def _make_reporter(
    progress: Optional[ProgressSink], total: int
) -> Optional[ProgressReporter]:
    if progress is None:
        return None
    if isinstance(progress, ProgressReporter):
        return progress
    return ProgressReporter(total=total, callback=progress)


@dataclass(frozen=True)
class CacheConfig:
    """Where a run persists its snapshot cache.

    ``directory`` holds one store file (``snapshot.json``).
    """

    directory: str

    def __post_init__(self):
        if not self.directory:
            raise ValueError("cache directory must be non-empty")


@dataclass(frozen=True)
class RunConfig:
    """Everything one :meth:`MeasurementStudy.run` needs, in one value.

    Built once (by the CLI or a test) and passed to ``run(config=...)``
    — the only run entry point since the per-call keyword shim was
    removed.  Frozen so a config can be shared
    between runs, shards, and worker processes without aliasing
    surprises; the progress sink is the one non-picklable field and
    is stripped before a config crosses a process boundary.
    """

    workers: int = 1
    mode: str = "auto"
    shard_size: Optional[int] = None
    # Attempts per funnel stage before a name form degrades (fault
    # runs only: without a plan nothing fails, so nothing retries).
    max_attempts: int = 3
    faults: Optional[FaultPlan] = None
    progress: Optional[ProgressSink] = None
    cache: Optional[CacheConfig] = None
    # Per-job deadline for the long-lived ``workers`` backend; a job
    # still unanswered after this many wall seconds is re-dispatched
    # to another worker (the straggler's late answer becomes a
    # deterministic duplicate).  None picks the scheduler default.
    job_deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.mode not in RUN_MODES:
            raise ValueError(f"mode must be one of {RUN_MODES}, got {self.mode!r}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.job_deadline_s is not None and self.job_deadline_s <= 0:
            raise ValueError("job_deadline_s must be > 0")

    @property
    def resilient(self) -> bool:
        """Fault injection (and with it the retry loop) is active."""
        return self.faults is not None

    def without_progress(self) -> "RunConfig":
        """A picklable copy for shipping to worker processes."""
        if self.progress is None:
            return self
        return replace(self, progress=None)


class MeasurementStudy:
    """Configured instance of the four-step methodology."""

    def __init__(
        self,
        ranking: AlexaRanking,
        resolver: PublicResolver,
        table_dump: TableDump,
        payloads: ValidatedPayloads,
    ):
        self._ranking = ranking
        self._resolver = resolver
        self._dump = table_dump
        self._payloads = payloads

    @classmethod
    def from_ecosystem(cls, world, resolver_index: int = 0) -> "MeasurementStudy":
        """Convenience constructor over a built :class:`WebEcosystem`."""
        return cls(
            ranking=world.ranking,
            resolver=world.resolvers()[resolver_index],
            table_dump=world.table_dump,
            payloads=world.payloads(),
        )

    # The sharded executor (repro.exec) reads the study's parts to
    # plan shards and ship them to workers.
    @property
    def ranking(self) -> AlexaRanking:
        return self._ranking

    @property
    def resolver(self) -> PublicResolver:
        return self._resolver

    @property
    def table_dump(self) -> TableDump:
        return self._dump

    @property
    def payloads(self) -> ValidatedPayloads:
        return self._payloads

    def replace_payloads(self, payloads: ValidatedPayloads) -> None:
        """Swap in a new validated VRP set (the world moved).

        The next :meth:`run` validates against the new payloads; on a
        cache-backed run the VRP digest changes with them, so the
        session invalidates exactly the artifacts whose prefix/origin
        pairs are covered by the symmetric difference.
        """
        self._payloads = payloads

    def run(self, config: Optional[RunConfig] = None) -> StudyResult:
        """Execute steps 2-4 for every domain of the ranking.

        All run-shaping knobs live on the :class:`RunConfig` — the
        single entry point since the per-call keyword shim was
        removed: ``workers`` > 1 shards the ranking into contiguous
        rank chunks and fans them out through :mod:`repro.exec`,
        ``mode`` picks the execution backend, ``faults``/``max_attempts``
        make the :class:`Funnel` inject faults and retry (degrading a
        form rather than failing the study), and ``progress`` receives
        rate/ETA events.  The result is bit-identical across backends
        for any fixed config.
        """
        if config is None:
            config = RunConfig()
        elif not isinstance(config, RunConfig):
            raise TypeError(
                "MeasurementStudy.run() takes a RunConfig; the legacy "
                "per-call keywords (and positional progress sinks) "
                "were removed — build a RunConfig and pass "
                "run(config=RunConfig(...))"
            )
        if (
            config.workers > 1
            or config.mode not in ("auto", "serial")
            or config.cache is not None
        ):
            # Cache-backed runs also route through the executor: it
            # owns the session open/adopt/save lifecycle, and a
            # one-shard serial run through it is the serial loop.
            from repro.exec import execute_study

            return execute_study(self, config=config)
        reporter = _make_reporter(config.progress, total=len(self._ranking))
        with tracer().span("study.run", domains=len(self._ranking)):
            with tracer().span("stage.rank", domains=len(self._ranking)):
                domains = list(self._ranking)
            measurements, stats, _ = run_funnel(
                self,
                domains,
                config,
                on_domain=reporter.tick if reporter is not None else None,
            )
            stats.to_metrics(metrics(), resilient=config.resilient)
        if reporter is not None:
            reporter.done()
        return StudyResult(measurements, stats)

    def measure_domain(self, domain: Domain) -> DomainMeasurement:
        """Steps 2-4 for one domain (both name forms)."""
        funnel = Funnel(self)
        measurement = funnel.measure_domain(domain)
        funnel.finish()
        return measurement
