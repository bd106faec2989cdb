"""Parallel execution of the four-step study over rank shards.

:func:`execute_study` splits the ranking into contiguous shards,
runs steps 2-4 for every shard on a worker pool, and merges the
per-shard outcomes back into one :class:`StudyResult` that is
bit-identical to the serial run:

* **measurement order** — shards are contiguous rank chunks and the
  merge concatenates them in shard order, so the measurement list is
  the serial walk;
* **statistics** — every :class:`StudyStatistics` field is an
  integer sum over domains, so summing per-shard statistics in any
  order reproduces the serial accumulation exactly;
* **metrics** — each shard worker records its stage counters into
  its own scoped registry (:class:`repro.obs.runtime.thread_scope`)
  and the per-shard registries are merged into the caller's active
  registry; shards write no funnel family.  After the merge the
  merged statistics write the funnel families once, into that
  registry (:meth:`StudyStatistics.to_metrics`), so
  ``pipeline_statistics(result, registry)`` cross-checks cleanly;
* **trace spans** — per-shard collectors' kept records are grafted
  under the run's root span and their exact per-name aggregates
  merged, via :meth:`TraceCollector.absorb`.

Four backends share one shard-runner code path.  Three are dispatched
through :func:`repro.exec.dispatch.map_ordered`:

* ``process`` — a process pool, true parallelism; the study
  (resolver, table dump, payloads) is shipped to each worker once
  via the pool initializer and shard results come back in codec wire
  form, decoded *and released* parent-side as they arrive: every
  shard decodes through one intern table per run, so the parent holds
  one value per distinct address and pair row, and no shard's wire
  outlives its decoding,
* ``thread`` — a thread pool; no pickling, workers share the study
  object.  The GIL serialises the pure-Python funnel, so this backend
  exists for determinism tests and for a future IO-bound (live DNS)
  resolver,
* ``serial`` — the shard pipeline on the calling thread, for
  debugging the sharded path itself;

and the fourth through :class:`repro.exec.scheduler.WorkerScheduler`:

* ``workers`` — N long-lived forked worker processes speaking the
  length-prefixed JSON job protocol (:mod:`repro.exec.jobs`) with
  work-stealing, per-job deadlines, and straggler re-dispatch.

``auto`` resolves to ``process`` when ``workers > 1``
(:func:`repro.exec.dispatch.resolve_mode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

from repro.core.pipeline import (
    _make_reporter,
    RUN_MODES,
    MeasurementStudy,
    RunConfig,
    StudyResult,
    StudyStatistics,
    run_funnel,
)
from repro.core.records import DomainMeasurement
from repro.exec.codec import (
    decode_measurements,
    decode_statistics,
    encode_measurements,
    encode_statistics,
)
from repro.exec.dispatch import (
    map_ordered,
    merge_recorded,
    record,
    resolve_mode,
)
from repro.exec.sharding import Shard, plan_shards
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import metrics, observability_enabled, tracer
from repro.obs.tracing import Span, SpanStats

MODES = RUN_MODES


@dataclass
class ShardOutcome:
    """Everything one shard run produced, ready to merge."""

    index: int
    measurements: List[DomainMeasurement]
    statistics: StudyStatistics
    metrics: Optional[MetricsRegistry] = None
    spans: List[Span] = field(default_factory=list)
    span_stats: Optional[Dict[str, SpanStats]] = None
    # Fresh snapshot-cache artifacts (stage -> key -> entry) on
    # cache-backed runs; adopted by the parent's session in shard order.
    cache_entries: Optional[dict] = None


def merge_statistics(parts) -> StudyStatistics:
    """Sum per-shard statistics; every field is additive over domains.

    Driven by the dataclass's own field list, so a counter added to
    :class:`StudyStatistics` merges without being named here: ints
    add, dict fields add per key (keys visited in sorted order).
    """
    total = StudyStatistics()
    for part in parts:
        for spec in fields(StudyStatistics):
            merged = getattr(total, spec.name)
            value = getattr(part, spec.name)
            if isinstance(merged, dict):
                for key, count in sorted(value.items()):
                    merged[key] = merged.get(key, 0) + count
            else:
                setattr(total, spec.name, merged + value)
    return total


def run_shard(
    study: MeasurementStudy,
    shard: Shard,
    observe: bool,
    config: Optional[RunConfig] = None,
    session=None,
) -> ShardOutcome:
    """Steps 2-4 for one shard, recorded into shard-local sinks.

    When ``observe`` is set the shard gets a fresh registry and trace
    collector installed thread-locally
    (:func:`repro.exec.dispatch.record`), so concurrent shards never
    interleave into one instrument and the outcomes merge
    deterministically in shard order.

    The funnel is :func:`repro.core.pipeline.run_funnel` — the loop
    the plain serial run walks — so fault decisions (pure functions of
    the plan) and cache hits reproduce the serial run's outcomes
    exactly; fresh cache artifacts come back as ``cache_entries``.
    """

    def measure(shard: Shard):
        with tracer().span(
            "shard.run", shard=shard.index, domains=len(shard)
        ):
            return run_funnel(study, shard.domains, config, session)

    recorded = record(measure, shard, observe)
    measurements, stats, cache_entries = recorded.result
    return ShardOutcome(
        index=shard.index,
        measurements=measurements,
        statistics=stats,
        metrics=recorded.metrics,
        spans=recorded.spans,
        span_stats=recorded.span_stats,
        cache_entries=cache_entries,
    )


# -- process-pool plumbing ----------------------------------------------------

# One study per worker process, installed by the pool initializer so
# the (large) resolver/table-dump/payload state is pickled once per
# worker instead of once per shard.  The config crosses the boundary
# progress-stripped (the sink is the one non-picklable field; ticks
# happen parent-side anyway).
_WORKER_STUDY: Optional[MeasurementStudy] = None
_WORKER_OBSERVE: bool = False
_WORKER_CONFIG: Optional[RunConfig] = None
_WORKER_SESSION = None


def _init_process_worker(
    study: MeasurementStudy,
    observe: bool,
    config: Optional[RunConfig] = None,
    session=None,
) -> None:
    global _WORKER_STUDY, _WORKER_OBSERVE, _WORKER_CONFIG, _WORKER_SESSION
    _WORKER_STUDY = study
    _WORKER_OBSERVE = observe
    _WORKER_CONFIG = config
    _WORKER_SESSION = session


def _process_shard(shard: Shard):
    """Run one shard and return it in wire form.

    Measurements and statistics go back to the parent through the
    codec (:mod:`repro.exec.codec`) instead of as pickled record
    objects — the parent deserialises results on one thread, and the
    compact form, one row per distinct value, shrinks that bottleneck.
    Domains are re-attached parent-side from the shard plan.
    """
    assert _WORKER_STUDY is not None, "worker initializer did not run"
    outcome = run_shard(
        _WORKER_STUDY, shard, _WORKER_OBSERVE, _WORKER_CONFIG, _WORKER_SESSION
    )
    return (
        encode_measurements(outcome.measurements),
        encode_statistics(outcome.statistics),
        outcome.metrics,
        outcome.spans,
        outcome.span_stats,
        outcome.cache_entries,
    )


def _decode_shard(shard: Shard, wire, table: dict) -> ShardOutcome:
    """Parent side of :func:`_process_shard`; ``table`` is the run's
    intern table, so equal rows of any shard decode to one value."""
    encoded, stats, registry, spans, span_stats, cache_entries = wire
    return ShardOutcome(
        index=shard.index,
        measurements=decode_measurements(encoded, shard.domains, table),
        statistics=decode_statistics(stats),
        metrics=registry,
        spans=spans,
        span_stats=span_stats,
        cache_entries=cache_entries,
    )


# -- the engine ---------------------------------------------------------------


def execute_study(study: MeasurementStudy, config: RunConfig) -> StudyResult:
    """Run the study sharded; the result equals the serial run's.

    ``config`` bundles every knob (and is what
    :meth:`MeasurementStudy.run` passes).  The progress sink receives
    batched ticks — one ``tick(len(shard))`` per completed shard, in
    completion order.  On the process pool each shard's wire result is
    decoded and released as it arrives, through one intern table for
    the whole run, so the parent holds a single copy of the result.
    """
    workers = config.workers
    resolved = resolve_mode(config.mode, workers, parallel="process")

    session = None
    if config.cache is not None:
        from repro.cache.session import CacheSession

        session = CacheSession.open(config.cache.directory, study, config)

    observe = observability_enabled()
    trace = tracer()

    reporter = _make_reporter(config.progress, total=len(study.ranking))
    ticker: Callable[[Shard], None] = (
        (lambda shard: reporter.tick(len(shard)))
        if reporter is not None
        else (lambda shard: None)
    )

    with trace.span(
        "study.run",
        domains=len(study.ranking),
        workers=workers,
        mode=resolved,
    ) as root:
        with trace.span("stage.rank", domains=len(study.ranking)):
            domains = list(study.ranking)
        shards = plan_shards(
            domains, shard_size=config.shard_size, workers=workers
        )
        scheduler_report = None
        if resolved == "workers":
            from repro.exec.scheduler import WorkerScheduler

            outcomes, scheduler_report = WorkerScheduler(config).run(
                study, shards, observe, ticker, session
            )
        elif resolved == "process" and workers > 1 and len(shards) > 1:
            # A pool is built: ship the study once per child and bring
            # the shards home in wire form.
            table: dict = {}
            outcomes = map_ordered(
                _process_shard,
                shards,
                workers=workers,
                mode=resolved,
                on_done=ticker,
                initializer=_init_process_worker,
                initargs=(
                    study, observe, config.without_progress(), session
                ),
                receive=lambda shard, wire: _decode_shard(
                    shard, wire, table
                ),
            )
        else:
            outcomes = map_ordered(
                lambda shard: run_shard(
                    study, shard, observe, config, session
                ),
                shards,
                workers=workers,
                mode=resolved,
                on_done=ticker,
            )
        measurements = [
            measurement
            for outcome in outcomes
            for measurement in outcome.measurements
        ]
        stats = merge_statistics(outcome.statistics for outcome in outcomes)
        if session is not None:
            stats.cache_invalidated_by_stage = session.invalidated
            for outcome in outcomes:
                if outcome.cache_entries is not None:
                    session.adopt(outcome.cache_entries)
            session.save()
        merge_recorded(outcomes, root)
        stats.to_metrics(
            metrics(), resilient=config.resilient, cached=session is not None
        )
    if reporter is not None:
        reporter.done()
    result = StudyResult(measurements, stats)
    result.scheduler_report = scheduler_report
    return result
