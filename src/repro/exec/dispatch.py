"""Ordered dispatch: how batches reach compute, how their telemetry comes home.

Every parallel path in the repo — study shards, serve queries, RTR
router pumps, ROV rounds, what-if futures — makes the same promise:
*bit-identical to serial, counters included*.  This module is the one
place that promise is implemented:

* :func:`resolve_mode` is the single place ``auto`` becomes a backend;
* :func:`map_ordered` runs ``fn`` over contiguous batches
  (:func:`repro.exec.sharding.plan_batches`) inline, on a thread pool,
  or on a process pool — the only place ``src/`` constructs either —
  and returns the results **in batch order** whatever order they
  completed in; a pool that breaks (a child died) raises the typed
  :class:`SchedulerError`;
* :func:`record` runs one batch under fresh thread-local instruments
  (:class:`repro.obs.runtime.thread_scope`), so concurrent batches
  never interleave into one registry or collector;
* :func:`merge_recorded` folds the recorded registries and spans into
  the caller's live instruments parent-side, in the order given —
  counters are integer sums and spans are re-identified by
  :meth:`~repro.obs.tracing.TraceCollector.absorb`, so the merged
  telemetry equals the serial run's;
* :func:`run_batches` composes the three for callers whose ``fn``
  records into whatever instruments are active.

The study executor uses the halves separately: its shard runner
captures itself (a :class:`~repro.exec.executor.ShardOutcome` carries
the same ``metrics`` / ``spans`` / ``span_stats`` trio as
:class:`Recorded`, because it also has to cross the process pool and
the ``workers`` job protocol in wire form), so
:func:`~repro.exec.executor.execute_study` dispatches the serial,
thread and process backends through :func:`map_ordered` and merges the
outcomes of any backend through :func:`merge_recorded`.
"""

from __future__ import annotations

import concurrent.futures
import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.core.pipeline import RUN_MODES
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import (
    metrics,
    observability_enabled,
    thread_scope,
    tracer,
)
from repro.obs.tracing import Span, SpanStats, TraceCollector

B = TypeVar("B")
R = TypeVar("R")

_POOLS = {
    "thread": concurrent.futures.ThreadPoolExecutor,
    "process": concurrent.futures.ProcessPoolExecutor,
}


class SchedulerError(ReproError):
    """Dispatch could not bring every batch's result home exactly once."""


def resolve_mode(mode: str, workers: int, parallel: str = "thread") -> str:
    """The backend ``mode`` names: ``auto`` picks by worker count.

    ``parallel`` is the backend ``auto`` means when ``workers > 1``
    (``process`` for the CPU-bound study and ROV paths, ``thread`` for
    the serve path, ``serial`` for rtrd's pumps); explicit modes pass
    through.
    """
    if mode not in RUN_MODES:
        raise ValueError(f"mode must be one of {RUN_MODES}, got {mode!r}")
    if mode == "auto":
        return parallel if workers > 1 else "serial"
    return mode


@dataclass
class Recorded:
    """One batch's result plus the telemetry it recorded.

    ``spans`` are the batch collector's kept records and
    ``span_stats`` its exact per-name aggregate, which counts those
    records and every one it did not keep (``None``: the records are
    all there is).
    """

    result: object
    metrics: Optional[MetricsRegistry] = None
    spans: List[Span] = field(default_factory=list)
    span_stats: Optional[Dict[str, SpanStats]] = None


def record(fn: Callable[[B], R], batch: B, observe: bool) -> Recorded:
    """Run ``fn(batch)`` under instruments of its own.

    With ``observe`` unset the batch runs under the null instruments
    regardless of the caller's, so a worker never leaks a tick into a
    registry it does not own.
    """
    registry = MetricsRegistry() if observe else None
    collector = TraceCollector() if observe else None
    with thread_scope(registry, collector):
        result = fn(batch)
    return Recorded(
        result=result,
        metrics=registry,
        spans=collector.spans() if collector is not None else [],
        span_stats=collector.aggregate() if collector is not None else None,
    )


def merge_recorded(records: Iterable, root: Optional[Span] = None) -> None:
    """Fold recorded telemetry into the caller's live instruments.

    ``records`` is anything carrying ``metrics`` / ``spans`` /
    ``span_stats``, already in merge order; spans are grafted under
    ``root`` (the caller's open span, ``None`` for top level) and each
    aggregate is merged once.
    """
    registry = metrics()
    trace = tracer()
    parent_id = root.span_id if root is not None else None
    for recorded in records:
        if recorded.metrics is not None and registry.enabled:
            registry.merge(recorded.metrics)
        trace.absorb(
            recorded.spans,
            parent_id=parent_id,
            stats=recorded.span_stats,
        )


def _inline(mode: str, workers: int, batches: Sequence) -> bool:
    return mode == "serial" or workers <= 1 or len(batches) <= 1


def map_ordered(
    fn: Callable[[B], R],
    batches: Sequence[B],
    *,
    workers: int,
    mode: str,
    on_done: Optional[Callable[[B], None]] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
    receive: Optional[Callable[[B, R], object]] = None,
) -> List:
    """``[fn(batch) for batch in batches]``, possibly on a pool.

    ``mode`` is a resolved backend (``serial`` / ``thread`` /
    ``process``); serial, one worker, or a single batch run inline on
    the calling thread.  ``on_done(batch)`` fires parent-side as each
    batch completes — in completion order, which only progress
    reporting may depend on.  The first exception a batch raises
    propagates.  On the process backend ``fn``, the batches, and the
    results cross the pickle boundary.

    ``initializer(*initargs)`` is the pool's: it runs once in every
    pool worker before its first batch, so state too large to pickle
    per batch ships once per worker; an inline run builds no pool and
    does not call it.  ``receive(batch, result)`` runs parent-side as
    each batch completes and what it returns takes the result's place,
    so a wire-form result is decoded while other batches still
    compute.  A pooled batch's future, and with it the raw result,
    is dropped as soon as ``receive`` returns, so the parent never
    holds a batch's wire beside its decoded copy.

    A pool whose worker died (``os._exit``, a signal, the OOM killer)
    raises :class:`SchedulerError` naming a batch it lost; no result
    is returned, so callers merge nothing.
    """
    if mode != "serial" and mode not in _POOLS:
        raise ValueError(
            f"mode must be serial or one of {tuple(_POOLS)}, got {mode!r}"
        )

    def finish(position: int, result: R):
        batch = batches[position]
        if receive is not None:
            result = receive(batch, result)
        if on_done is not None:
            on_done(batch)
        return result

    if _inline(mode, workers, batches):
        return [
            finish(position, fn(batch))
            for position, batch in enumerate(batches)
        ]
    slots: List = [None] * len(batches)
    futures: Dict[concurrent.futures.Future, int] = {}
    try:
        with _POOLS[mode](
            max_workers=workers, initializer=initializer, initargs=initargs
        ) as pool:
            for position, batch in enumerate(batches):
                futures[pool.submit(fn, batch)] = position
            for future in concurrent.futures.as_completed(futures):
                result = future.result()
                position = futures.pop(future)
                del future
                slots[position] = finish(position, result)
                # Hold no raw result while the next batch computes.
                del result
    except concurrent.futures.BrokenExecutor as error:
        lost = min(futures.values(), default=0)
        raise SchedulerError(
            f"{mode} pool broke with batch {lost} of {len(batches)} "
            f"outstanding (a worker died); no result was merged: {error}"
        ) from error
    return slots


def run_batches(
    fn: Callable[[B], R],
    batches: Sequence[B],
    *,
    workers: int,
    mode: str,
    root: Optional[Span] = None,
    on_done: Optional[Callable[[B], None]] = None,
) -> List[R]:
    """:func:`map_ordered` with the telemetry brought home.

    Inline runs record straight into the caller's live instruments.
    Pooled runs give every batch fresh instruments when observability
    is enabled and merge them under ``root`` in batch order once every
    batch has finished, so a raising batch merges nothing.
    """
    if _inline(mode, workers, batches) or not observability_enabled():
        return map_ordered(
            fn, batches, workers=workers, mode=mode, on_done=on_done
        )
    records = map_ordered(
        functools.partial(record, fn, observe=True),
        batches,
        workers=workers,
        mode=mode,
        on_done=on_done,
    )
    merge_recorded(records, root)
    return [recorded.result for recorded in records]
