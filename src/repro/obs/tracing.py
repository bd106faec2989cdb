"""Lightweight span/trace primitives for the measurement pipeline.

A *span* is one timed unit of work (``dns.resolve`` for one name,
``study.run`` for the whole funnel).  Spans nest: entering a span
inside another records the parent/child relationship, so a trace dump
reconstructs the funnel's call tree.  Durations come from the
monotonic clock (:func:`time.perf_counter`), never wall time.

Usage::

    tracer = TraceCollector()
    with tracer.span("stage.dns", domain="example.org"):
        ...

The collector folds every span into its per-name :class:`SpanStats`
as the span closes, so :meth:`TraceCollector.aggregate` (and the CLI's
closing timing table) counts every span of a run at any scale.  It
keeps :class:`Span` *records* — for ``--trace-out`` and for callers
that walk the tree — only for the first ``max_per_name`` spans of each
name: the few structural spans (``study.run``, ``shard.run``, the
build stages) are always kept, while per-item ``stage.*`` records stop
growing with the ranking.

:class:`NullTracer` is the zero-cost default: its ``span()`` returns
a shared no-op context manager, so disabled tracing costs one method
call and no allocation beyond the kwargs dict.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional

# Span records kept per name; the aggregate counts past it.
DEFAULT_MAX_PER_NAME = 1024


@dataclass
class Span:
    """One finished (or in-flight) timed operation."""

    name: str
    span_id: int
    parent_id: Optional[int]
    attributes: Dict[str, object] = field(default_factory=dict)
    start: float = 0.0
    end: Optional[float] = None
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        """Seconds elapsed; 0.0 while the span is still open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": self.attributes,
            "start": self.start,
            "duration": self.duration,
            "error": self.error,
        }


@dataclass
class SpanStats:
    """Aggregate timing for one span name."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    errors: int = 0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, span: Span) -> None:
        self.count += 1
        duration = span.duration
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration
        if span.error is not None:
            self.errors += 1

    def merge(self, other: "SpanStats") -> None:
        """Fold another collector's aggregate for this name into this one."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.errors += other.errors


class _ActiveSpan:
    """Context manager binding one span to a collector's stack."""

    __slots__ = ("_collector", "_span")

    def __init__(self, collector: "TraceCollector", span: Span):
        self._collector = collector
        self._span = span

    def __enter__(self) -> Span:
        self._collector._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._span.error = f"{exc_type.__name__}: {exc}"
        self._collector._pop(self._span)
        return False  # never swallow


class TraceCollector:
    """In-memory trace sink: an exact per-name aggregate plus bounded records.

    Every span that closes (or is absorbed) is counted in its name's
    :class:`SpanStats`; its :class:`Span` record is kept only while
    fewer than ``max_per_name`` records of that name are held.
    ``len()`` is the records kept, :attr:`seen` the spans counted and
    :attr:`dropped` the records not kept (their spans are still in the
    aggregate).
    """

    enabled = True

    def __init__(self, max_per_name: int = DEFAULT_MAX_PER_NAME):
        self._max_per_name = max_per_name
        self._spans: List[Span] = []
        self._kept: Dict[str, int] = {}
        self._stats: Dict[str, SpanStats] = {}
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    def span(self, name: str, /, **attributes: object) -> _ActiveSpan:
        """Start a child span of whatever span is currently open."""
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent,
            attributes=attributes,
        )
        return _ActiveSpan(self, record)

    # -- stack plumbing (called by _ActiveSpan) ----------------------------

    def _push(self, span: Span) -> None:
        span.start = time.perf_counter()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Pop back to (and including) this span even if inner spans
        # leaked — an exception may have unwound past them.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._entry(span.name).add(span)
        self._keep(span)

    def _entry(self, name: str) -> SpanStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SpanStats(name=name)
        return stats

    def _keep(self, span: Span) -> bool:
        kept = self._kept.get(span.name, 0)
        if kept >= self._max_per_name:
            return False
        self._kept[span.name] = kept + 1
        self._spans.append(span)
        return True

    # -- merging -----------------------------------------------------------

    def absorb(
        self,
        spans: "Iterable[Span]",
        parent_id: Optional[int] = None,
        stats: Optional[Mapping[str, SpanStats]] = None,
    ) -> int:
        """Graft foreign spans (e.g. a shard worker's) into this trace.

        Every span is re-identified from this collector's id sequence
        so ids never collide; parent/child links *within* the batch
        are preserved, and spans whose parent is not part of the batch
        are re-rooted under ``parent_id`` (usually the merging run's
        own span).  ``stats`` is the source collector's aggregate,
        which already counts ``spans`` and every record it did not
        keep: it is merged and the grafted records are not counted
        again.  Without it the records are all there is, and each is
        counted.  Records are kept under this collector's per-name
        bound.  Returns the number of records kept.
        """
        if stats is not None:
            for name, entry in stats.items():
                self._entry(name).merge(entry)
        # Spans arrive in completion order (children before their
        # parents), so assign every new id first, then link.
        batch = list(spans)
        id_map: Dict[int, int] = {
            span.span_id: next(self._ids) for span in batch
        }
        kept = 0
        for span in batch:
            grafted = Span(
                name=span.name,
                span_id=id_map[span.span_id],
                parent_id=(
                    id_map.get(span.parent_id, parent_id)
                    if span.parent_id is not None
                    else parent_id
                ),
                attributes=dict(span.attributes),
                start=span.start,
                end=span.end,
                error=span.error,
            )
            if stats is None:
                self._entry(grafted.name).add(grafted)
            kept += self._keep(grafted)
        return kept

    # -- access ------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Kept span records (optionally filtered by name), oldest first."""
        if name is None:
            return list(self._spans)
        return [span for span in self._spans if span.name == name]

    def names(self) -> List[str]:
        return sorted(self._stats)

    def aggregate(self) -> Dict[str, SpanStats]:
        """Per-name count/total/min/max/mean over every span, by name."""
        return {
            name: replace(self._stats[name])
            for name in sorted(self._stats)
        }

    @property
    def seen(self) -> int:
        """Spans counted in the aggregate, kept as records or not."""
        return sum(stats.count for stats in self._stats.values())

    @property
    def dropped(self) -> int:
        """Span records not kept; the aggregate still counts their spans."""
        return self.seen - len(self._spans)

    def to_json(self) -> Dict[str, object]:
        return {
            "spans": [span.to_dict() for span in self._spans],
            "dropped": self.dropped,
            "aggregate": {
                name: {
                    "count": entry.count,
                    "total": entry.total,
                    "min": entry.min,
                    "max": entry.max,
                    "errors": entry.errors,
                }
                for name, entry in self.aggregate().items()
            },
        }

    def dump(self, path) -> int:
        """Write the trace as JSON; returns the span records written."""
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=1)
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self._kept.clear()
        self._stats.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return f"<TraceCollector {len(self._spans)} of {self.seen} spans kept>"


class _NullSpan:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-cost tracer: ``span()`` is a constant-return method."""

    enabled = False
    seen = 0
    dropped = 0

    def span(self, name: str, /, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def absorb(self, spans, parent_id=None, stats=None) -> int:
        return 0

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def names(self) -> List[str]:
        return []

    def aggregate(self) -> Dict[str, SpanStats]:
        return {}

    def to_json(self) -> Dict[str, object]:
        return {"spans": [], "dropped": 0, "aggregate": {}}

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
