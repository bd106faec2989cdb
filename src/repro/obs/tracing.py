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

The collector keeps finished spans in memory (bounded; overflow is
counted, not silently dropped) and can dump JSON or aggregate
per-name statistics for the CLI's closing timing table.

:class:`NullTracer` is the zero-cost default: its ``span()`` returns
a shared no-op context manager, so disabled tracing costs one method
call and no allocation beyond the kwargs dict.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

DEFAULT_MAX_SPANS = 250_000


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
        self.min = min(self.min, duration)
        self.max = max(self.max, duration)
        if span.error is not None:
            self.errors += 1


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
    """In-memory trace sink with bounded retention and aggregation."""

    enabled = True

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        self._max_spans = max_spans
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self.dropped = 0

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
        if len(self._spans) < self._max_spans:
            self._spans.append(span)
        else:
            self.dropped += 1

    # -- merging -----------------------------------------------------------

    def absorb(
        self,
        spans: "Iterable[Span]",
        parent_id: Optional[int] = None,
        dropped: int = 0,
    ) -> int:
        """Graft foreign spans (e.g. a shard worker's) into this trace.

        Every span is re-identified from this collector's id sequence
        so ids never collide; parent/child links *within* the batch
        are preserved, and spans whose parent is not part of the batch
        are re-rooted under ``parent_id`` (usually the merging run's
        own span).  ``dropped`` carries the source collector's
        overflow count forward.  Returns the number of spans kept.
        """
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
            if len(self._spans) < self._max_spans:
                self._spans.append(grafted)
                kept += 1
            else:
                self.dropped += 1
        self.dropped += dropped
        return kept

    # -- access ------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans (optionally filtered by name), oldest first."""
        if name is None:
            return list(self._spans)
        return [span for span in self._spans if span.name == name]

    def names(self) -> List[str]:
        return sorted({span.name for span in self._spans})

    def aggregate(self) -> Dict[str, SpanStats]:
        """Per-name count/total/min/max/mean, keyed by span name."""
        stats: Dict[str, SpanStats] = {}
        for span in self._spans:
            entry = stats.get(span.name)
            if entry is None:
                entry = stats[span.name] = SpanStats(name=span.name)
            entry.add(span)
        return dict(sorted(stats.items()))

    def to_json(self) -> Dict[str, object]:
        return {
            "spans": [span.to_dict() for span in self._spans],
            "dropped": self.dropped,
        }

    def dump(self, path) -> int:
        """Write the trace as JSON; returns the span count written."""
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=1)
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return f"<TraceCollector {len(self._spans)} spans, {self.dropped} dropped>"


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
    dropped = 0

    def span(self, name: str, /, **attributes: object) -> _NullSpan:
        return _NULL_SPAN

    def absorb(self, spans, parent_id=None, dropped: int = 0) -> int:
        return 0

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def names(self) -> List[str]:
        return []

    def aggregate(self) -> Dict[str, SpanStats]:
        return {}

    def to_json(self) -> Dict[str, object]:
        return {"spans": [], "dropped": 0}

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
