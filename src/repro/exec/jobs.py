"""Job protocol: framed JobSpec/JobResult envelopes over byte streams.

The sharded executor's wire codec (:mod:`repro.exec.codec`) already
makes shard results primitives-only; this module promotes it to a
full job protocol so shards cross a socket pair to a forked worker
as framed bytes, not through a pickle channel inside one process
pool.

Framing is 4-byte big-endian length + UTF-8 JSON.  The decoder is
incremental (feed it whatever ``recv`` returned, get back every
complete frame plus the unconsumed remainder) and hostile-input
hardened in the same way :mod:`repro.rtr.codec` is: an oversize
length prefix, a zero-length frame, or garbage that is not JSON all
raise :class:`JobProtocolError` — a typed error the scheduler maps
to *quarantine the worker*, never to a corrupted merge.

Two envelopes cross the stream:

* :class:`JobSpec` — parent → worker: which contiguous slice of the
  ranking to run (``start``/``count``; the domains themselves never
  travel — the worker holds the same study and slices it), the
  dispatch attempt, the frozen :class:`~repro.core.pipeline.RunConfig`
  in primitive form, and the study's input digests (zone / dump /
  VRPs / config — the snapshot cache's fingerprints) so a worker
  holding a *different* world refuses the job instead of silently
  computing the wrong answer;
* :class:`JobResult` — worker → parent: the shard outcome in wire
  form (encoded measurements + statistics via :mod:`repro.exec.codec`,
  the metric delta via :func:`repro.obs.metrics.registry_to_wire`,
  kept trace spans and the exact per-name span aggregate, fresh cache
  entries), tagged with the job id, shard index, attempt, and worker
  id so the scheduler can resolve duplicate completions
  deterministically by shard index.

Everything here is JSON-safe by construction: tuples become lists on
the wire, and every decoder on the return path (``decode_measurements``,
``decode_statistics``, ``registry_from_wire``, ``CacheSession.adopt``)
already accepts list-shaped input, so a JSON round-trip is exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import RunConfig
from repro.errors import ReproError
from repro.exec.codec import (
    decode_measurements,
    decode_statistics,
    encode_measurements,
    encode_statistics,
)
from repro.exec.sharding import Shard
from repro.faults.plan import FaultPlan
from repro.net import exact_ints
from repro.obs.metrics import registry_from_wire, registry_to_wire
from repro.obs.tracing import Span, SpanStats

# Length prefix: 4-byte unsigned big-endian, like the RTR framing.
_PREFIX = struct.Struct(">I")
PREFIX_SIZE = _PREFIX.size

# A 5k-domain shard's encoded measurements run a few MB of JSON;
# 256 MiB leaves two orders of magnitude of headroom while still
# rejecting a garbage prefix (which reads as ~4 GiB) instantly.
MAX_FRAME_SIZE = 1 << 28

# Default per-job deadline for the workers backend; generous enough
# that only a genuinely wedged worker trips it on synthetic worlds.
# Both the scheduler (expiry) and the stall injector (how long to
# oversleep) key off this, so it lives at the protocol layer.
DEFAULT_JOB_DEADLINE_S = 30.0


class JobProtocolError(ReproError):
    """A frame violated the job protocol (oversize, truncated, not JSON)."""


def encode_frame(payload: dict) -> bytes:
    """One length-prefixed JSON frame for ``payload``."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_SIZE:
        raise JobProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_SIZE "
            f"({MAX_FRAME_SIZE})"
        )
    return _PREFIX.pack(len(body)) + body


def decode_frames(buffer: bytes) -> Tuple[List[dict], bytes]:
    """Every complete frame in ``buffer`` plus the unconsumed tail.

    Incremental: call with whatever bytes have arrived so far; a
    partial frame (short prefix or short body) is left in the
    remainder for the next call.  Raises :class:`JobProtocolError`
    on a frame that can never become valid — an oversize or
    zero-length prefix, a body that is not UTF-8 JSON, or a JSON
    payload that is not an object.
    """
    frames: List[dict] = []
    offset = 0
    view = memoryview(buffer)
    while len(view) - offset >= PREFIX_SIZE:
        (length,) = _PREFIX.unpack_from(view, offset)
        if length == 0:
            raise JobProtocolError("zero-length frame")
        if length > MAX_FRAME_SIZE:
            raise JobProtocolError(
                f"frame length {length} exceeds MAX_FRAME_SIZE "
                f"({MAX_FRAME_SIZE})"
            )
        if len(view) - offset - PREFIX_SIZE < length:
            break  # body still in flight
        body = bytes(view[offset + PREFIX_SIZE:offset + PREFIX_SIZE + length])
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise JobProtocolError(f"frame body is not JSON: {error}") from None
        if not isinstance(payload, dict):
            raise JobProtocolError(
                f"frame payload must be an object, got {type(payload).__name__}"
            )
        frames.append(payload)
        offset += PREFIX_SIZE + length
    return frames, bytes(view[offset:])


def read_frame(stream) -> Optional[dict]:
    """Blocking read of one frame from a file-like binary ``stream``.

    Returns ``None`` on clean EOF at a frame boundary; raises
    :class:`JobProtocolError` on EOF mid-frame or a malformed frame.
    Used by the forked worker; the scheduler side uses the
    incremental :func:`decode_frames` under a selector.
    """
    prefix = stream.read(PREFIX_SIZE)
    if not prefix:
        return None
    if len(prefix) < PREFIX_SIZE:
        raise JobProtocolError("EOF inside frame length prefix")
    (length,) = _PREFIX.unpack(prefix)
    if length == 0 or length > MAX_FRAME_SIZE:
        raise JobProtocolError(f"invalid frame length {length}")
    body = b""
    while len(body) < length:
        chunk = stream.read(length - len(body))
        if not chunk:
            raise JobProtocolError(
                f"EOF after {len(body)} of {length} frame bytes"
            )
        body += chunk
    frames, rest = decode_frames(prefix + body)
    assert not rest and len(frames) == 1
    return frames[0]


# -- RunConfig over the wire --------------------------------------------------


def encode_config(config: RunConfig) -> dict:
    """A :class:`RunConfig` as primitives (progress sink stripped)."""
    faults = config.faults
    return {
        "workers": config.workers,
        "mode": config.mode,
        "shard_size": config.shard_size,
        "job_deadline_s": config.job_deadline_s,
        "max_attempts": config.max_attempts,
        "faults": None if faults is None else {
            "seed": faults.seed,
            "rates": [[kind, rate] for kind, rate in faults.rates],
            "max_consecutive": faults.max_consecutive,
        },
    }


def decode_config(wire: dict) -> RunConfig:
    """Exact inverse of :func:`encode_config` (no progress, no cache)."""
    try:
        faults = wire["faults"]
        plan = None if faults is None else FaultPlan(
            seed=faults["seed"],
            rates=tuple((kind, rate) for kind, rate in faults["rates"]),
            max_consecutive=faults["max_consecutive"],
        )
        return RunConfig(
            workers=wire["workers"],
            mode=wire["mode"],
            shard_size=wire["shard_size"],
            job_deadline_s=wire.get("job_deadline_s"),
            max_attempts=wire["max_attempts"],
            faults=plan,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise JobProtocolError(f"malformed config: {error}") from None


# -- trace spans over the wire ------------------------------------------------


def encode_spans(spans) -> List[list]:
    """Spans as 7-field lists; attributes must already be JSON-safe."""
    return [
        [s.name, s.span_id, s.parent_id, s.attributes, s.start, s.end, s.error]
        for s in spans
    ]


def decode_spans(wire) -> List[Span]:
    """Exact inverse of :func:`encode_spans`."""
    try:
        return [
            Span(
                name=name,
                span_id=span_id,
                parent_id=parent_id,
                attributes=dict(attributes),
                start=start,
                end=end,
                error=error,
            )
            for name, span_id, parent_id, attributes, start, end, error in wire
        ]
    except (TypeError, ValueError) as error:
        raise JobProtocolError(f"malformed spans: {error}") from None


def encode_span_stats(stats) -> Optional[List[list]]:
    """A span aggregate as 6-field lists (``None`` stays ``None``)."""
    if stats is None:
        return None
    return [
        [s.name, s.count, s.total, s.min, s.max, s.errors]
        for s in stats.values()
    ]


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def decode_span_stats(wire) -> Optional[Dict[str, SpanStats]]:
    """Inverse of :func:`encode_span_stats`, checked row by row.

    A row must be a unique name with ``1 <= count``,
    ``0 <= errors <= count`` and finite seconds with
    ``0 <= min <= max <= total``; anything else raises
    :class:`JobProtocolError`.
    """
    if wire is None:
        return None
    stats: Dict[str, SpanStats] = {}
    try:
        for name, count, total, minimum, maximum, errors in wire:
            if not isinstance(name, str) or name in stats:
                raise ValueError(f"bad or repeated name {name!r}")
            counts = exact_ints((count, errors), ValueError)
            if not 0 <= errors <= count or count < 1:
                raise ValueError(f"{name}: bad counts {counts}")
            seconds = (minimum, maximum, total)
            if not all(map(_is_number, seconds)) or not (
                0 <= minimum <= maximum <= total
            ):
                raise ValueError(f"{name}: bad seconds {seconds}")
            stats[name] = SpanStats(
                name=name, count=count, total=total,
                min=minimum, max=maximum, errors=errors,
            )
    except (TypeError, ValueError) as error:
        raise JobProtocolError(f"malformed span aggregate: {error}") from None
    return stats


# -- the envelopes ------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """Parent → worker: run this contiguous slice of the ranking."""

    job_id: int
    shard_index: int
    start: int             # offset of the shard's first domain in the ranking
    count: int             # domains in the shard
    attempt: int = 0       # 0-based dispatch attempt (bumps on re-dispatch)
    observe: bool = False  # collect a metric delta + trace spans
    digests: Dict[str, str] = field(default_factory=dict)
    config: Optional[dict] = None  # encode_config() form

    def to_wire(self) -> dict:
        return {
            "type": "job",
            "job_id": self.job_id,
            "shard_index": self.shard_index,
            "start": self.start,
            "count": self.count,
            "attempt": self.attempt,
            "observe": self.observe,
            "digests": dict(self.digests),
            "config": self.config,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "JobSpec":
        if wire.get("type") != "job":
            raise JobProtocolError(
                f"expected a job frame, got {wire.get('type')!r}"
            )
        try:
            spec = cls(
                job_id=wire["job_id"],
                shard_index=wire["shard_index"],
                start=wire["start"],
                count=wire["count"],
                attempt=wire["attempt"],
                observe=bool(wire.get("observe", False)),
                digests=dict(wire["digests"]),
                config=wire.get("config"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise JobProtocolError(f"malformed job spec: {error}") from None
        if spec.start < 0 or spec.count < 1 or spec.attempt < 0:
            raise JobProtocolError(
                f"job spec out of range: start={spec.start} "
                f"count={spec.count} attempt={spec.attempt}"
            )
        return spec


@dataclass(frozen=True)
class JobResult:
    """Worker → parent: one shard outcome in wire form."""

    job_id: int
    shard_index: int
    attempt: int
    worker_id: int
    measurements: list         # encode_measurements() form
    statistics: list           # encode_statistics() form
    metrics: Optional[list]    # registry_to_wire() form
    spans: list                # encode_spans() form
    span_stats: Optional[list] = None  # encode_span_stats() form
    cache_entries: Optional[dict] = None

    def to_wire(self) -> dict:
        return {
            "type": "result",
            "job_id": self.job_id,
            "shard_index": self.shard_index,
            "attempt": self.attempt,
            "worker_id": self.worker_id,
            "measurements": self.measurements,
            "statistics": self.statistics,
            "metrics": self.metrics,
            "spans": self.spans,
            "span_stats": self.span_stats,
            "cache_entries": self.cache_entries,
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "JobResult":
        if wire.get("type") != "result":
            raise JobProtocolError(
                f"expected a result frame, got {wire.get('type')!r}"
            )
        try:
            job_id, shard_index, attempt, worker_id = exact_ints(
                (wire["job_id"], wire["shard_index"], wire["attempt"],
                 wire["worker_id"]),
                JobProtocolError,
            )
            return cls(
                job_id=job_id,
                shard_index=shard_index,
                attempt=attempt,
                worker_id=worker_id,
                measurements=wire["measurements"],
                statistics=wire["statistics"],
                metrics=wire.get("metrics"),
                spans=wire.get("spans") or [],
                span_stats=wire.get("span_stats"),
                cache_entries=wire.get("cache_entries"),
            )
        except (KeyError, TypeError) as error:
            raise JobProtocolError(f"malformed job result: {error}") from None

    @classmethod
    def from_outcome(
        cls, spec: JobSpec, worker_id: int, outcome
    ) -> "JobResult":
        """Wrap a :class:`~repro.exec.executor.ShardOutcome` for the wire."""
        return cls(
            job_id=spec.job_id,
            shard_index=outcome.index,
            attempt=spec.attempt,
            worker_id=worker_id,
            measurements=encode_measurements(outcome.measurements),
            statistics=list(encode_statistics(outcome.statistics)),
            metrics=(
                registry_to_wire(outcome.metrics)
                if outcome.metrics is not None
                else None
            ),
            spans=encode_spans(outcome.spans),
            span_stats=encode_span_stats(outcome.span_stats),
            cache_entries=outcome.cache_entries,
        )

    def to_outcome(self, shard: Shard):
        """Rebuild the :class:`~repro.exec.executor.ShardOutcome`.

        ``shard`` must be the parent's own plan entry for this index —
        its domain objects are re-attached exactly as the process-pool
        path does, preserving object identity with the serial result.
        """
        from repro.exec.executor import ShardOutcome

        if self.shard_index != shard.index:
            raise JobProtocolError(
                f"result for shard {self.shard_index} decoded against "
                f"shard {shard.index}"
            )
        try:
            measurements = decode_measurements(self.measurements, shard.domains)
            statistics = decode_statistics(self.statistics)
            registry = (
                registry_from_wire(self.metrics)
                if self.metrics is not None
                else None
            )
            spans = decode_spans(self.spans)
            span_stats = decode_span_stats(self.span_stats)
        except JobProtocolError:
            raise
        except Exception as error:  # any codec-shape violation
            raise JobProtocolError(
                f"undecodable result for shard {shard.index}: {error}"
            ) from None
        return ShardOutcome(
            index=shard.index,
            measurements=measurements,
            statistics=statistics,
            metrics=registry,
            spans=spans,
            span_stats=span_stats,
            cache_entries=self.cache_entries,
        )


def error_frame(worker_id: int, message: str, job_id: Optional[int] = None) -> dict:
    """Worker → parent: a typed refusal (digest mismatch, bad spec)."""
    return {
        "type": "error",
        "worker_id": worker_id,
        "job_id": job_id,
        "message": message,
    }
