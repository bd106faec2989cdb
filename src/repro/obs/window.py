"""Sliding-window instruments and SLO tracking.

The registry's :class:`~repro.obs.metrics.Histogram` accumulates
forever — the right shape for an end-of-run exposition, the wrong one
for a long-running service where "p99 over the last minute" is the
question.  This module adds the windowed layer:

* :func:`quantile_from_buckets` — the *one* bucket-based quantile
  estimator every consumer shares (windowed instruments, the serve
  summary table, the SLO gauges), so a report and a Prometheus series
  can never disagree about what "p99" means;
* :class:`WindowedHistogram` — a ring of per-slice bucket frames over
  fixed bounds; observations land in the current slice, expired
  slices are dropped as the clock advances, and quantiles are
  estimated from the surviving bucket counts;
* :class:`RollingRate` — events per second over the same ring layout;
* :class:`SLOTracker` — declared latency/error objectives evaluated
  over windows, exporting compliance and error-budget-remaining
  gauges into a :class:`~repro.obs.metrics.MetricsRegistry`.

Every class takes an injectable ``clock`` (monotonic seconds).  Under
the virtual-time machinery the clock is a counter the test advances,
so a seeded run pins the *exact* window contents — which slice each
observation landed in, which slices expired, and therefore the exact
quantile/compliance/budget gauges exported.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_BUCKETS, MetricError, Number

Clock = Callable[[], float]

# Gauge names the tracker exports (label "slo" selects the objective).
SLO_LATENCY_METRIC = "ripki_slo_latency_window_seconds"
SLO_COMPLIANCE_METRIC = "ripki_slo_compliance_ratio"
SLO_BUDGET_METRIC = "ripki_slo_error_budget_remaining_ratio"
SLO_EVENTS_METRIC = "ripki_slo_window_events"
SLO_TARGET_METRIC = "ripki_slo_target_ratio"

_SLO_HELP = {
    SLO_LATENCY_METRIC:
        "Windowed latency quantile estimate, by objective and quantile",
    SLO_COMPLIANCE_METRIC:
        "Fraction of windowed events meeting the objective",
    SLO_BUDGET_METRIC:
        "Fraction of the windowed error budget still unspent",
    SLO_EVENTS_METRIC: "Events currently inside the objective's window",
    SLO_TARGET_METRIC: "Declared target fraction of the objective",
}

EXPORTED_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


def quantile_from_buckets(
    bounds: Sequence[float],
    cumulative: Sequence[int],
    q: float,
) -> float:
    """Estimate the ``q``-quantile (0..1) from cumulative bucket counts.

    ``bounds`` are the finite upper bucket bounds (sorted ascending);
    ``cumulative`` has one more entry than ``bounds`` — the final
    entry is the +Inf bucket's cumulative count (the total).  The
    estimator is the Prometheus ``histogram_quantile`` rule: find the
    bucket the target rank falls in and interpolate linearly inside
    it (lower edge 0 for the first bucket); a rank landing in the
    +Inf bucket clamps to the highest finite bound.  Empty data
    estimates 0.0.
    """
    if len(cumulative) != len(bounds) + 1:
        raise MetricError(
            f"expected {len(bounds) + 1} cumulative counts, "
            f"got {len(cumulative)}"
        )
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in 0..1, got {q}")
    total = cumulative[-1]
    if total <= 0:
        return 0.0
    rank = q * total
    for index, bound in enumerate(bounds):
        count = cumulative[index]
        if count >= rank:
            lower = bounds[index - 1] if index else 0.0
            below = cumulative[index - 1] if index else 0
            in_bucket = count - below
            if in_bucket <= 0:
                return bound
            fraction = (rank - below) / in_bucket
            return lower + (bound - lower) * fraction
    return bounds[-1] if bounds else 0.0


def estimate_quantiles(
    values: Sequence[float],
    qs: Sequence[float],
    bounds: Sequence[float] = DEFAULT_BUCKETS,
) -> List[float]:
    """Bucket the raw ``values`` and estimate each quantile in ``qs``.

    This is the offline twin of :meth:`WindowedHistogram.quantile`:
    the values pass through the same fixed bounds and the same
    estimator, so a post-hoc summary (``summarize_responses``) agrees
    with the live windowed gauges bucket for bucket.
    """
    ordered = tuple(sorted(bounds))
    counts = [0] * (len(ordered) + 1)
    for value in values:
        for index, bound in enumerate(ordered):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    cumulative: List[int] = []
    running = 0
    for count in counts:
        running += count
        cumulative.append(running)
    return [quantile_from_buckets(ordered, cumulative, q) for q in qs]


class WindowedHistogram:
    """Bucketed observations over a sliding window of time slices.

    The window is a ring of ``slices`` frames, each covering
    ``window_s / slices`` seconds of the injected clock.  An
    observation lands in the frame the clock currently points at;
    advancing the clock past a frame's span clears it.  Quantiles,
    counts, and sums are computed over the surviving frames only, so
    the instrument answers "over the last ``window_s`` seconds"
    within one slice of resolution.
    """

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window_s: float = 60.0,
        slices: int = 6,
        clock: Optional[Clock] = None,
    ):
        if window_s <= 0:
            raise MetricError("window_s must be > 0")
        if slices < 1:
            raise MetricError("slices must be >= 1")
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricError("windowed histogram needs >= 1 bucket")
        self.window_s = float(window_s)
        self.slices = slices
        self._slice_s = self.window_s / slices
        self._clock: Clock = clock if clock is not None else time.monotonic
        width = len(self.buckets) + 1
        self._frames: List[List[int]] = [[0] * width for _ in range(slices)]
        self._sums: List[float] = [0.0] * slices
        self._epochs: List[int] = [-1] * slices

    def _slot(self) -> int:
        """Advance to the clock's current slice, expiring stale frames."""
        epoch = int(self._clock() / self._slice_s)
        slot = epoch % self.slices
        if self._epochs[slot] != epoch:
            self._frames[slot] = [0] * (len(self.buckets) + 1)
            self._sums[slot] = 0.0
            self._epochs[slot] = epoch
        # Frames whose epoch fell out of the window are ignored at
        # read time (cheaper than eagerly sweeping every slot here).
        return slot

    def observe(self, value: Number) -> None:
        slot = self._slot()
        frame = self._frames[slot]
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                frame[index] += 1
                break
        else:
            frame[-1] += 1
        self._sums[slot] += value

    def _live_slots(self) -> List[int]:
        epoch = int(self._clock() / self._slice_s)
        floor = epoch - self.slices + 1
        return [
            slot
            for slot in range(self.slices)
            if floor <= self._epochs[slot] <= epoch
        ]

    def raw_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts over the live window."""
        totals = [0] * (len(self.buckets) + 1)
        for slot in self._live_slots():
            for index, count in enumerate(self._frames[slot]):
                totals[index] += count
        return totals

    def cumulative_counts(self) -> List[int]:
        out: List[int] = []
        running = 0
        for count in self.raw_counts():
            running += count
            out.append(running)
        return out

    @property
    def count(self) -> int:
        return sum(self.raw_counts())

    @property
    def sum(self) -> float:
        return sum(self._sums[slot] for slot in self._live_slots())

    def quantile(self, q: float) -> float:
        """Windowed ``q``-quantile via :func:`quantile_from_buckets`."""
        return quantile_from_buckets(
            self.buckets, self.cumulative_counts(), q
        )


class RollingRate:
    """Events per second over a sliding window (same ring layout)."""

    def __init__(
        self,
        window_s: float = 60.0,
        slices: int = 6,
        clock: Optional[Clock] = None,
    ):
        if window_s <= 0:
            raise MetricError("window_s must be > 0")
        if slices < 1:
            raise MetricError("slices must be >= 1")
        self.window_s = float(window_s)
        self.slices = slices
        self._slice_s = self.window_s / slices
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._counts: List[float] = [0.0] * slices
        self._epochs: List[int] = [-1] * slices

    def tick(self, amount: Number = 1) -> None:
        epoch = int(self._clock() / self._slice_s)
        slot = epoch % self.slices
        if self._epochs[slot] != epoch:
            self._counts[slot] = 0.0
            self._epochs[slot] = epoch
        self._counts[slot] += amount

    def events(self) -> float:
        """Events currently inside the window."""
        epoch = int(self._clock() / self._slice_s)
        floor = epoch - self.slices + 1
        return sum(
            self._counts[slot]
            for slot in range(self.slices)
            if floor <= self._epochs[slot] <= epoch
        )

    def rate(self) -> float:
        """Windowed mean events/second."""
        return self.events() / self.window_s


@dataclass(frozen=True)
class SLOTarget:
    """One declared objective: a latency deadline met some fraction
    of the time (error events always count against the budget)."""

    name: str
    threshold_s: float = 0.1
    target: float = 0.99
    window_s: float = 60.0

    def __post_init__(self):
        if self.threshold_s <= 0:
            raise MetricError("threshold_s must be > 0")
        if not 0.0 < self.target < 1.0:
            raise MetricError("target must be strictly inside (0, 1)")
        if self.window_s <= 0:
            raise MetricError("window_s must be > 0")


@dataclass
class SLOStatus:
    """Point-in-time evaluation of one objective's window."""

    target: SLOTarget
    total: int = 0
    good: int = 0
    quantiles: Dict[str, float] = field(default_factory=dict)

    @property
    def compliance(self) -> float:
        """Fraction of windowed events meeting the objective (1.0
        when the window is empty — no evidence of violation)."""
        if not self.total:
            return 1.0
        return self.good / self.total

    @property
    def budget_remaining(self) -> float:
        """Share of the allowed-error budget still unspent, clamped
        to [0, 1].  A 99% target tolerates 1% bad events; spending
        half of that leaves 0.5 here."""
        allowed = 1.0 - self.target.target
        if not self.total or allowed <= 0:
            return 1.0
        bad_fraction = (self.total - self.good) / self.total
        remaining = 1.0 - bad_fraction / allowed
        return min(1.0, max(0.0, remaining))


class SLOTracker:
    """Windowed objective accounting with registry export.

    Objectives are declared up front (or auto-declared on first
    observation with the defaults); every :meth:`observe` feeds the
    objective's windowed histogram and its good/total counters.
    :meth:`export` writes point-in-time gauges into a registry —
    nothing in the registry moves between exports, which is what
    keeps a ``/metrics`` scrape after a run byte-identical to the
    ``--metrics-out`` file written from the same state.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        slices: int = 6,
    ):
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._buckets = tuple(sorted(buckets))
        self._slices = slices
        self._targets: Dict[str, SLOTarget] = {}
        self._latency: Dict[str, WindowedHistogram] = {}
        self._good: Dict[str, RollingRate] = {}
        self._total: Dict[str, RollingRate] = {}
        # One tracker may be fed from many serving threads; the lock
        # keeps window frames exact (the instruments themselves are
        # lock-free for single-threaded use).
        self._lock = threading.Lock()

    def declare(
        self,
        name: str,
        threshold_s: float = 0.1,
        target: float = 0.99,
        window_s: float = 60.0,
    ) -> SLOTarget:
        """Register (or re-fetch) an objective; idempotent on re-declare
        with identical parameters."""
        declared = SLOTarget(
            name=name,
            threshold_s=threshold_s,
            target=target,
            window_s=window_s,
        )
        existing = self._targets.get(name)
        if existing is not None:
            if existing != declared:
                raise MetricError(
                    f"SLO {name!r} re-declared with different parameters"
                )
            return existing
        self._targets[name] = declared
        self._latency[name] = WindowedHistogram(
            buckets=self._buckets,
            window_s=window_s,
            slices=self._slices,
            clock=self._clock,
        )
        self._good[name] = RollingRate(
            window_s=window_s, slices=self._slices, clock=self._clock
        )
        self._total[name] = RollingRate(
            window_s=window_s, slices=self._slices, clock=self._clock
        )
        return declared

    def observe(self, name: str, latency_s: float, ok: bool = True) -> None:
        """Record one event: its latency, and whether it succeeded.

        An event is *good* when it succeeded and met the objective's
        latency deadline.
        """
        with self._lock:
            target = self._targets.get(name)
            if target is None:
                target = self.declare(name)
            self._latency[name].observe(latency_s)
            self._total[name].tick()
            if ok and latency_s <= target.threshold_s:
                self._good[name].tick()

    def names(self) -> List[str]:
        return sorted(self._targets)

    def status(self, name: str) -> SLOStatus:
        target = self._targets[name]
        histogram = self._latency[name]
        return SLOStatus(
            target=target,
            total=int(self._total[name].events()),
            good=int(self._good[name].events()),
            quantiles={
                label: histogram.quantile(q)
                for label, q in EXPORTED_QUANTILES
            },
        )

    def export(self, registry) -> None:
        """Write every objective's gauges into ``registry``."""
        latency = registry.gauge(
            SLO_LATENCY_METRIC,
            _SLO_HELP[SLO_LATENCY_METRIC],
            labelnames=("slo", "quantile"),
        )
        compliance = registry.gauge(
            SLO_COMPLIANCE_METRIC,
            _SLO_HELP[SLO_COMPLIANCE_METRIC],
            labelnames=("slo",),
        )
        budget = registry.gauge(
            SLO_BUDGET_METRIC,
            _SLO_HELP[SLO_BUDGET_METRIC],
            labelnames=("slo",),
        )
        events = registry.gauge(
            SLO_EVENTS_METRIC,
            _SLO_HELP[SLO_EVENTS_METRIC],
            labelnames=("slo",),
        )
        declared = registry.gauge(
            SLO_TARGET_METRIC,
            _SLO_HELP[SLO_TARGET_METRIC],
            labelnames=("slo",),
        )
        for name in self.names():
            status = self.status(name)
            for label, value in sorted(status.quantiles.items()):
                latency.labels(slo=name, quantile=label).set(round(value, 9))
            compliance.labels(slo=name).set(round(status.compliance, 9))
            budget.labels(slo=name).set(round(status.budget_remaining, 9))
            events.labels(slo=name).set(status.total)
            declared.labels(slo=name).set(status.target.target)
