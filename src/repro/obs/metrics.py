"""Dependency-free metrics registry (Prometheus-style, deterministic).

Three instrument kinds cover everything the measurement pipeline
needs:

* :class:`Counter` — monotonically increasing totals (domains
  measured, PDUs decoded, cache hits),
* :class:`Gauge` — point-in-time values (VRP table size, current
  serial),
* :class:`Histogram` — distributions over *fixed* bucket boundaries
  so two runs over the same world produce byte-identical snapshots.

Metrics support labels (``counter.labels(form="www").inc()``); every
(name, label-set) pair is one time series.  The registry renders both
Prometheus text exposition format and a JSON snapshot, and sorts all
series deterministically.

A :class:`NullRegistry` provides the zero-cost-by-default mode: every
instrument it hands out is a shared no-op singleton, so instrumented
hot paths pay only an attribute call when observability is disabled.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ReproError

Number = Union[int, float]

# Seconds-scale latency buckets: wide enough for a 1M-domain run,
# fine enough to separate a trie lookup from a DNS chain walk.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_RESERVED_LABELS = frozenset({"le"})


class MetricError(ReproError, ValueError):
    """Raised on metric misuse (type clash, bad labels) or a bad wire row."""


# Memoised: scratch registries (the funnel captures one per distinct
# address and pair) create the same few instruments over and over.
@lru_cache(maxsize=256)
def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise MetricError(f"invalid metric name {name!r}")
    return name


def _label_key(
    labelnames: Sequence[str], labels: Mapping[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Common child bookkeeping for labelled instruments."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        bad = _RESERVED_LABELS & set(self.labelnames)
        if bad:
            raise MetricError(f"reserved label name(s): {sorted(bad)}")
        self._children: Dict[Tuple[str, ...], "_Metric"] = {}

    def labels(self, **labels: str) -> "_Metric":
        """The child series for one concrete label assignment."""
        if not self.labelnames:
            raise MetricError(f"{self.name} takes no labels")
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = type(self)(self.name, self.help)
            self._children[key] = child
        return child

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise MetricError(
                f"{self.name} has labels {self.labelnames}; call .labels() first"
            )

    def series(self) -> List[Tuple[Tuple[str, ...], "_Metric"]]:
        """Every concrete child, sorted by label values."""
        if not self.labelnames:
            return [((), self)]
        return sorted(self._children.items())


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value: float = 0

    def inc(self, amount: Number = 1) -> None:
        self._require_leaf()
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        self._value += amount

    def _absorb(self, other: "Counter", times: int = 1) -> None:
        self._value += other._value * times

    @property
    def value(self) -> Number:
        self._require_leaf()
        return self._value


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value: float = 0

    def set(self, value: Number) -> None:
        self._require_leaf()
        self._value = value

    def inc(self, amount: Number = 1) -> None:
        self._require_leaf()
        self._value += amount

    def _absorb(self, other: "Gauge", times: int = 1) -> None:
        # Gauges merge additively: shard-local table sizes / depths
        # sum to the whole; point-in-time gauges should be set after
        # the merge by whoever owns them.
        self._value += other._value * times

    @property
    def value(self) -> Number:
        self._require_leaf()
        return self._value


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name} needs >= 1 bucket")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum: float = 0.0
        self._count = 0

    def labels(self, **labels: str) -> "Histogram":
        if not self.labelnames:
            raise MetricError(f"{self.name} takes no labels")
        key = _label_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.name, self.help, buckets=self.buckets)
            self._children[key] = child
        return child  # type: ignore[return-value]

    def observe(self, value: Number) -> None:
        self._require_leaf()
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    def _absorb(self, other: "Histogram", times: int = 1) -> None:
        if other.buckets != self.buckets:
            raise MetricError(
                f"histogram {self.name} bucket mismatch: "
                f"{other.buckets} != {self.buckets}"
            )
        for index, count in enumerate(other._counts):
            self._counts[index] += count * times
        self._sum += other._sum * times
        self._count += other._count * times

    @property
    def count(self) -> int:
        self._require_leaf()
        return self._count

    @property
    def sum(self) -> float:
        self._require_leaf()
        return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, +Inf last."""
        self._require_leaf()
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()

    def labels(self, **labels: str) -> "_NullInstrument":
        return self

    def inc(self, amount: Number = 1) -> None:
        pass

    def set(self, value: Number) -> None:
        pass

    def observe(self, value: Number) -> None:
        pass

    @property
    def value(self) -> Number:
        return 0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """A named collection of instruments with deterministic exposition."""

    enabled = True

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise MetricError(
                    f"metric {name!r} re-registered as a different "
                    f"{cls.kind}/{sorted(labelnames)}"
                )
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)  # type: ignore

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)  # type: ignore

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )  # type: ignore

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- merging -----------------------------------------------------------

    def merge(
        self, other: "MetricsRegistry", times: int = 1
    ) -> "MetricsRegistry":
        """Fold every series of ``other`` into this registry.

        Counters and gauges add their values, histograms add their
        bucket counts/sums; series present only in ``other`` are
        created (including zero-valued ones, so pre-registered funnel
        series survive the merge).  ``times`` folds ``other`` in that
        many times over in one pass — exactly ``times`` separate merges
        for integer-valued series, which is every series a funnel
        stage ticks.  A name registered with a different kind, label
        set, or bucket layout raises :class:`MetricError`.  Returns
        ``self`` so merges chain.
        """
        for name in other.names():
            theirs = other.get(name)
            if isinstance(theirs, Histogram):
                mine = self.histogram(
                    name, theirs.help, theirs.labelnames, buckets=theirs.buckets
                )
            elif isinstance(theirs, Counter):
                mine = self.counter(name, theirs.help, theirs.labelnames)
            elif isinstance(theirs, Gauge):
                mine = self.gauge(name, theirs.help, theirs.labelnames)
            else:
                raise MetricError(
                    f"cannot merge metric {name!r} of kind {theirs.kind!r}"
                )
            for key, child in theirs.series():
                target = mine
                if theirs.labelnames:
                    target = mine.labels(**dict(zip(theirs.labelnames, key)))
                target._absorb(child, times)
        return self

    # -- exposition --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dict: deterministic, label sets as sorted keys."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            series: List[Dict[str, object]] = []
            for key, child in metric.series():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(child, Histogram):
                    series.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": [
                                [bound, count]
                                for bound, count in child.bucket_counts()
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[name] = {"type": metric.kind, "help": metric.help, "series": series}
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, child in metric.series():
                labels = dict(zip(metric.labelnames, key))
                if isinstance(child, Histogram):
                    for bound, count in child.bucket_counts():
                        le = "+Inf" if bound == float("inf") else _fmt(bound)
                        lines.append(
                            f"{name}_bucket{_labels({**labels, 'le': le})} {count}"
                        )
                    lines.append(f"{name}_sum{_labels(labels)} {_fmt(child.sum)}")
                    lines.append(f"{name}_count{_labels(labels)} {child.count}")
                else:
                    lines.append(f"{name}{_labels(labels)} {_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path) -> int:
        """Write the text exposition to ``path``; returns byte count."""
        text = self.render_prometheus()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return len(text.encode("utf-8"))


class NullRegistry:
    """Zero-cost registry: hands out shared no-op instruments."""

    enabled = False

    def counter(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labelnames=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", labelnames=(), buckets=DEFAULT_BUCKETS
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def snapshot(self) -> Dict[str, object]:
        return {}

    def render_prometheus(self) -> str:
        return ""

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()

AnyRegistry = Union[MetricsRegistry, NullRegistry]


def registry_to_wire(registry: AnyRegistry) -> List[list]:
    """Flatten a registry to JSON-able primitives, exactly.

    The snapshot cache stores the metric *delta* a pipeline stage
    produced alongside the stage's artifact, so a cache hit can replay
    the exact counter ticks the recomputation would have made.  Unlike
    :meth:`MetricsRegistry.snapshot` this form keeps label names and
    histogram internals (raw per-bucket counts, not cumulative ones),
    so ``registry_from_wire`` rebuilds a registry that merges and
    renders identically — including labelled metrics with zero
    children, which the snapshot form would lose.
    """
    out: List[list] = []
    for name in registry.names():
        metric = registry.get(name)
        buckets = list(metric.buckets) if isinstance(metric, Histogram) else None
        series: List[list] = []
        for key, child in metric.series():
            if isinstance(child, Histogram):
                payload = [list(child._counts), child._sum, child._count]
            else:
                payload = child._value
            series.append([list(key), payload])
        out.append(
            [name, metric.kind, metric.help, list(metric.labelnames),
             buckets, series]
        )
    return out


def registry_from_wire(wire: Iterable[list]) -> MetricsRegistry:
    """Rebuild a registry from :func:`registry_to_wire` output.

    The rows come from a job frame or a store file, so every value is
    checked before it becomes a series: a counter is a finite,
    non-negative number, a gauge a finite number (never a bool), and a
    histogram's bucket counts and total are non-negative ints with
    ``count == sum(counts)``.  Anything else, a malformed row
    included, raises :class:`MetricError`.
    """
    try:
        return _from_wire(wire)
    except MetricError:
        raise
    except (TypeError, ValueError) as error:
        raise MetricError(f"malformed metric wire row: {error}") from None


def _from_wire(wire: Iterable[list]) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, kind, help, labelnames, buckets, series in wire:
        if kind == "histogram":
            metric = registry.histogram(
                name, help, labelnames, buckets=map(_finite, buckets)
            )
        elif kind == "counter":
            metric = registry.counter(name, help, labelnames)
        elif kind == "gauge":
            metric = registry.gauge(name, help, labelnames)
        else:
            raise MetricError(f"unknown wire metric kind {kind!r}")
        for key, payload in series:
            child = (
                metric.labels(**dict(zip(labelnames, key)))
                if labelnames
                else metric
            )
            if kind == "histogram":
                counts, total, count = payload
                if (
                    len(counts) != len(metric.buckets) + 1
                    or not all(map(_is_count, counts))
                    or not _is_count(count)
                    or count != sum(counts)
                ):
                    raise MetricError(
                        f"histogram {name} counts {counts!r} / {count!r}"
                    )
                child._counts = list(counts)
                child._sum = _finite(total)
                child._count = count
            else:
                value = _finite(payload)
                if kind == "counter" and value < 0:
                    raise MetricError(f"counter {name} is negative: {value!r}")
                child._value = value
    return registry


def _finite(value) -> Number:
    """``value`` if it is a finite int or float (a bool is neither)."""
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    raise MetricError(f"not a finite number: {value!r}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def registry_from_snapshot(snapshot: Mapping[str, dict]) -> MetricsRegistry:
    """Rebuild a registry from :meth:`MetricsRegistry.snapshot` output.

    The reconstruction renders byte-identical Prometheus text to the
    source registry: label names come back in the snapshot's dict
    order (which preserves the source's label order), histogram
    bounds are recovered from the per-series bucket lists, and the
    cumulative bucket counts are de-accumulated into raw ones.  The
    only information the snapshot form lacks — the label *names* of a
    labelled metric with zero children, and the bucket layout of a
    histogram with zero series — cannot affect rendering, because
    neither produces any series lines.
    """
    registry = MetricsRegistry()
    for name, family in snapshot.items():
        kind = family["type"]
        help = family.get("help", "")
        series = family.get("series", [])
        labelnames: Tuple[str, ...] = ()
        if series:
            labelnames = tuple(series[0]["labels"])
        else:
            # Unlabelled metrics always carry their one implicit
            # series, so an empty list can only mean "labelled, no
            # children yet".  The actual label names are unknowable
            # and irrelevant — any non-empty tuple reproduces the
            # series-less rendering (HELP/TYPE lines only).
            labelnames = ("label",)
        if kind == "histogram":
            if not series:
                # Bounds equally unknowable and irrelevant.
                registry.histogram(name, help, labelnames)
                continue
            bounds = tuple(
                bound for bound, _count in series[0]["buckets"][:-1]
            )
            metric = registry.histogram(
                name, help, labelnames, buckets=bounds
            )
        elif kind == "counter":
            metric = registry.counter(name, help, labelnames)
        elif kind == "gauge":
            metric = registry.gauge(name, help, labelnames)
        else:
            raise MetricError(f"unknown snapshot metric kind {kind!r}")
        for entry in series:
            child = (
                metric.labels(**entry["labels"]) if labelnames else metric
            )
            if kind == "histogram":
                cumulative = [count for _bound, count in entry["buckets"]]
                raw = [
                    count - (cumulative[index - 1] if index else 0)
                    for index, count in enumerate(cumulative)
                ]
                child._counts = raw
                child._sum = entry["sum"]
                child._count = entry["count"]
            else:
                child._value = entry["value"]
    return registry


def _fmt(value: Number) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
