"""Counter/Gauge/Histogram semantics and exposition determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricError,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("ripki_things_total", "things")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        counter = MetricsRegistry().counter("ripki_things_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("ripki_things_total")
        first.inc(3)
        again = registry.counter("ripki_things_total")
        assert again is first
        assert again.value == 3

    def test_type_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("ripki_things_total")
        with pytest.raises(MetricError):
            registry.gauge("ripki_things_total")

    def test_label_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("ripki_things_total", labelnames=("form",))
        with pytest.raises(MetricError):
            registry.counter("ripki_things_total", labelnames=("state",))

    def test_invalid_name_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("ripki things")


class TestLabels:
    def test_each_label_set_is_one_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("ripki_pairs_total", labelnames=("form",))
        counter.labels(form="www").inc(2)
        counter.labels(form="plain").inc(5)
        counter.labels(form="www").inc()
        assert counter.labels(form="www").value == 3
        assert counter.labels(form="plain").value == 5

    def test_cardinality_tracked_per_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("ripki_pairs_total", labelnames=("form",))
        for form in ("a", "b", "c"):
            counter.labels(form=form).inc()
        assert len(counter.series()) == 3

    def test_wrong_label_names_rejected(self):
        counter = MetricsRegistry().counter(
            "ripki_pairs_total", labelnames=("form",)
        )
        with pytest.raises(MetricError):
            counter.labels(shape="www")

    def test_parent_of_labelled_metric_rejects_inc(self):
        counter = MetricsRegistry().counter(
            "ripki_pairs_total", labelnames=("form",)
        )
        with pytest.raises(MetricError):
            counter.inc()

    def test_unlabelled_metric_rejects_labels(self):
        counter = MetricsRegistry().counter("ripki_pairs_total")
        with pytest.raises(MetricError):
            counter.labels(form="www")

    def test_reserved_le_label_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("ripki_h", labelnames=("le",))


class TestGauge:
    def test_set_inc(self):
        gauge = MetricsRegistry().gauge("ripki_vrps")
        gauge.set(10)
        gauge.inc(5)
        assert gauge.value == 15


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        histogram = MetricsRegistry().histogram(
            "ripki_h", buckets=(1.0, 2.0)
        )
        histogram.observe(1.0)   # lands in le=1
        histogram.observe(1.5)   # lands in le=2
        histogram.observe(99.0)  # lands in +Inf
        buckets = dict(histogram.bucket_counts())
        assert buckets[1.0] == 1
        assert buckets[2.0] == 2          # cumulative
        assert buckets[float("inf")] == 3
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(101.5)

    def test_buckets_are_sorted_and_fixed(self):
        histogram = MetricsRegistry().histogram("ripki_h", buckets=(5, 1, 3))
        assert histogram.buckets == (1, 3, 5)

    def test_default_buckets_deterministic(self):
        assert MetricsRegistry().histogram("ripki_h").buckets == tuple(
            sorted(DEFAULT_BUCKETS)
        )

    def test_labelled_histogram_children_share_buckets(self):
        histogram = MetricsRegistry().histogram(
            "ripki_h", labelnames=("op",), buckets=(1.0,)
        )
        histogram.labels(op="a").observe(0.5)
        assert histogram.labels(op="a").buckets == (1.0,)
        assert histogram.labels(op="a").count == 1


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("ripki_b_total", "b help").inc(2)
        counter = registry.counter("ripki_a_total", labelnames=("form",))
        counter.labels(form="www").inc(1)
        counter.labels(form="plain").inc(9)
        registry.gauge("ripki_g", "a gauge").set(1.5)
        registry.histogram("ripki_h", buckets=(1.0,)).observe(0.5)
        return registry

    def test_snapshot_deterministic(self):
        one = self._populated().snapshot()
        two = self._populated().snapshot()
        assert one == two
        assert json.dumps(one) == json.dumps(two)
        assert list(one) == sorted(one)

    def test_prometheus_text_format(self):
        text = self._populated().render_prometheus()
        assert '# TYPE ripki_a_total counter' in text
        assert 'ripki_a_total{form="plain"} 9' in text
        assert 'ripki_a_total{form="www"} 1' in text
        assert "# HELP ripki_b_total b help" in text
        assert "ripki_g 1.5" in text
        assert 'ripki_h_bucket{le="+Inf"} 1' in text
        assert "ripki_h_count 1" in text
        # Deterministic ordering: families sorted by name.
        assert text.index("ripki_a_total") < text.index("ripki_b_total")

    def test_write_prometheus(self, tmp_path):
        path = tmp_path / "m.prom"
        size = self._populated().write_prometheus(path)
        assert size > 0
        assert path.read_text() == self._populated().render_prometheus()


class TestNullRegistry:
    def test_everything_is_a_noop(self):
        registry = NullRegistry()
        counter = registry.counter("ripki_x_total")
        counter.inc()
        counter.labels(form="www").inc(5)
        registry.gauge("ripki_g").set(3)
        registry.histogram("ripki_h").observe(1.0)
        assert counter.value == 0
        assert registry.render_prometheus() == ""
        assert registry.snapshot() == {}
        assert registry.get("ripki_x_total") is None
        assert not registry.enabled

    def test_shared_singleton(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")


class TestMerge:
    """Registry merging, the backbone of the sharded executor."""

    def _shard_registry(self, measured, www):
        registry = MetricsRegistry()
        registry.counter("ripki_domains_measured_total", "help").inc(measured)
        registry.counter(
            "ripki_addresses_total", "help", labelnames=("form",)
        ).labels(form="www").inc(www)
        registry.histogram(
            "ripki_hops", "help", buckets=(1, 2, 4)
        ).observe(www)
        return registry

    def test_counters_add(self):
        merged = MetricsRegistry().merge(self._shard_registry(3, 1)).merge(
            self._shard_registry(4, 2)
        )
        assert merged.get("ripki_domains_measured_total").value == 7
        addresses = merged.get("ripki_addresses_total")
        assert addresses.labels(form="www").value == 3

    def test_histograms_add_buckets_and_sums(self):
        merged = MetricsRegistry().merge(self._shard_registry(1, 1)).merge(
            self._shard_registry(1, 4)
        )
        histogram = merged.get("ripki_hops")
        assert histogram.count == 2
        assert histogram.sum == 5
        assert histogram.bucket_counts() == [
            (1, 1), (2, 1), (4, 2), (float("inf"), 2),
        ]

    def test_gauges_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("ripki_depth").set(2)
        b.gauge("ripki_depth").set(5)
        assert a.merge(b).get("ripki_depth").value == 7

    def test_zero_valued_series_survive(self):
        source = MetricsRegistry()
        counter = source.counter("ripki_x_total", "h", labelnames=("form",))
        counter.labels(form="www")  # registered, never incremented
        merged = MetricsRegistry().merge(source)
        assert merged.get("ripki_x_total").labels(form="www").value == 0

    def test_merge_into_existing_target(self):
        target = MetricsRegistry()
        target.counter("ripki_domains_measured_total", "help").inc(10)
        target.merge(self._shard_registry(5, 0))
        assert target.get("ripki_domains_measured_total").value == 15

    def test_sources_unchanged(self):
        source = self._shard_registry(3, 1)
        MetricsRegistry().merge(source).merge(self._shard_registry(1, 1))
        assert source.get("ripki_domains_measured_total").value == 3

    def test_kind_clash_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ripki_x")
        b.gauge("ripki_x")
        with pytest.raises(MetricError):
            a.merge(b)

    def test_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("ripki_h", buckets=(1, 2))
        b.histogram("ripki_h", buckets=(1, 2, 3)).observe(1)
        with pytest.raises(MetricError):
            a.merge(b)

    def test_merge_order_is_associative_for_int_series(self):
        shards = [self._shard_registry(i, i) for i in (1, 2, 3)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for shard in shards:
            forward.merge(shard)
        for shard in reversed(shards):
            backward.merge(shard)
        assert forward.snapshot() == backward.snapshot()


# One funnel-shaped delta: a counter, a labelled counter and a
# histogram, all integer-valued like every series a stage ticks.
_deltas = st.fixed_dictionaries({
    "counter": st.integers(0, 10**6),
    "labelled": st.dictionaries(
        st.sampled_from(["valid", "invalid", "not_found"]),
        st.integers(0, 1000),
        max_size=3,
    ),
    "observed": st.lists(st.integers(0, 10), max_size=6),
})


def _delta_registry(delta):
    registry = MetricsRegistry()
    registry.counter("ripki_lookups_total", "help").inc(delta["counter"])
    labelled = registry.counter(
        "ripki_validations_total", "help", labelnames=("state",)
    )
    for state, count in delta["labelled"].items():
        labelled.labels(state=state).inc(count)
    histogram = registry.histogram("ripki_hops", "help", buckets=(1, 2, 4))
    for value in delta["observed"]:
        histogram.observe(value)
    return registry


class TestMergeTimes:
    """``merge(d, times=k)`` is k merges of ``d`` in one pass."""

    @settings(max_examples=60, deadline=None)
    @given(base=_deltas, delta=_deltas, times=st.integers(1, 50))
    def test_renders_like_repeated_merges(self, base, delta, times):
        once = _delta_registry(base).merge(_delta_registry(delta), times=times)
        repeated = _delta_registry(base)
        for _ in range(times):
            repeated.merge(_delta_registry(delta))
        assert once.render_prometheus() == repeated.render_prometheus()
