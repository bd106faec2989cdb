"""Span nesting, duration monotonicity, and collector behaviour."""

import json

import pytest

from repro.obs.tracing import NULL_TRACER, NullTracer, TraceCollector


class TestSpans:
    def test_records_name_and_attributes(self):
        tracer = TraceCollector()
        with tracer.span("dns.resolve", name="example.org") as span:
            pass
        assert span.name == "dns.resolve"
        assert span.attributes == {"name": "example.org"}
        assert tracer.names() == ["dns.resolve"]

    def test_duration_is_monotone_nonnegative(self):
        tracer = TraceCollector()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.spans("outer")[0]
        inner = tracer.spans("inner")[0]
        assert inner.duration >= 0
        assert outer.duration >= inner.duration
        assert outer.end >= inner.end >= inner.start >= outer.start

    def test_parent_child_nesting(self):
        tracer = TraceCollector()
        with tracer.span("study.run") as run:
            with tracer.span("stage.dns") as dns:
                pass
            with tracer.span("stage.prefix") as prefix:
                pass
        assert run.parent_id is None
        assert dns.parent_id == run.span_id
        assert prefix.parent_id == run.span_id

    def test_exception_marks_error_and_propagates(self):
        tracer = TraceCollector()
        with pytest.raises(ValueError):
            with tracer.span("explodes"):
                raise ValueError("boom")
        span = tracer.spans("explodes")[0]
        assert span.error == "ValueError: boom"
        assert span.duration >= 0
        assert tracer.aggregate()["explodes"].errors == 1

    def test_name_keyword_attribute_does_not_collide(self):
        tracer = TraceCollector()
        with tracer.span("x", name="attr-value"):
            pass
        with NullTracer().span("x", name="attr-value"):
            pass
        assert tracer.spans("x")[0].attributes["name"] == "attr-value"


class TestCollector:
    def test_retention_bound_counts_drops(self):
        tracer = TraceCollector(max_per_name=2)
        for name in ["s"] * 5 + ["t"]:
            with tracer.span(name):
                pass
        assert [span.name for span in tracer.spans()] == ["s", "s", "t"]
        assert tracer.dropped == 3
        assert tracer.seen == 6
        assert tracer.aggregate()["s"].count == 5

    def test_aggregate_stats(self):
        tracer = TraceCollector()
        for _ in range(3):
            with tracer.span("stage.dns"):
                pass
        stats = tracer.aggregate()["stage.dns"]
        assert stats.count == 3
        assert stats.total >= stats.max >= stats.mean >= stats.min >= 0

    def test_json_dump_round_trips(self, tmp_path):
        tracer = TraceCollector()
        with tracer.span("study.run", domains=3):
            with tracer.span("stage.dns"):
                pass
        path = tmp_path / "trace.json"
        written = tracer.dump(path)
        payload = json.loads(path.read_text())
        assert written == 2
        assert payload["dropped"] == 0
        names = {span["name"] for span in payload["spans"]}
        assert names == {"study.run", "stage.dns"}
        assert {
            name: entry["count"] for name, entry in payload["aggregate"].items()
        } == {"stage.dns": 1, "study.run": 1}

    def test_clear(self):
        tracer = TraceCollector()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.aggregate() == {}


class TestAbsorb:
    """Grafting shard-worker spans into the merging collector."""

    def _shard_trace(self):
        shard = TraceCollector()
        with shard.span("shard.run", shard=0):
            with shard.span("stage.dns"):
                pass
        return shard

    def test_spans_are_reidentified(self):
        main = TraceCollector()
        with main.span("study.run"):
            pass
        shard = self._shard_trace()
        kept = main.absorb(shard.spans())
        assert kept == 2
        ids = [span.span_id for span in main.spans()]
        assert len(ids) == len(set(ids))

    def test_internal_parent_links_preserved(self):
        main = TraceCollector()
        main.absorb(self._shard_trace().spans())
        by_name = {span.name: span for span in main.spans()}
        assert by_name["stage.dns"].parent_id == by_name["shard.run"].span_id

    def test_orphans_rerooted_under_parent(self):
        main = TraceCollector()
        with main.span("study.run") as root:
            pass
        main.absorb(self._shard_trace().spans(), parent_id=root.span_id)
        shard_root = main.spans("shard.run")[0]
        assert shard_root.parent_id == root.span_id

    def test_durations_and_attributes_copied(self):
        shard = self._shard_trace()
        original = shard.spans("shard.run")[0]
        main = TraceCollector()
        main.absorb(shard.spans())
        grafted = main.spans("shard.run")[0]
        assert grafted.duration == original.duration
        assert grafted.attributes == {"shard": 0}
        assert grafted.attributes is not original.attributes

    def test_absorb_respects_retention_and_dropped(self):
        main = TraceCollector(max_per_name=1)
        shard = self._shard_trace()
        with shard.span("stage.dns"):
            pass
        assert main.absorb(shard.spans()) == 2
        assert [span.name for span in main.spans()] == ["stage.dns", "shard.run"]
        assert main.dropped == 1
        assert main.aggregate()["stage.dns"].count == 2

    def test_null_tracer_absorbs_nothing(self):
        assert NULL_TRACER.absorb([1, 2, 3]) == 0


class TestExactAggregate:
    """The aggregate counts every span; only the records are bounded."""

    BOUND = 4

    def _capped(self, spans: int, errors: int = 0) -> TraceCollector:
        tracer = TraceCollector(max_per_name=self.BOUND)
        for index in range(spans):
            try:
                with tracer.span("stage.dns", index=index):
                    if index < errors:
                        raise ValueError("boom")
            except ValueError:
                pass
        return tracer

    def test_records_stop_at_the_bound_but_every_span_counts(self):
        fed = 10 * self.BOUND
        tracer = self._capped(fed, errors=3)
        assert len(tracer) == self.BOUND
        assert len(tracer.spans("stage.dns")) == self.BOUND
        stats = tracer.aggregate()["stage.dns"]
        assert stats.count == fed
        assert stats.errors == 3
        assert tracer.seen == fed
        assert tracer.dropped == fed - self.BOUND

    def test_structural_spans_are_kept_past_per_item_floods(self):
        tracer = TraceCollector(max_per_name=self.BOUND)
        with tracer.span("study.run"):
            for _ in range(10 * self.BOUND):
                with tracer.span("stage.dns"):
                    pass
        (root,) = tracer.spans("study.run")
        assert root.end is not None
        assert tracer.aggregate()["study.run"].count == 1

    def test_clear_empties_the_aggregate_too(self):
        tracer = self._capped(10 * self.BOUND)
        tracer.clear()
        assert tracer.aggregate() == {}
        assert tracer.seen == tracer.dropped == len(tracer) == 0
        with tracer.span("stage.dns"):
            pass
        assert tracer.aggregate()["stage.dns"].count == 1

    def test_absorbing_a_capped_shard_merges_its_aggregate_once(self):
        shard = self._capped(10 * self.BOUND, errors=2)
        main = TraceCollector(max_per_name=self.BOUND)
        with main.span("study.run") as root:
            with main.span("stage.dns"):
                pass
            kept = main.absorb(
                shard.spans(), parent_id=root.span_id, stats=shard.aggregate()
            )
        assert kept == self.BOUND - 1
        stats = main.aggregate()["stage.dns"]
        assert stats.count == 10 * self.BOUND + 1
        assert stats.errors == 2
        expected = shard.aggregate()["stage.dns"]
        assert stats.max >= expected.max
        assert stats.total >= expected.total
        assert len(main.spans("stage.dns")) == self.BOUND
        assert main.seen == 10 * self.BOUND + 2

    def test_aggregate_is_a_copy(self):
        tracer = self._capped(2)
        tracer.aggregate()["stage.dns"].count = 99
        assert tracer.aggregate()["stage.dns"].count == 2


class TestNullTracer:
    def test_is_inert_and_shared(self):
        entered = NULL_TRACER.span("anything", key="value")
        with entered as span:
            assert span is None
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.aggregate() == {}
        assert not NULL_TRACER.enabled
