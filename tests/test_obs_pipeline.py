"""End-to-end observability over a real measurement study run."""

import pytest

from repro import obs
from repro.core import MeasurementStudy, RunConfig
from repro.core.pipeline import StudyStatistics
from repro.obs.report import stage_timing_report
from repro.obs.runtime import metrics, observability_enabled, tracer


@pytest.fixture()
def observed_run(small_world):
    with obs.scope() as (registry, collector):
        capture = obs.CaptureProgress()
        study = MeasurementStudy.from_ecosystem(small_world)
        reporter = obs.ProgressReporter(
            total=len(small_world.ranking),
            callback=capture,
            every=250,
            min_interval=-1,
        )
        result = study.run(config=RunConfig(progress=reporter))
    return result, registry, collector, capture


class TestStageCounters:
    def test_domains_in_equals_measurements_out(self, observed_run):
        result, registry, _collector, _capture = observed_run
        measured = registry.get("ripki_domains_measured_total")
        assert measured.value == len(result)
        assert measured.value == result.statistics.domain_count

    def test_exclusion_counters_match_statistics(self, observed_run):
        result, registry, _collector, _capture = observed_run
        stats = result.statistics
        assert (
            registry.get("ripki_invalid_dns_domains_total").value
            == stats.invalid_dns_domains
        )
        assert (
            registry.get("ripki_unreachable_addresses_total").value
            == stats.unreachable_addresses
        )
        assert (
            registry.get("ripki_as_set_exclusions_total").value
            == stats.as_set_exclusions
        )
        addresses = registry.get("ripki_addresses_total")
        assert addresses.labels(form="www").value == stats.www_addresses
        assert addresses.labels(form="plain").value == stats.plain_addresses
        pairs = registry.get("ripki_pairs_total")
        assert pairs.labels(form="www").value == stats.www_pairs
        assert pairs.labels(form="plain").value == stats.plain_pairs

    def test_dns_resolutions_cover_both_forms(self, observed_run):
        result, registry, _collector, _capture = observed_run
        assert (
            registry.get("ripki_dns_resolutions_total").value == 2 * len(result)
        )

    def test_rpki_outcomes_sum_to_total_pairs(self, observed_run):
        result, registry, _collector, _capture = observed_run
        outcomes = registry.get("ripki_rpki_validations_total")
        total = sum(child.value for _key, child in outcomes.series())
        stats = result.statistics
        assert total == stats.www_pairs + stats.plain_pairs

    def test_statistics_round_trip_through_registry(self, observed_run):
        result, registry, _collector, _capture = observed_run
        stats = result.statistics
        rebuilt = StudyStatistics.from_metrics(registry)
        assert rebuilt == stats
        assert rebuilt.invalid_dns_fraction == stats.invalid_dns_fraction
        assert rebuilt.unreachable_fraction == stats.unreachable_fraction
        assert stats.consistent_with(registry)

    def test_to_metrics_round_trip_standalone(self):
        stats = StudyStatistics(
            domain_count=10,
            invalid_dns_domains=1,
            www_addresses=12,
            plain_addresses=11,
            www_pairs=9,
            plain_pairs=8,
            unreachable_addresses=2,
            as_set_exclusions=3,
        )
        registry = obs.MetricsRegistry()
        stats.to_metrics(registry)
        assert StudyStatistics.from_metrics(registry) == stats
        assert stats.total_addresses == 23


class TestStageSpans:
    def test_one_span_name_per_stage(self, observed_run):
        _result, _registry, collector, _capture = observed_run
        names = set(collector.names())
        assert {"stage.rank", "stage.dns", "stage.prefix", "stage.rpki"} <= names
        assert "study.run" in names

    def test_stage_spans_nest_under_study_run(self, observed_run):
        _result, _registry, collector, _capture = observed_run
        run = collector.spans("study.run")[0]
        rank = collector.spans("stage.rank")[0]
        assert rank.parent_id == run.span_id
        assert all(
            span.duration <= run.duration
            for span in collector.spans("stage.dns")
        )

    def test_timing_report_renders(self, observed_run):
        _result, _registry, collector, _capture = observed_run
        report = stage_timing_report(collector)
        assert "stage.dns" in report
        assert "study.run" in report


class TestProgressThroughPipeline:
    def test_cadence_and_final_event(self, observed_run, small_world):
        result, _registry, _collector, capture = observed_run
        total = len(small_world.ranking)
        expected_strides = total // 250
        # Stride events plus exactly one finished event.
        assert len(capture.events) == expected_strides + 1
        assert capture.events[-1].finished
        assert capture.events[-1].count == total == len(result)
        counts = [event.count for event in capture.events]
        assert counts == sorted(counts)

    def test_bare_callback_is_wrapped(self, small_world):
        events = []
        study = MeasurementStudy.from_ecosystem(small_world)
        result = study.run(config=RunConfig(progress=events.append))
        assert events[-1].finished
        assert events[-1].count == len(result)


class TestZeroCostDefault:
    def test_disabled_run_records_nothing(self, small_world):
        assert not observability_enabled()
        result = MeasurementStudy.from_ecosystem(small_world).run()
        assert metrics().get("ripki_domains_measured_total") is None
        assert tracer().spans() == []
        assert len(result) == len(small_world.ranking)

    def test_scope_restores_previous_state(self):
        assert not observability_enabled()
        with obs.scope():
            assert observability_enabled()
        assert not observability_enabled()
