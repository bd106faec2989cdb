"""End-to-end observability over a real measurement study run."""

import pytest

from repro import obs
from repro.core import MeasurementStudy, RunConfig
from repro.core.pipeline import StudyStatistics
from repro.faults import FaultPlan
from repro.obs.report import stage_timing_report
from repro.obs.runtime import metrics, observability_enabled, tracer
from repro.obs.tracing import TraceCollector
from repro.web import AlexaRanking, EcosystemConfig, WebEcosystem


@pytest.fixture()
def observed_run(small_world):
    with obs.scope() as (registry, collector):
        events = []
        study = MeasurementStudy.from_ecosystem(small_world)
        reporter = obs.ProgressReporter(
            total=len(small_world.ranking),
            callback=events.append,
            every=250,
            min_interval=-1,
        )
        result = study.run(config=RunConfig(progress=reporter))
    return result, registry, collector, events


class TestStageCounters:
    def test_domains_in_equals_measurements_out(self, observed_run):
        result, registry, _collector, _events = observed_run
        measured = registry.get("ripki_domains_measured_total")
        assert measured.value == len(result)
        assert measured.value == result.statistics.domain_count

    def test_exclusion_counters_match_statistics(self, observed_run):
        result, registry, _collector, _events = observed_run
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
        result, registry, _collector, _events = observed_run
        assert (
            registry.get("ripki_dns_resolutions_total").value == 2 * len(result)
        )

    def test_rpki_outcomes_sum_to_total_pairs(self, observed_run):
        result, registry, _collector, _events = observed_run
        outcomes = registry.get("ripki_rpki_validations_total")
        total = sum(child.value for _key, child in outcomes.series())
        stats = result.statistics
        assert total == stats.www_pairs + stats.plain_pairs

    def test_statistics_round_trip_through_registry(self, observed_run):
        result, registry, _collector, _events = observed_run
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


# What an observed run over an empty ranking exports: every funnel
# series explicit at zero; fault runs add the resilience families.
_EMPTY_SERIES = [
    'ripki_addresses_total{form="plain"} 0',
    'ripki_addresses_total{form="www"} 0',
    "ripki_as_set_exclusions_total 0",
    "ripki_domains_measured_total 0",
    "ripki_invalid_dns_domains_total 0",
    'ripki_pairs_total{form="plain"} 0',
    'ripki_pairs_total{form="www"} 0',
    "ripki_unreachable_addresses_total 0",
]
_EMPTY_FAULT_SERIES = sorted(
    _EMPTY_SERIES
    + ["ripki_degraded_domains_total 0", "ripki_retries_total 0"]
)


@pytest.mark.parametrize("faulted", [False, True], ids=["plain", "flaky"])
def test_empty_ranking_exports_every_family_at_zero(small_world, faulted):
    parts = MeasurementStudy.from_ecosystem(small_world)
    study = MeasurementStudy(
        AlexaRanking([]), parts.resolver, parts.table_dump, parts.payloads
    )
    faults = FaultPlan.from_profile("flaky", seed=7) if faulted else None
    texts = []
    for config in (
        RunConfig(faults=faults),
        RunConfig(workers=2, mode="process", faults=faults),
    ):
        with obs.scope() as (registry, _collector):
            study.run(config=config)
        texts.append(registry.render_prometheus())
    serial, sharded = texts
    assert serial == sharded
    lines = serial.splitlines()
    series = sorted(line for line in lines if not line.startswith("#"))
    assert series == (_EMPTY_FAULT_SERIES if faulted else _EMPTY_SERIES)
    # The fault family is declared even with no fault to count.
    declared = "# TYPE ripki_faults_injected_total counter" in lines
    assert declared == faulted


class TestStageSpans:
    def test_one_span_name_per_stage(self, observed_run):
        _result, _registry, collector, _events = observed_run
        names = set(collector.names())
        assert {"stage.rank", "stage.dns", "stage.prefix", "stage.rpki"} <= names
        assert "study.run" in names

    def test_stage_spans_nest_under_study_run(self, observed_run):
        _result, _registry, collector, _events = observed_run
        run = collector.spans("study.run")[0]
        rank = collector.spans("stage.rank")[0]
        assert rank.parent_id == run.span_id
        assert all(
            span.duration <= run.duration
            for span in collector.spans("stage.dns")
        )

    def test_timing_report_renders(self, observed_run):
        _result, _registry, collector, _events = observed_run
        report = stage_timing_report(collector)
        assert "stage.dns" in report
        assert "study.run" in report


@pytest.fixture(scope="module")
def world_600():
    return WebEcosystem.build(EcosystemConfig(domain_count=600, seed=2015))


def _counts(collector) -> dict:
    return {name: s.count for name, s in collector.aggregate().items()}


class TestExactStageTable:
    """The stage table counts every span, however few records are kept."""

    BOUND = 50  # records per name, far below a 600-domain run's spans

    def _observed(self, world, config=None):
        collector = TraceCollector(max_per_name=self.BOUND)
        with obs.scope(trace_collector=collector):
            result = MeasurementStudy.from_ecosystem(world).run(config=config)
        return result, collector

    def test_counts_every_stage_span_past_the_record_bound(self, world_600):
        result, collector = self._observed(world_600)
        forms = [
            form
            for measurement in result
            for form in (measurement.www, measurement.plain)
        ]
        with_addresses = sum(
            1 for form in forms if form.resolved and form.addresses
        )
        stats = collector.aggregate()
        assert stats["stage.dns"].count == len(forms) == 1200
        assert stats["stage.prefix"].count == with_addresses
        assert stats["stage.rpki"].count == with_addresses
        assert stats["study.run"].count == stats["stage.rank"].count == 1
        assert len(collector.spans("stage.dns")) == self.BOUND
        (run,) = collector.spans("study.run")
        assert run.duration >= stats["stage.dns"].max

        report = stage_timing_report(collector)
        rows = {line.split()[0]: line.split() for line in report.splitlines()}
        assert rows["study.run"][1] == "1"
        assert rows["stage.dns"][1] == "1200"
        assert f"{collector.dropped} of {collector.seen} span records" in report
        assert "dropped" not in report

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_counts_equal_across_backends(self, world_600, mode):
        plain, plain_collector = self._observed(world_600)
        sharded, collector = self._observed(
            world_600, RunConfig(workers=2, mode=mode, shard_size=100)
        )
        assert sharded == plain
        counts = _counts(collector)
        assert counts.pop("shard.run") == 6
        assert counts == _counts(plain_collector)
        assert len(collector.spans("stage.dns")) == self.BOUND


class TestProgressThroughPipeline:
    def test_cadence_and_final_event(self, observed_run, small_world):
        result, _registry, _collector, events = observed_run
        total = len(small_world.ranking)
        expected_strides = total // 250
        # Stride events plus exactly one finished event.
        assert len(events) == expected_strides + 1
        assert events[-1].finished
        assert events[-1].count == total == len(result)
        counts = [event.count for event in events]
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
