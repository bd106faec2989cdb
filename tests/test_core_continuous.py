"""Tests for continuous-measurement acceleration and hosting churn."""

import pytest

from repro import obs
from repro.core import CacheConfig, MeasurementStudy, RunConfig
from repro.core.continuous import (
    REFRESH_CARRYOVER_METRIC,
    REFRESH_QUERIES_METRIC,
    ContinuousStudy,
    compare_results,
)
from repro.faults import FaultPlan
from repro.web import EcosystemConfig, WebEcosystem


@pytest.fixture()
def world():
    """A private (mutable!) world — churn must not touch the shared
    session fixture."""
    return WebEcosystem.build(
        EcosystemConfig(domain_count=600, seed=11, hoster_count=80)
    )


class TestChurn:
    def test_rehost_changes_resolution(self, world):
        resolver = world.resolvers()[0]
        before = {
            d.name: [str(a) for a in resolver.resolve(d.name).addresses]
            for d in world.ranking
        }
        changed = world.rehost(0.2)
        assert len(changed) == 120
        moved = 0
        for name in changed:
            after = [str(a) for a in resolver.resolve(name).addresses]
            if after != before[name]:
                moved += 1
        # Random re-assignment occasionally lands on the same host;
        # the overwhelming majority must move.
        assert moved > len(changed) * 0.8

    def test_rehost_preserves_unchanged_domains(self, world):
        resolver = world.resolvers()[0]
        before = {
            d.name: [str(a) for a in resolver.resolve(d.name).addresses]
            for d in world.ranking
        }
        changed = set(world.rehost(0.1))
        for domain in world.ranking:
            if domain.name in changed:
                continue
            after = [str(a) for a in resolver.resolve(domain.name).addresses]
            assert after == before[domain.name], domain.name

    def test_rehost_deterministic(self):
        a = WebEcosystem.build(EcosystemConfig(domain_count=300, seed=5))
        b = WebEcosystem.build(EcosystemConfig(domain_count=300, seed=5))
        assert a.rehost(0.1) == b.rehost(0.1)

    def test_rehost_validates_fraction(self, world):
        with pytest.raises(ValueError):
            world.rehost(1.5)

    def test_ground_truth_updated(self, world):
        changed = world.rehost(0.3, generation=2)
        for name in changed:
            assert name in world.hosting.ground_truth


class TestContinuousStudy:
    def test_refresh_without_baseline_rejected(self, world):
        continuous = ContinuousStudy(MeasurementStudy.from_ecosystem(world))
        with pytest.raises(RuntimeError):
            continuous.refresh()

    def test_steady_state_saves_queries_with_zero_staleness(self, world):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        continuous.baseline()
        result, stats = continuous.refresh()  # nothing changed
        assert stats.www_carried_over > stats.www_measured
        assert stats.saving_fraction > 0.3
        full = study.run()
        report = compare_results(result, full)
        assert report.stale_fraction == 0.0

    def test_churned_world_mostly_caught(self, world):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        continuous.baseline()
        changed = set(world.rehost(0.15))
        result, stats = continuous.refresh()
        full = study.run()
        report = compare_results(result, full)
        # Moves are detected via the apex answer, which churn changes
        # alongside www; staleness stays small.
        assert report.stale_fraction < 0.02
        assert stats.www_measured >= 1
        # Changed-and-caught domains carry fresh www data.
        fresh = 0
        for name in changed:
            incremental = result.lookup(name)
            truth = full.lookup(name)
            if set(incremental.www.pairs) == set(truth.www.pairs):
                fresh += 1
        assert fresh / max(len(changed), 1) > 0.95

    def test_second_refresh_uses_first_as_prior(self, world):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        continuous.baseline()
        world.rehost(0.1)
        continuous.refresh()
        world.rehost(0.1, generation=2)
        result, stats = continuous.refresh()
        full = study.run()
        assert compare_results(result, full).stale_fraction < 0.02
        assert stats.apex_measured == len(world.ranking)

    def test_refresh_honours_the_fault_plan(self, world):
        """An unchanged world refreshes to exactly its fault-run baseline."""
        study = MeasurementStudy.from_ecosystem(world)
        config = RunConfig(faults=FaultPlan.from_profile("flaky", seed=2015))
        continuous = ContinuousStudy(study, config)
        baseline = continuous.baseline()
        assert baseline.statistics.degraded_domains > 0
        result, stats = continuous.refresh()
        assert list(result) == list(baseline)
        assert result.statistics == baseline.statistics
        assert stats.apex_measured == len(world.ranking)

    def test_refresh_computes_each_distinct_address_once(self, world, calls):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        baseline = continuous.baseline()
        world.rehost(0.1)
        calls.update(addresses=0, pairs=0)
        result, stats = continuous.refresh()
        forms = [m.plain for m in result] + [
            m.www for m in result
            if m.www is not baseline.lookup(m.domain.name).www
        ]
        assert len(forms) == stats.total_queries
        addresses = {a for form in forms if form.resolved for a in form.addresses}
        pairs = {(p.prefix, p.origin) for form in forms for p in form.pairs}
        assert calls == {"addresses": len(addresses), "pairs": len(pairs)}
        # Repeats exist, so the memo is doing something.
        assert sum(len(form.addresses) for form in forms) > len(addresses)

    def test_statistics_track_current_state(self, world):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        baseline = continuous.baseline()
        result, _stats = continuous.refresh()
        assert result.statistics.domain_count == baseline.statistics.domain_count
        assert result.statistics.plain_addresses > 0


class TestRefreshMetrics:
    def test_refresh_ticks_work_counters(self, world):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        continuous.baseline()
        with obs.scope() as (registry, _collector):
            _result, stats = continuous.refresh()
        queries = registry.get(REFRESH_QUERIES_METRIC)
        carried = registry.get(REFRESH_CARRYOVER_METRIC)
        assert queries is not None and carried is not None
        assert queries.value == stats.total_queries
        assert carried.value == stats.total_carried
        assert stats.total_queries == stats.apex_measured + stats.www_measured
        # Heuristic refreshes re-measure every apex, so only www forms
        # can be carried over.
        assert stats.apex_carried_over == 0
        assert stats.apex_measured == len(world.ranking)

    def test_counters_accumulate_across_campaigns(self, world):
        study = MeasurementStudy.from_ecosystem(world)
        continuous = ContinuousStudy(study)
        continuous.baseline()
        with obs.scope() as (registry, _collector):
            _result, first = continuous.refresh()
            world.rehost(0.1, generation=1)
            _result, second = continuous.refresh()
        queries = registry.get(REFRESH_QUERIES_METRIC)
        assert queries.value == first.total_queries + second.total_queries

    def test_cached_refresh_exact_with_cache_accounting(self, world, tmp_path):
        study = MeasurementStudy.from_ecosystem(world)
        config = RunConfig(cache=CacheConfig(str(tmp_path)))
        continuous = ContinuousStudy(study, config)
        continuous.baseline()
        world.rehost(0.1, generation=1)
        result, stats = continuous.refresh()
        # Cache-backed refreshes carry forms over exactly — zero
        # staleness against a full re-run, unlike the heuristic.
        full = study.run()
        assert compare_results(result, full).stale_fraction == 0.0
        assert stats.apex_carried_over > 0
        assert stats.www_carried_over > 0
        assert stats.total_queries > 0
        # Every name form is either re-measured or carried over.
        forms = stats.total_queries + stats.total_carried
        assert forms == 2 * len(world.ranking)
        assert 0.0 < stats.saving_fraction < 1.0
