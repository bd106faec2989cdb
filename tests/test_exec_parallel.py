"""The sharded study executor: planning, merging, and equivalence.

The contract under test is the tentpole guarantee: a parallel run is
bit-identical to the serial run — same measurement order, same
statistics, same funnel counters in the merged registry.
"""

import dataclasses

import pytest

from repro import obs
from repro.core import CacheConfig, MeasurementStudy, RunConfig, pipeline_statistics
from repro.core.pipeline import StudyStatistics
from repro.faults import FaultPlan
from repro.web import EcosystemConfig, WebEcosystem
from repro.exec import (
    MODES,
    Shard,
    ShardOutcome,
    decode_measurements,
    decode_statistics,
    default_shard_size,
    encode_measurements,
    encode_statistics,
    execute_study,
    merge_statistics,
    plan_shards,
    run_shard,
)
from repro.web.alexa import AlexaRanking, Domain


def _domains(count):
    return [Domain(rank=i + 1, name=f"site{i + 1}.example") for i in range(count)]


class TestShardPlanning:
    def test_contiguous_rank_chunks(self):
        shards = plan_shards(_domains(10), shard_size=4)
        assert [len(s) for s in shards] == [4, 4, 2]
        assert [s.index for s in shards] == [0, 1, 2]
        assert [(s.start_rank, s.end_rank) for s in shards] == [
            (1, 4), (5, 8), (9, 10),
        ]

    def test_plan_preserves_order_exactly(self):
        domains = _domains(23)
        shards = plan_shards(domains, shard_size=5)
        flattened = [d for s in shards for d in s.domains]
        assert flattened == domains

    def test_single_shard_when_size_covers_all(self):
        shards = plan_shards(_domains(5), shard_size=100)
        assert len(shards) == 1
        assert len(shards[0]) == 5

    def test_empty_ranking_plans_no_shards(self):
        assert plan_shards([], shard_size=10) == []

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            plan_shards(_domains(4), shard_size=0)

    def test_default_size_scales_with_workers(self):
        # 4 workers x several shards each, never above the cap.
        size = default_shard_size(100_000, workers=4)
        assert 1 <= size <= 5_000
        assert default_shard_size(100, workers=4) < default_shard_size(100, 1)
        assert default_shard_size(0, workers=4) == 1


class TestMergeStatistics:
    def test_fields_sum(self):
        a = StudyStatistics(domain_count=3, www_addresses=5, plain_pairs=2)
        b = StudyStatistics(domain_count=4, www_addresses=1, plain_pairs=9,
                            as_set_exclusions=1)
        merged = merge_statistics([a, b])
        assert merged.domain_count == 7
        assert merged.www_addresses == 6
        assert merged.plain_pairs == 11
        assert merged.as_set_exclusions == 1

    def test_merge_of_nothing_is_zero(self):
        assert merge_statistics([]) == StudyStatistics()

    def test_every_field_merges_and_crosses_the_wire(self):
        """Guard for the sharded path: a field added to the dataclass
        must be summed by the merge and carried by the codec — dropped
        there, its count would be wrong on parallel runs only."""
        for spec in dataclasses.fields(StudyStatistics):
            is_mapping = isinstance(getattr(StudyStatistics(), spec.name), dict)
            low = {"both": 2, "only_low": 1} if is_mapping else 2
            high = {"both": 3} if is_mapping else 3
            total = {"both": 5, "only_low": 1} if is_mapping else 5
            a = StudyStatistics(**{spec.name: low})
            b = StudyStatistics(**{spec.name: high})
            merged = merge_statistics([a, b])
            assert merged == StudyStatistics(**{spec.name: total}), spec.name
            for stats in (a, b, merged):
                wire = encode_statistics(stats)
                assert decode_statistics(wire) == stats, spec.name
                assert len(wire) == len(dataclasses.fields(StudyStatistics))


@pytest.fixture(scope="module")
def study(small_world):
    return MeasurementStudy.from_ecosystem(small_world)


@pytest.fixture(scope="module")
def serial_baseline(study):
    """Serial run plus its registry, the reference for equivalence."""
    with obs.scope() as (registry, _collector):
        result = study.run()
    return result, registry


def _funnel_snapshot(registry):
    """Every ripki_* series the merged registry must reproduce."""
    return {
        name: entry
        for name, entry in registry.snapshot().items()
        if name.startswith("ripki_")
    }


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_workers4_matches_serial(self, study, serial_baseline, mode):
        serial, serial_registry = serial_baseline
        with obs.scope() as (registry, collector):
            parallel = study.run(config=RunConfig(workers=4, mode=mode))
            cross = pipeline_statistics(parallel, registry=registry)
        assert parallel == serial
        assert list(parallel) == list(serial)
        assert parallel.statistics == serial.statistics
        assert cross == pipeline_statistics(serial, registry=serial_registry)
        assert _funnel_snapshot(registry) == _funnel_snapshot(serial_registry)
        assert len(collector) > 0

    def test_shard_size_does_not_change_the_result(self, study, serial_baseline):
        serial, _ = serial_baseline
        for shard_size in (1, 7, 500, 10_000):
            assert study.run(config=RunConfig(
                workers=2, mode="thread", shard_size=shard_size,
            )) == serial

    def test_measurement_order_is_rank_order(self, study, serial_baseline):
        serial, _ = serial_baseline
        parallel = study.run(config=RunConfig(workers=3, mode="thread"))
        assert [m.rank for m in parallel] == [m.rank for m in serial]

    def test_disabled_observability_still_equal(self, study, serial_baseline):
        serial, _ = serial_baseline
        assert not obs.observability_enabled()
        assert study.run(config=RunConfig(workers=2, mode="thread")) == serial


class TestWireCodec:
    """The compact shard-result form used on the process-pool path."""

    def _measure(self, study, small_world, count=25):
        shard = Shard(index=0, domains=tuple(small_world.ranking.top(count)))
        return run_shard(study, shard, observe=False).measurements

    def test_round_trip_is_exact(self, study, small_world):
        measurements = self._measure(study, small_world)
        domains = [m.domain for m in measurements]
        decoded = decode_measurements(encode_measurements(measurements), domains)
        assert decoded == measurements
        for original, copy in zip(measurements, decoded):
            assert copy.www.pairs == original.www.pairs
            assert copy.plain.addresses == original.plain.addresses
            assert copy.www.cname_count == original.www.cname_count

    def test_decode_reattaches_caller_domain_objects(self, study, small_world):
        measurements = self._measure(study, small_world, count=5)
        domains = [m.domain for m in measurements]
        decoded = decode_measurements(encode_measurements(measurements), domains)
        for copy, domain in zip(decoded, domains):
            assert copy.domain is domain

    def test_wire_form_is_primitives_only(self, study, small_world):
        # Everything on the wire must be builtin scalars/containers, so
        # pickling never falls back to per-object reduce machinery.
        def flatten(value):
            # exact types: an Address/Prefix is a tuple *subclass* and
            # must surface as a leaf (and fail) if it ever leaks through
            if type(value) in (tuple, list):
                for item in value:
                    yield from flatten(item)
            else:
                yield value

        encoded = encode_measurements(self._measure(study, small_world))
        assert all(
            isinstance(leaf, (str, bool, int))
            for leaf in flatten(encoded)
        )

    def test_equal_values_share_one_row(self, study, small_world):
        """Pickle's memo then ships each distinct row once."""
        measurements = self._measure(study, small_world, count=200)
        encoded = encode_measurements(measurements)
        rows, occurrences = {}, 0
        for measurement, wire in zip(measurements, encoded):
            for form, (_n, _r, addresses, *_, pairs, _d, _t, _f) in zip(
                (measurement.www, measurement.plain), wire
            ):
                values = form.addresses + form.pairs
                for value, row in zip(values, addresses + pairs):
                    rows.setdefault(value, set()).add(id(row))
                    occurrences += 1
        assert occurrences > len(rows)
        assert all(len(ids) == 1 for ids in rows.values())

    def test_length_mismatch_rejected(self, study, small_world):
        measurements = self._measure(study, small_world, count=3)
        encoded = encode_measurements(measurements)
        with pytest.raises(ValueError):
            decode_measurements(encoded, [measurements[0].domain])

    def test_empty_round_trip(self):
        assert decode_measurements(encode_measurements([]), []) == []


class TestProcessResultSharing:
    def test_one_object_per_distinct_value(self, study, serial_baseline):
        """Every shard decodes through the run's one intern table, so
        the parent holds each address and pair once, as serial does."""
        serial, _ = serial_baseline
        result = study.run(config=RunConfig(workers=2, mode="process"))
        assert result == serial
        forms = [form for m in result for form in (m.www, m.plain)]
        addresses = [a for form in forms for a in form.addresses]
        pairs = [pair for form in forms for pair in form.pairs]
        assert len(set(addresses)) < len(addresses)
        assert len(set(pairs)) < len(pairs)
        assert len({id(a) for a in addresses}) == len(set(addresses))
        assert len({id(pair) for pair in pairs}) == len(set(pairs))


class TestExecutorPlumbing:
    def test_rejects_unknown_mode(self, study):
        with pytest.raises(ValueError):
            RunConfig(workers=2, mode="fibers")
        assert set(MODES) == {
            "auto", "serial", "thread", "process", "workers"
        }

    def test_run_shard_records_only_its_share(self, study, small_world):
        shard = Shard(index=0, domains=tuple(small_world.ranking.top(10)))
        outcome = run_shard(study, shard, observe=True)
        assert isinstance(outcome, ShardOutcome)
        assert outcome.statistics.domain_count == 10
        assert len(outcome.measurements) == 10
        # Stage counters only: one step-3 lookup per address use.  The
        # funnel families are written once, after the merge.
        lookups = outcome.metrics.get("ripki_prefix_lookups_total")
        assert lookups.value == outcome.statistics.total_addresses > 0
        assert outcome.metrics.get("ripki_domains_measured_total") is None
        assert any(span.name == "shard.run" for span in outcome.spans)

    def test_worker_scopes_leave_caller_registry_clean(self, study, small_world):
        # A shard run with observe=True must not leak a single tick
        # into the caller's active registry.
        with obs.scope() as (registry, _collector):
            shard = Shard(index=0, domains=tuple(small_world.ranking.top(5)))
            run_shard(study, shard, observe=True)
            assert len(registry) == 0

    def test_progress_receives_batched_shard_ticks(self, study, small_world):
        events = []
        reporter = obs.ProgressReporter(
            total=len(small_world.ranking), callback=events.append,
            every=100, min_interval=-1,
        )
        study.run(config=RunConfig(
            progress=reporter, workers=2, mode="thread", shard_size=150,
        ))
        assert events[-1].finished
        assert events[-1].count == len(small_world.ranking)
        # shard completions arrive 150 at a time and still fire the
        # every=100 stride despite never landing on a multiple of 100
        assert len(events) > 1

    def test_traces_are_grafted_under_the_run(self, study, small_world):
        with obs.scope() as (_registry, collector):
            study.run(config=RunConfig(workers=2, mode="thread", shard_size=500))
        roots = [s for s in collector.spans("study.run")]
        assert len(roots) == 1
        shard_spans = collector.spans("shard.run")
        assert shard_spans
        assert {s.parent_id for s in shard_spans} == {roots[0].span_id}
        ids = [s.span_id for s in collector.spans()]
        assert len(ids) == len(set(ids))


# -- cache x backend equivalence matrix ---------------------------------------


@pytest.fixture(scope="module")
def matrix_study():
    """A private world so cached runs never touch the shared fixture."""
    world = WebEcosystem.build(
        EcosystemConfig(domain_count=300, seed=11, hoster_count=50, eyeball_count=25)
    )
    return MeasurementStudy.from_ecosystem(world)


def _matrix_faults():
    return FaultPlan.from_profile("flaky", seed=7)


@pytest.fixture(scope="module")
def matrix_references(matrix_study):
    """The uncached serial runs every matrix cell must reproduce."""
    return {
        False: matrix_study.run(),
        True: matrix_study.run(config=RunConfig(faults=_matrix_faults())),
    }


def _no_cache_stats(stats):
    clone = dataclasses.replace(stats)
    clone.cache_hits_by_stage = {}
    clone.cache_misses_by_stage = {}
    clone.cache_invalidated_by_stage = {}
    return clone


class TestEquivalenceMatrix:
    """{serial, thread, process} x {cold, warm} x {faults on, off}.

    Every cell must reproduce the uncached serial reference exactly;
    the warm cell must additionally re-measure nothing, with faults
    on or off.
    """

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_cell_matches_uncached_serial_reference(
        self, matrix_study, matrix_references, tmp_path, mode, faulted
    ):
        reference = matrix_references[faulted]
        config = RunConfig(
            workers=1 if mode == "serial" else 2,
            mode=mode,
            faults=_matrix_faults() if faulted else None,
            cache=CacheConfig(str(tmp_path)),
        )
        cold = matrix_study.run(config=config)
        warm = matrix_study.run(config=config)
        for cached_run in (cold, warm):
            assert list(cached_run) == list(reference)
            assert _no_cache_stats(cached_run.statistics) == reference.statistics
            # The fold over the measurements equals the shard merge.
            assert StudyStatistics.from_measurements(
                list(cached_run)
            ) == _no_cache_stats(cached_run.statistics)
        assert cold.statistics.cache_misses_total > 0
        assert warm.statistics.cache_hits_total > 0
        # A degraded form does no work for the stage it lost, so a warm
        # fault run recomputes nothing either.
        assert warm.statistics.cache_misses_by_stage == {}

    def test_warm_metric_exposition_matches_uncached(
        self, matrix_study, tmp_path
    ):
        with obs.scope() as (reference_registry, _collector):
            reference = matrix_study.run()
            pipeline_statistics(reference, registry=reference_registry)
        config = RunConfig(
            workers=2, mode="thread", cache=CacheConfig(str(tmp_path))
        )
        matrix_study.run(config=config)  # cold fill, unobserved
        with obs.scope() as (warm_registry, _collector):
            warm = matrix_study.run(config=config)
            pipeline_statistics(warm, registry=warm_registry)

        def strip(text):
            return "\n".join(
                line
                for line in text.splitlines()
                if "ripki_cache_" not in line
            )

        assert strip(warm_registry.render_prometheus()) == strip(
            reference_registry.render_prometheus()
        )
