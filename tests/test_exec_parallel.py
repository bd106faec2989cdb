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
from repro.errors import ReproError
from repro.exec.codec import WireError
from repro.net import NetError
from repro.faults import FaultPlan
from repro.web import EcosystemConfig, WebEcosystem
from repro.exec import (
    MODES,
    Shard,
    ShardOutcome,
    decode_measurements,
    decode_name,
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


# -- hostile wire rows ---------------------------------------------------------
#
# The codec's rows come from a pipe, a socket or a job frame.  A value
# row is refused by the value type it would build; the codec refuses
# what no value type owns (counts, ``resolved``, the degraded stage,
# fault and statistics tallies) with WireError.

GOOD_ADDRESS = [4, 0x0A000001]
GOOD_PAIR = [4, 0x0A000000, 8, 64500, "valid"]

HOSTILE_ROWS = {
    "pair-host-bits-below-length": {"pair": [4, 0x0A000001, 8, 64500, "valid"]},
    "pair-family-5": {"pair": [5, 0x0A000000, 8, 64500, "valid"]},
    "pair-negative-value": {"pair": [4, -(1 << 24), 8, 64500, "valid"]},
    "pair-value-over-128-bits": {"pair": [6, 1 << 128, 0, 64500, "valid"]},
    "pair-length-over-family-bits": {"pair": [4, 0, 33, 64500, "valid"]},
    "address-out-of-range": {"address": [4, 1 << 32]},
    "address-negative": {"address": [6, -1]},
    "address-family-5": {"address": [5, 1]},
    # Exact ints only: a bool or float equals an int row and would
    # otherwise decode to (or intern as) a value it is not.
    "address-value-bool": {"address": [4, True]},
    "address-value-float": {"address": [4, 1.0]},
    "address-family-float": {"address": [4.0, 1]},
    "pair-value-bool": {"pair": [4, False, 8, 64500, "valid"]},
    "pair-value-float": {"pair": [4, 0.0, 0, 64500, "valid"]},
    "pair-length-bool": {"pair": [4, 0, False, 64500, "valid"]},
    "pair-origin-float": {"pair": [4, 0x0A000000, 8, 1.5, "valid"]},
    "pair-origin-bool": {"pair": [4, 0x0A000000, 8, True, "valid"]},
}

HOSTILE_STATES = {
    "state-unknown": {"pair": [4, 0x0A000000, 8, 64500, "bogus"]},
    "state-not-text": {"pair": [4, 0x0A000000, 8, 64500, 1]},
    "state-list": {"pair": [4, 0x0A000000, 8, 64500, ["valid"]]},
}

GOOD_NAME = ["example.com", True, [], 0, 0, 0, 0, [], "", 0, []]
_NAME_FIELDS = (
    "name", "resolved", "addresses", "excluded_special",
    "unreachable_addresses", "as_set_excluded", "cname_count", "pairs",
    "degraded_stage", "retries", "faults",
)


def _name_row(**changes) -> list:
    row = dict(zip(_NAME_FIELDS, GOOD_NAME))
    row.update(changes)
    return list(row.values())


HOSTILE_NAMES = {
    # Both decoded to a NameMeasurement before the codec checked counts.
    "found-counts-bool-and-float": (
        "a.com", 1, [], 0.5, True, 0, 2.0, [], "", 1.5, []
    ),
    "found-bad-stage-negative-retries-fault": (
        "a.com", True, [], 0, 0, 0, 0, [], "bogus-stage", -3, [(5, "x")]
    ),
    "name-not-text": _name_row(name=7),
    "resolved-int": _name_row(resolved=1),
    "resolved-text": _name_row(resolved="true"),
    "excluded-float": _name_row(excluded_special=1.0),
    "excluded-negative": _name_row(excluded_special=-1),
    "unreachable-bool": _name_row(unreachable_addresses=True),
    "as-set-float": _name_row(as_set_excluded=0.0),
    "cnames-negative": _name_row(cname_count=-2),
    "retries-bool": _name_row(retries=False),
    "stage-unknown": _name_row(degraded_stage="rpki"),
    "stage-none": _name_row(degraded_stage=None),
    "fault-count-zero": _name_row(faults=[["dns.timeout", 0]]),
    "fault-count-float": _name_row(faults=[["dns.timeout", 1.0]]),
    "fault-count-bool": _name_row(faults=[["dns.timeout", True]]),
    "fault-kind-not-text": _name_row(faults=[[5, 1]]),
}


def _statistics_wire(**changes) -> list:
    stats = StudyStatistics(domain_count=3, faults_by_kind={"dns.timeout": 2})
    wire = dict(zip(
        (field.name for field in dataclasses.fields(StudyStatistics)),
        encode_statistics(stats),
    ))
    wire.update(changes)
    return list(wire.values())


HOSTILE_STATISTICS = {
    # All three decoded and would have merged.
    "counter-float": _statistics_wire(domain_count=1.5),
    "counter-bool": _statistics_wire(invalid_dns_domains=True),
    "tally-float": _statistics_wire(faults_by_kind=[["k", 2.5]]),
    "counter-negative": _statistics_wire(retries_total=-1),
    "counter-text": _statistics_wire(www_pairs="3"),
    "tally-bool": _statistics_wire(cache_hits_by_stage=[["dns.www", True]]),
    "tally-negative": _statistics_wire(cache_misses_by_stage=[["rpki", -4]]),
    "tally-key-not-text": _statistics_wire(faults_by_kind=[[1, 2]]),
    "short": _statistics_wire()[:-1],
}


def value_row_wire(address=GOOD_ADDRESS, pair=GOOD_PAIR) -> list:
    """One domain's ``encode_measurements`` form around the two rows."""
    name = ["example.com", True, [address], 0, 0, 0, 0, [pair], "", 0, []]
    return [[name, name]]


class TestHostileWireRows:
    domains = (Domain(rank=1, name="example.com"),)

    def test_well_formed_rows_decode(self):
        (measurement,) = decode_measurements(value_row_wire(), self.domains)
        assert tuple(measurement.www.addresses[0]) == tuple(GOOD_ADDRESS)
        assert tuple(measurement.www.pairs[0].prefix) == tuple(GOOD_PAIR[:3])
        assert decode_name(_name_row(
            faults=[["dns.timeout", 2]], degraded_stage="dns", retries=1
        )).faults == (("dns.timeout", 2),)
        assert decode_statistics(_statistics_wire()) == StudyStatistics(
            domain_count=3, faults_by_kind={"dns.timeout": 2}
        )

    @pytest.mark.parametrize("case", sorted(HOSTILE_ROWS))
    def test_codec_raises_typed_net_error(self, case):
        with pytest.raises(NetError):
            decode_measurements(
                value_row_wire(**HOSTILE_ROWS[case]), self.domains
            )

    @pytest.mark.parametrize("case", sorted(HOSTILE_STATES))
    def test_codec_raises_typed_error_on_unknown_state(self, case):
        with pytest.raises(ReproError):
            decode_measurements(
                value_row_wire(**HOSTILE_STATES[case]), self.domains
            )

    @pytest.mark.parametrize("case", ["address-value-bool", "pair-origin-bool"])
    def test_hostile_row_does_not_resolve_to_an_earlier_equal_row(self, case):
        """A run's intern table is keyed on row values, and ``True ==
        1``: a bool row after a good int row must still be refused."""
        good = {"address": [4, 1], "pair": [4, 0x0A000000, 8, 1, "valid"]}
        (kind, hostile), = HOSTILE_ROWS[case].items()
        table: dict = {}
        decode_measurements(
            value_row_wire(**{kind: good[kind]}), self.domains, table
        )
        with pytest.raises(NetError):
            decode_measurements(
                value_row_wire(**{kind: hostile}), self.domains, table
            )

    @pytest.mark.parametrize("case", sorted(HOSTILE_NAMES))
    def test_hostile_name_row_raises_wire_error(self, case):
        with pytest.raises(WireError):
            decode_name(HOSTILE_NAMES[case])

    @pytest.mark.parametrize("case", sorted(HOSTILE_STATISTICS))
    def test_hostile_statistics_raise_wire_error(self, case):
        with pytest.raises(WireError):
            decode_statistics(HOSTILE_STATISTICS[case])


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
