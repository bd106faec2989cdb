"""Unit tests for the serving layer's request/response machinery.

Covers the pieces the differential and concurrency suites treat as
given: query/config validation, batch planning, script parsing, the
seeded load generator, the *pinned* fault-degradation schedule, warm
and cold cache loads, and the response summaries.
"""

import pytest

from repro.bgp.aspath import ASPath
from repro.bgp.collector import TableDumpEntry
from repro.core import MeasurementStudy
from repro.core.pipeline import RunConfig
from repro.exec import Batch, plan_batches
from repro.faults import SERVE_STALE, FaultPlan
from repro.net import ASN, Address, Prefix, PrefixTrie
from repro.obs import MetricsRegistry, TraceCollector, scope, serve_report
from repro.rpki.vrp import OriginValidation, VRP, ValidatedPayloads
from repro.serve import (
    SERVE_DEGRADED_METRIC,
    SERVE_FAULTS_METRIC,
    LoadProfile,
    Query,
    QueryError,
    QueryService,
    Response,
    ServeConfig,
    ServingIndex,
    generate_load,
    parse_query,
    parse_script,
    summarize_responses,
)
from repro.web import EcosystemConfig, WebEcosystem


def P(text):
    return Prefix.parse(text)


def A(text):
    return Address.parse(text)


def synthetic_index():
    """A hand-built index: no world, just VRPs and routes."""
    payloads = ValidatedPayloads(
        [
            VRP(P("10.0.0.0/16"), 24, ASN(64500), "test"),
            VRP(P("10.0.0.0/8"), 8, ASN(64501), "test"),
        ]
    )
    routes = PrefixTrie()
    rows = [
        TableDumpEntry(P("10.0.0.0/16"), ASPath.of(3320, 64500), ASN(3320)),
        TableDumpEntry(P("10.0.0.0/16"), ASPath.of(1299, 64502), ASN(1299)),
        TableDumpEntry(
            P("10.0.0.0/16"), ASPath.parse("3320 {64500,64501}"), ASN(3320)
        ),
        TableDumpEntry(P("10.0.0.0/8"), ASPath.of(3320, 64501), ASN(3320)),
    ]
    for row in rows:
        routes.insert(row.prefix, row)
    return ServingIndex(payloads, routes, [], route_count=len(rows))


@pytest.fixture(scope="module")
def small_study():
    world = WebEcosystem.build(EcosystemConfig(domain_count=120, seed=11))
    return MeasurementStudy.from_ecosystem(world)


@pytest.fixture(scope="module")
def small_index(small_study):
    return ServingIndex.build(small_study, small_study.run())


class TestQueryValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            Query(kind="resolve", name="example.com")

    def test_missing_fields_rejected(self):
        with pytest.raises(QueryError):
            Query(kind="validate", prefix=P("10.0.0.0/24"))
        with pytest.raises(QueryError):
            Query(kind="lookup")
        with pytest.raises(QueryError):
            Query(kind="rank_slice", first=1)

    def test_empty_rank_slice_rejected(self):
        with pytest.raises(QueryError):
            Query.rank_slice(10, 9)

    def test_validate_coerces_int_origin(self):
        query = Query.validate(P("10.0.0.0/24"), 64500)
        assert query.origin == ASN(64500)

    def test_keys_are_canonical(self):
        assert (
            Query.validate(P("10.0.0.0/24"), 64500).key()
            == "validate|10.0.0.0/24|64500"
        )
        assert Query.lookup(A("192.0.2.1")).key() == "lookup|192.0.2.1"
        assert Query.domain("example.com").key() == "domain|example.com"
        assert Query.rank_slice(1, 100).key() == "rank_slice|1|100"


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(mode="fork")
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(simulated_io_s=-0.1)

    def test_auto_mode_resolution(self):
        assert ServeConfig().resolved_mode == "serial"
        assert ServeConfig(workers=4).resolved_mode == "thread"
        assert ServeConfig(workers=4, mode="serial").resolved_mode == "serial"


class TestPlanBatches:
    def test_batches_are_contiguous_and_ordered(self):
        items = list(range(103))
        batches = plan_batches(items, batch_size=10)
        assert [b.index for b in batches] == list(range(len(batches)))
        reassembled = [item for b in batches for item in b.items]
        assert reassembled == items
        assert all(len(b) <= 10 for b in batches)
        offsets = [b.offset for b in batches]
        assert offsets == sorted(offsets)

    def test_empty_input(self):
        assert plan_batches([], batch_size=10) == []

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            plan_batches([1], batch_size=0)

    def test_worker_driven_sizing(self):
        batches = plan_batches(list(range(100)), workers=4)
        assert len(batches) >= 4
        assert isinstance(batches[0], Batch)


class TestScriptParsing:
    def test_all_kinds(self):
        script = """
        # exercising every kind
        validate 93.184.216.0/24 64500
        lookup 93.184.216.34   # trailing comment
        domain example.com
        rank_slice 1 100
        """
        queries = parse_script(script)
        assert [q.kind for q in queries] == [
            "validate", "lookup", "domain", "rank_slice",
        ]
        assert queries[0].prefix == P("93.184.216.0/24")
        assert queries[1].address == A("93.184.216.34")

    def test_errors_carry_line_numbers(self):
        with pytest.raises(QueryError, match="line 2"):
            parse_script("domain ok.example\nvalidate nonsense")

    def test_bad_arity_and_unknown_kind(self):
        with pytest.raises(QueryError):
            parse_query("validate 10.0.0.0/24")
        with pytest.raises(QueryError):
            parse_query("resolve example.com")
        with pytest.raises(QueryError):
            parse_query("lookup not-an-ip")


class TestLoadgen:
    def test_same_seed_same_stream(self, small_index):
        profile = LoadProfile(queries=500, seed=77)
        assert generate_load(small_index, profile) == generate_load(
            small_index, profile
        )

    def test_different_seed_differs(self, small_index):
        a = generate_load(small_index, LoadProfile(queries=500, seed=77))
        b = generate_load(small_index, LoadProfile(queries=500, seed=78))
        assert a != b

    def test_zipf_skews_towards_head(self, small_index):
        queries = [
            query
            for query in generate_load(
                small_index, LoadProfile(queries=8_000, seed=77)
            )
            if query.kind == "domain"
        ]
        head = small_index.measurements[0].domain.name
        tail = small_index.measurements[-1].domain.name
        head_hits = sum(1 for q in queries if q.name == head)
        tail_hits = sum(1 for q in queries if q.name == tail)
        assert head_hits > tail_hits

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LoadProfile(queries=-1)
        with pytest.raises(ValueError):
            LoadProfile(zipf_exponent=0)


# Computed once from FaultPlan.from_profile("degraded", seed=99) over
# the fixed query keys below; hard-coded so any drift in the fault
# hash, the profile rates, or the marker mapping fails loudly.
PINNED_MARKERS = [
    "", "stale", "stale", "", "", "", "", "", "", "",
    "", "stale", "degraded", "", "stale", "stale", "", "", "", "",
    "", "", "", "", "degraded", "", "degraded", "stale", "", "",
    "stale", "", "", "", "", "", "", "", "degraded", "stale",
]


class TestPinnedDegradationSchedule:
    @staticmethod
    def fixed_queries():
        return [
            Query.validate(P(f"10.0.{i}.0/24"), 64500 + i)
            for i in range(40)
        ]

    def service(self, **overrides):
        config = ServeConfig(
            faults=FaultPlan.from_profile("degraded", seed=99), **overrides
        )
        return QueryService(synthetic_index(), config)

    def test_schedule_is_pinned(self):
        responses = self.service().run(self.fixed_queries())
        assert [r.marker for r in responses] == PINNED_MARKERS
        # Degraded answers still carry a real answer.
        assert all(r.answer is not None for r in responses)

    def test_schedule_is_dispatch_invariant(self):
        queries = self.fixed_queries()
        serial = self.service(mode="serial").run(queries)
        threaded = self.service(workers=3, mode="thread").run(queries)
        assert [r.marker for r in threaded] == [r.marker for r in serial]

    def test_degraded_and_fault_counters_tick(self):
        with scope(MetricsRegistry(), TraceCollector()) as (registry, _):
            self.service().run(self.fixed_queries())
            degraded = registry.get(SERVE_DEGRADED_METRIC)
            faults = registry.get(SERVE_FAULTS_METRIC)
        by_marker = {
            labels[0]: series.value for labels, series in degraded.series()
        }
        assert by_marker == {
            "stale": PINNED_MARKERS.count("stale"),
            "degraded": PINNED_MARKERS.count("degraded"),
        }
        assert sum(s.value for _l, s in faults.series()) == sum(
            1 for marker in PINNED_MARKERS if marker
        )


class TestSyntheticIndexAnswers:
    def test_validate_states(self):
        index = synthetic_index()
        assert index.validate(
            P("10.0.1.0/24"), 64500
        ).state is OriginValidation.VALID
        assert index.validate(
            P("10.0.1.0/24"), 64999
        ).state is OriginValidation.INVALID
        # Covered by the /8 but longer than its maxLength.
        assert index.validate(
            P("10.9.0.0/16"), 64501
        ).state is OriginValidation.INVALID
        assert index.validate(
            P("192.0.2.0/24"), 64500
        ).state is OriginValidation.NOT_FOUND

    def test_lookup_excludes_as_set_rows(self):
        answer = synthetic_index().lookup(A("10.0.1.1"))
        assert answer.prefix == P("10.0.0.0/16")
        assert answer.origins == (ASN(64500), ASN(64502))
        assert answer.as_set_excluded == 1
        verdicts = dict(answer.verdicts)
        assert verdicts[ASN(64500)] is OriginValidation.VALID
        assert verdicts[ASN(64502)] is OriginValidation.INVALID

    def test_lookup_unrouted(self):
        answer = synthetic_index().lookup(A("192.0.2.1"))
        assert answer.prefix is None
        assert answer.origins == () and answer.verdicts == ()

    def test_empty_index_misses(self):
        index = synthetic_index()
        assert not index.domain("example.com").found
        assert index.rank_slice(1, 10).domains == 0
        assert index.max_rank == 0 and len(index) == 0


class TestCacheBackedIndex:
    def test_cold_then_warm(self, small_study, tmp_path):
        directory = str(tmp_path / "serve-cache")
        cold = ServingIndex.from_cache(directory, small_study)
        assert cold.source == "cache" and not cold.warm
        warm = ServingIndex.from_cache(directory, small_study)
        assert warm.warm
        assert warm.digests == cold.digests
        assert len(warm) == len(cold) == 120

    def test_config_change_goes_cold(self, small_study, tmp_path):
        directory = str(tmp_path / "serve-cache2")
        ServingIndex.from_cache(directory, small_study)
        changed = ServingIndex.from_cache(
            directory,
            small_study,
            config=RunConfig(faults=FaultPlan.from_profile("flaky", seed=3)),
        )
        assert not changed.warm

    def test_stale_against(self, small_study, small_index):
        assert not small_index.stale_against(small_study)
        other_world = WebEcosystem.build(
            EcosystemConfig(domain_count=120, seed=12)
        )
        other = MeasurementStudy.from_ecosystem(other_world)
        assert small_index.stale_against(other)


class TestSummaries:
    def test_summarize_and_report(self):
        index = synthetic_index()
        service = QueryService(
            index, ServeConfig(faults=FaultPlan.from_rates({SERVE_STALE: 1.0}))
        )
        responses = service.run(
            [
                Query.validate(P("10.0.1.0/24"), 64500),
                Query.lookup(A("10.0.1.1")),
                Query.domain("example.com"),
                Query.rank_slice(1, 10),
            ]
        )
        summary = summarize_responses(responses, elapsed_s=2.0)
        assert summary["queries"] == 4
        assert set(summary["by_kind"]) == {
            "validate", "lookup", "domain", "rank_slice",
        }
        assert summary["by_kind"]["validate"]["count"] == 1
        # validate answer + two lookup verdicts
        assert sum(summary["verdicts"].values()) == 3
        assert summary["degraded"] == {"stale": 4}
        assert summary["qps"] == 2.0
        report = serve_report(summary)
        assert "query kind" in report and "validate" in report
        assert "degraded answers: 4" in report
        assert "throughput: 2.0 queries/s" in report

    def test_response_equality_ignores_latency(self):
        query = Query.domain("example.com")
        answer = synthetic_index().domain("example.com")
        assert Response(query, answer, elapsed_s=0.1) == Response(
            query, answer, elapsed_s=0.9
        )
