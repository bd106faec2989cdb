"""Integration tests for the resilience layer and the RunConfig API.

Covers the tentpole guarantees: a fixed seed and fault profile yield
bit-identical StudyResults across every exec backend, retry
exhaustion turns into per-domain degraded outcomes (never a failed
study), the new statistics round-trip the wire codec and the metrics
registry, and a run without a fault plan is exactly the pre-existing
pipeline.
"""

import dataclasses
import warnings

import pytest

from repro import obs
from repro.bgp.errors import BGPError
from repro.core import MeasurementStudy, RunConfig, pipeline_statistics
from repro.core.pipeline import CacheConfig, Funnel, StudyStatistics
from repro.exec import (
    Shard,
    decode_measurements,
    decode_statistics,
    encode_measurements,
    encode_statistics,
    merge_statistics,
    run_shard,
)
from repro.faults import (
    DNS_SERVFAIL,
    DNS_TIMEOUT,
    DUMP_CORRUPT,
    PROFILES,
    FaultPlan,
)
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.web.alexa import AlexaRanking

DOMAINS = 400


@pytest.fixture(scope="module")
def study(small_world):
    """The funnel over the first 400 ranked domains of the world."""
    return MeasurementStudy(
        ranking=AlexaRanking(small_world.ranking.top(DOMAINS)),
        resolver=small_world.resolvers()[0],
        table_dump=small_world.table_dump,
        payloads=small_world.payloads(),
    )


@pytest.fixture(scope="module")
def clean_result(study):
    return study.run()


@pytest.fixture(scope="module")
def flaky_config():
    return RunConfig(
        faults=FaultPlan.from_profile("flaky", seed=42),
        max_attempts=3,
    )


@pytest.fixture(scope="module")
def flaky_result(study, flaky_config):
    return study.run(config=flaky_config)


class TestRunConfigAPI:
    def test_defaults_and_validation(self):
        config = RunConfig()
        assert config.workers == 1 and config.mode == "auto"
        assert not config.resilient
        with pytest.raises(ValueError):
            RunConfig(workers=0)
        with pytest.raises(ValueError):
            RunConfig(mode="fibers")
        with pytest.raises(ValueError):
            RunConfig(shard_size=0)
        with pytest.raises(ValueError):
            RunConfig(max_attempts=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().workers = 2

    def test_without_progress_strips_only_the_sink(self, flaky_config):
        config = RunConfig(workers=3, progress=lambda event: None,
                           faults=flaky_config.faults)
        shipped = config.without_progress()
        assert shipped.progress is None
        assert shipped.workers == 3
        assert shipped.faults == config.faults
        # already-clean configs ship as-is
        assert flaky_config.without_progress() is flaky_config

    def test_without_progress_keeps_every_other_field(self, flaky_config):
        """Walks the dataclass: a field added to RunConfig must ship too."""
        values = {
            "workers": 3,
            "mode": "workers",
            "shard_size": 7,
            "max_attempts": 5,
            "faults": flaky_config.faults,
            "progress": lambda event: None,
            "cache": CacheConfig("/nonexistent/cache"),
            "job_deadline_s": 2.5,
        }
        specs = dataclasses.fields(RunConfig)
        assert [spec.name for spec in specs] == list(values)
        for spec in specs:
            assert values[spec.name] != spec.default, spec.name
        config = RunConfig(**values)
        shipped = config.without_progress()
        assert shipped.progress is None
        differing = [
            spec.name
            for spec in specs
            if getattr(shipped, spec.name) != getattr(config, spec.name)
        ]
        assert differing == ["progress"]

    def test_config_run_equals_default_run(self, study, clean_result):
        assert study.run(config=RunConfig()) == clean_result

    def test_config_run_does_not_warn(self, study):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            study.run(config=RunConfig())
            study.run()

    def test_legacy_keywords_rejected(self, study):
        with pytest.raises(TypeError):
            study.run(workers=2, mode="thread")

    def test_legacy_positional_progress_rejected(self, study):
        events = []
        with pytest.raises(TypeError, match="RunConfig"):
            study.run(events.append)
        assert not events

    def test_config_plus_keywords_rejected(self, study):
        with pytest.raises(TypeError):
            study.run(RunConfig(), workers=2)
        with pytest.raises(TypeError):
            study.run(config=RunConfig(), mode="thread")


class TestFaultDeterminism:
    def test_fault_run_differs_from_clean_run(self, clean_result, flaky_result):
        assert flaky_result != clean_result
        stats = flaky_result.statistics
        assert stats.degraded_domains > 0
        assert stats.retries_total > 0
        assert stats.faults_by_kind

    def test_same_config_is_bit_identical(self, study, flaky_config,
                                          flaky_result):
        assert study.run(config=flaky_config) == flaky_result

    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_identical_across_backends(self, study, flaky_config,
                                       flaky_result, mode):
        config = RunConfig(
            workers=3, mode=mode, shard_size=64,
            faults=flaky_config.faults, max_attempts=flaky_config.max_attempts,
        )
        parallel = study.run(config=config)
        assert parallel == flaky_result
        assert list(parallel) == list(flaky_result)
        assert parallel.statistics == flaky_result.statistics

    def test_shard_size_does_not_change_faults(self, study, flaky_config,
                                               flaky_result):
        for shard_size in (13, 150):
            config = RunConfig(
                workers=2, mode="thread", shard_size=shard_size,
                faults=flaky_config.faults, max_attempts=flaky_config.max_attempts,
            )
            assert study.run(config=config) == flaky_result

    def test_different_seed_different_outcome(self, study, flaky_config):
        other = RunConfig(
            faults=FaultPlan.from_profile("flaky", seed=43),
            max_attempts=flaky_config.max_attempts,
        )
        assert study.run(config=other) != study.run(config=flaky_config)


class TestDegradation:
    def test_total_dns_outage_degrades_every_domain(self, study):
        # With a single attempt every injected fault is terminal, so a
        # rate-1.0 plan degrades the entire population at the DNS stage.
        config = RunConfig(
            faults=FaultPlan.from_rates(
                {DNS_SERVFAIL: 1.0}, seed=1, max_consecutive=10
            ),
            max_attempts=1,
        )
        result = study.run(config=config)
        stats = result.statistics
        assert stats.degraded_domains == DOMAINS
        assert stats.retries_total == 0
        for measurement in result:
            assert measurement.degraded
            for form in (measurement.www, measurement.plain):
                assert form.degraded_stage == "dns"
                assert not form.resolved
                assert form.pairs == []
                assert form.retries == 0
                assert dict(form.faults)[DNS_SERVFAIL] == 1

    def test_enough_attempts_heal_everything(self, study, clean_result):
        # max_consecutive=1 means every faulty site recovers on its
        # first retry; the funnel outcome must equal the clean run.
        config = RunConfig(
            faults=FaultPlan.from_rates(
                {DNS_SERVFAIL: 0.3, DNS_TIMEOUT: 0.2, DUMP_CORRUPT: 0.2},
                seed=4, max_consecutive=1,
            ),
            max_attempts=3,
        )
        result = study.run(config=config)
        stats = result.statistics
        assert stats.degraded_domains == 0
        assert stats.retries_total > 0
        for healed, clean in zip(result, clean_result):
            for form_h, form_c in [(healed.www, clean.www),
                                   (healed.plain, clean.plain)]:
                assert form_h.resolved == form_c.resolved
                assert form_h.addresses == form_c.addresses
                assert form_h.pairs == form_c.pairs
                assert form_h.unreachable_addresses == form_c.unreachable_addresses

    def test_prefix_degradation_keeps_dns_outcome(self, study):
        config = RunConfig(
            faults=FaultPlan.from_rates(
                {DUMP_CORRUPT: 1.0}, seed=2, max_consecutive=10
            ),
            max_attempts=2,
        )
        result = study.run(config=config)
        degraded_forms = [
            form
            for measurement in result
            for form in (measurement.www, measurement.plain)
            if form.degraded_stage
        ]
        assert degraded_forms
        for form in degraded_forms:
            assert form.degraded_stage == "prefix"
            assert form.resolved and form.addresses  # DNS survived
            assert form.pairs == []
            assert form.unreachable_addresses == 0  # trial copy discarded

    def test_funnel_instances_are_interchangeable(self, study, flaky_config):
        funnel_a = Funnel(study, flaky_config)
        funnel_b = Funnel(study, flaky_config)
        domains = study.ranking.top(40)
        assert [funnel_a.measure_domain(d) for d in domains] == [
            funnel_b.measure_domain(d) for d in domains
        ]


class TestStatisticsRoundTrips:
    def test_merge_sums_resilience_fields(self):
        a = StudyStatistics(domain_count=2, degraded_domains=1,
                            retries_total=4,
                            faults_by_kind={"dns.servfail": 3})
        b = StudyStatistics(domain_count=3, degraded_domains=2,
                            retries_total=1,
                            faults_by_kind={"dns.servfail": 1,
                                            "dump.corrupt": 5})
        merged = merge_statistics([a, b])
        assert merged.degraded_domains == 3
        assert merged.retries_total == 5
        assert merged.faults_by_kind == {"dns.servfail": 4, "dump.corrupt": 5}

    def test_wire_statistics_round_trip(self, flaky_result):
        stats = flaky_result.statistics
        assert decode_statistics(encode_statistics(stats)) == stats

    def test_wire_measurements_round_trip(self, flaky_result):
        measurements = list(flaky_result)[:40]
        domains = [m.domain for m in measurements]
        decoded = decode_measurements(
            encode_measurements(measurements), domains
        )
        assert decoded == measurements
        for original, copy in zip(measurements, decoded):
            for form_o, form_c in [(original.www, copy.www),
                                   (original.plain, copy.plain)]:
                assert form_c.degraded_stage == form_o.degraded_stage
                assert form_c.retries == form_o.retries
                assert form_c.faults == form_o.faults

    def test_wire_form_stays_primitives_only(self, flaky_result):
        def flatten(value):
            # exact types: an Address/Prefix is a tuple *subclass* and
            # must surface as a leaf (and fail) if it ever leaks through
            if type(value) in (tuple, list):
                for item in value:
                    yield from flatten(item)
            else:
                yield value

        encoded = encode_measurements(list(flaky_result)[:40])
        assert all(
            isinstance(leaf, (str, bool, int)) for leaf in flatten(encoded)
        )
        assert all(
            isinstance(leaf, (str, bool, int))
            for leaf in flatten(encode_statistics(flaky_result.statistics))
        )

    def test_stats_metrics_round_trip(self, flaky_result):
        registry = MetricsRegistry()
        flaky_result.statistics.to_metrics(registry)
        assert StudyStatistics.from_metrics(registry) == flaky_result.statistics


class TestObservabilityUnderFaults:
    def test_registry_cross_check_holds(self, study, flaky_config):
        with obs.scope() as (registry, _collector):
            result = study.run(config=flaky_config)
            summary = pipeline_statistics(result, registry=registry)
        stats = result.statistics
        assert summary["degraded_domains"] == stats.degraded_domains
        assert summary["retries_total"] == stats.retries_total
        assert summary["faults_injected"] == stats.faults_total
        degraded = registry.get("ripki_degraded_domains_total")
        assert degraded.value == stats.degraded_domains
        faults = registry.get("ripki_faults_injected_total")
        by_kind = {key[0]: int(child.value)
                   for key, child in faults.series() if child.value}
        assert by_kind == stats.faults_by_kind

    def test_parallel_registry_merge_matches_serial(self, study, flaky_config):
        with obs.scope() as (serial_registry, _):
            serial = study.run(config=flaky_config)
        config = RunConfig(workers=3, mode="thread", shard_size=64,
                           faults=flaky_config.faults,
                           max_attempts=flaky_config.max_attempts)
        with obs.scope() as (parallel_registry, _):
            parallel = study.run(config=config)
            pipeline_statistics(parallel, registry=parallel_registry)
        assert parallel == serial

        def funnel_series(registry):
            return {
                name: entry
                for name, entry in registry.snapshot().items()
                if name.startswith("ripki_")
            }

        assert funnel_series(parallel_registry) == funnel_series(serial_registry)

    def test_clean_run_registers_no_resilience_series(self, study):
        with obs.scope() as (registry, _collector):
            study.run()
        assert registry.get("ripki_degraded_domains_total") is None
        assert registry.get("ripki_retries_total") is None
        assert registry.get("ripki_faults_injected_total") is None

    def test_clean_summary_has_no_resilience_keys(self, clean_result,
                                                  flaky_result):
        clean = pipeline_statistics(clean_result)
        assert "degraded_domains" not in clean
        flaky = pipeline_statistics(flaky_result)
        assert flaky["degraded_domains"] > 0

    def test_degradation_report_renders(self, flaky_result):
        stats = flaky_result.statistics
        report = obs.degradation_report(
            stats.degraded_domains, stats.retries_total,
            stats.faults_by_kind, stats.domain_count,
        )
        assert f"degraded domains: {stats.degraded_domains}" in report
        assert "retries spent" in report
        for kind in stats.faults_by_kind:
            assert kind in report


class TestShardFaultPath:
    def test_run_shard_uses_the_funnel(self, study, flaky_config,
                                       flaky_result):
        domains = tuple(study.ranking.top(50))
        shard = Shard(index=0, domains=domains)
        outcome = run_shard(study, shard, observe=False, config=flaky_config)
        assert outcome.measurements == list(flaky_result)[:50]
        assert outcome.statistics.degraded_domains == sum(
            1 for m in list(flaky_result)[:50] if m.degraded
        )


class _BrokenResolver:
    """A resolver whose every query ends in a real (non-injected) error."""

    def __init__(self, resolver):
        self._resolver = resolver

    def resolve(self, name):
        raise ReproError(f"resolver backend refused {name!r}")

    def __getattr__(self, attr):
        return getattr(self._resolver, attr)


class _BrokenDump:
    """A table dump whose every read ends in a real (non-injected) error."""

    def __init__(self, dump):
        self._dump = dump

    def covering_entries(self, target):
        raise BGPError(f"dump reader refused {target}")

    def __getattr__(self, attr):
        return getattr(self._dump, attr)


class TestRealErrorsPropagate:
    """Only an injected fault degrades a form: a real substrate error
    fails a fault run exactly as it fails a plain one."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize(
        "part, broken, error",
        [
            ("resolver", _BrokenResolver, "resolver backend refused"),
            ("table_dump", _BrokenDump, "dump reader refused"),
        ],
        ids=["dns", "dump"],
    )
    def test_stage_error_fails_the_run(
        self, study, flaky_config, part, broken, error, faulted
    ):
        parts = {
            "ranking": AlexaRanking(study.ranking.top(40)),
            "resolver": study.resolver,
            "table_dump": study.table_dump,
            "payloads": study.payloads,
        }
        parts[part] = broken(parts[part])
        config = flaky_config if faulted else RunConfig()
        with pytest.raises(ReproError, match=error):
            MeasurementStudy(**parts).run(config=config)


@pytest.fixture(scope="module")
def thousand():
    """A 1 000-domain study, a serving index over it, and 2 000 queries."""
    from repro.serve import LoadProfile, ServingIndex, generate_load
    from repro.web import EcosystemConfig, WebEcosystem

    world = WebEcosystem.build(EcosystemConfig(domain_count=1000, seed=2015))
    study = MeasurementStudy.from_ecosystem(world)
    index = ServingIndex.build(study, study.run())
    queries = generate_load(index, LoadProfile(queries=2000, seed=2015))
    return study, index, queries


class TestProfilesListOnlyFaultsThatFire:
    """A profile kind that no program path injects only makes a fault
    run look harsher than it is: every kind must fire somewhere."""

    @pytest.mark.parametrize("name", ["flaky", "degraded", "chaos"])
    def test_every_profile_kind_fires(self, thousand, name):
        from repro.serve import SERVE_FAULTS_METRIC, QueryService, ServeConfig

        study, index, queries = thousand
        plan = FaultPlan.from_profile(name, seed=2015)
        result = study.run(config=RunConfig(faults=plan))
        fired = set(result.statistics.faults_by_kind)
        with obs.scope() as (registry, _collector):
            QueryService(index, ServeConfig(faults=plan)).run(queries)
        served = registry.get(SERVE_FAULTS_METRIC)
        fired |= {labels[0] for labels, child in served.series() if child.value}
        assert fired == set(PROFILES[name])


class _FlakyTransport:
    """An RTR transport that drops sends or loses replies to a reset.

    With ``drop_sends`` every send fails as a dropped session would;
    each receive whose 0-based index is in ``resets`` drains the real
    reply and hands the router a Cache Reset instead, as from a cache
    that restarted with the response in flight.
    """

    def __init__(self, transport, drop_sends=False, resets=()):
        self._transport = transport
        self._drop_sends = drop_sends
        self._resets = set(resets)
        self._received = 0
        self.resets_sent = 0

    def send(self, data):
        from repro.rpki.rtr.errors import RTRError

        if self._drop_sends:
            raise RTRError("session dropped")
        self._transport.send(data)

    def receive(self):
        from repro.rpki.rtr.pdus import CacheResetPDU

        data = self._transport.receive()
        index, self._received = self._received, self._received + 1
        if index in self._resets:
            self.resets_sent += 1
            return CacheResetPDU().encode()
        return data

    def pending(self):
        return self._transport.pending()


class TestRTRClientResilience:
    def _session(self):
        from repro.net import ASN, Prefix
        from repro.rpki.rtr import RTRCache, RTRClient, TransportPair
        from repro.rpki.vrp import VRP

        pair = TransportPair()
        cache = RTRCache(session_id=9)
        cache.load([VRP(Prefix.parse("10.0.0.0/16"), 24, ASN(64500), "ta")])
        return pair, cache, RTRClient

    def test_start_is_syncing_even_when_send_drops(self):
        from repro.rpki.rtr.client import ClientState
        from repro.rpki.rtr.errors import RTRError

        pair, _cache, RTRClient = self._session()
        client = RTRClient(_FlakyTransport(pair.router_side, drop_sends=True))
        with pytest.raises(RTRError):
            client.start()
        # The query is outstanding from the client's point of view; a
        # late state write would have left it DISCONNECTED.
        assert client.state is ClientState.SYNCING

    def test_refresh_is_syncing_even_when_send_drops(self):
        from repro.rpki.rtr.client import ClientState
        from repro.rpki.rtr.errors import RTRError

        pair, cache, RTRClient = self._session()
        session = cache.register(pair.cache_side)
        client = RTRClient(pair.router_side)
        client.start()
        for _ in range(3):
            cache.serve_session(session)
            client.poll()
        assert client.state is ClientState.SYNCHRONISED

        client._transport = _FlakyTransport(pair.router_side, drop_sends=True)
        with pytest.raises(RTRError):
            client.refresh()
        assert client.state is ClientState.SYNCING

    def test_cache_reset_storm_converges(self):
        from repro.rpki.rtr.client import ClientState

        pair, cache, RTRClient = self._session()
        session = cache.register(pair.cache_side)
        transport = _FlakyTransport(pair.router_side, resets=(0, 1, 2))
        client = RTRClient(transport)
        client.start()
        for _ in range(12):
            cache.serve_session(session)
            client.poll()
            if client.state is ClientState.SYNCHRONISED:
                break
        assert transport.resets_sent == 3
        assert client.state is ClientState.SYNCHRONISED
        assert len(client) == 1
