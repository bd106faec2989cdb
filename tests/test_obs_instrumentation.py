"""Instrumentation of the substrates: trie, RTR, dumps, and the world
build."""

import pytest

from repro import obs
from repro.bgp.aspath import ASPath
from repro.bgp.collector import TableDump, TableDumpEntry
from repro.bgp.dumps import read_dump, write_dump
from repro.cache.fingerprint import dump_digest, vrp_items, zone_digest
from repro.core import MeasurementStudy
from repro.core.reports import pipeline_statistics
from repro.net import ASN, Address, Prefix
from repro.net.trie import PrefixTrie
from repro.rpki.rtr.cache import RTRCache
from repro.rpki.rtr.client import RTRClient
from repro.rpki.rtr.transport import TransportPair
from repro.rpki.vrp import VRP
from repro.web import EcosystemConfig, WebEcosystem


class TestTrieCounters:
    def test_lookup_ops_counted(self):
        trie = PrefixTrie()
        prefix = Prefix.parse("10.0.0.0/8")
        trie.insert(prefix, "value")
        with obs.scope() as (registry, _tracer):
            trie.lookup_exact(prefix)
            trie.covering(Address.parse("10.1.2.3"))
            trie.lookup_longest(Address.parse("10.1.2.3"))
            trie.covering(Address.parse("192.0.2.1"))  # miss
            lookups = registry.get("ripki_trie_lookups_total")
            assert lookups.labels(op="exact").value == 1
            # Each public call records exactly one lookup: the two
            # explicit covering() calls and the one lookup_longest().
            assert lookups.labels(op="covering").value == 2
            assert lookups.labels(op="longest").value == 1
            assert registry.get("ripki_trie_misses_total").value == 1
            histogram = registry.get("ripki_trie_covering_matches")
            assert histogram.count == 3

    def test_lookup_longest_counts_once(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "value")
        with obs.scope() as (registry, _tracer):
            trie.lookup_longest(Address.parse("10.9.9.9"))
            trie.lookup_longest(Address.parse("192.0.2.1"))  # miss
            lookups = registry.get("ripki_trie_lookups_total")
            assert lookups.labels(op="longest").value == 2
            assert lookups.series() == [
                (("longest",), lookups.labels(op="longest")),
            ]
            assert registry.get("ripki_trie_misses_total").value == 1
            assert registry.get("ripki_trie_covering_matches").count == 2

    def test_disabled_trie_pays_nothing(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "value")
        assert trie.covering(Address.parse("10.0.0.1"))
        assert obs.metrics().get("ripki_trie_lookups_total") is None


def _vrp(prefix="10.0.0.0/24", asn=65001):
    return VRP(Prefix.parse(prefix), 24, ASN(asn), "test-ta")


def _pump(cache, session, client, rounds=4):
    for _ in range(rounds):
        cache.serve_session(session)
        client.poll()


class TestRTRCounters:
    def test_session_lifecycle_counters(self):
        with obs.scope() as (registry, _tracer):
            pair = TransportPair()
            cache = RTRCache()
            cache.load([_vrp()])
            session = cache.register(pair.cache_side)
            client = RTRClient(pair.router_side)
            client.start()
            _pump(cache, session, client)
            assert len(client) == 1

            # One snapshot served, serial advanced once on the client.
            assert registry.get("ripki_rtr_cache_snapshots_sent_total").value == 1
            assert (
                registry.get("ripki_rtr_client_serial_advances_total").value == 1
            )
            assert registry.get("ripki_rtr_client_vrps").value == 1
            assert registry.get("ripki_rtr_cache_serial_advances_total").value == 1

            # Incremental refresh: one diff served, serial advances again.
            cache.load([_vrp(), _vrp("10.1.0.0/24", 65002)])
            client.refresh()
            _pump(cache, session, client)
            assert registry.get("ripki_rtr_cache_diffs_sent_total").value == 1
            assert (
                registry.get("ripki_rtr_client_serial_advances_total").value == 2
            )
            changes = registry.get("ripki_rtr_cache_vrp_changes_total")
            assert changes.labels(change="announce").value == 2
            assert registry.get("ripki_rtr_cache_vrps").value == 2

    def test_cache_reset_counts_resync(self):
        with obs.scope() as (registry, _tracer):
            pair = TransportPair()
            cache = RTRCache(history_limit=1)
            cache.load([_vrp()])
            session = cache.register(pair.cache_side)
            client = RTRClient(pair.router_side)
            client.start()
            _pump(cache, session, client)
            # Age the history far past the client's serial.
            for index in range(3):
                cache.load([_vrp("10.2.%d.0/24" % index, 65100 + index)])
            client.refresh()
            _pump(cache, session, client)
            assert registry.get("ripki_rtr_cache_resets_sent_total").value == 1
            assert registry.get("ripki_rtr_client_resyncs_total").value == 1
            assert registry.get("ripki_rtr_cache_snapshots_sent_total").value == 2

    def test_pdu_type_counters(self):
        with obs.scope() as (registry, _tracer):
            pair = TransportPair()
            cache = RTRCache()
            cache.load([_vrp()])
            session = cache.register(pair.cache_side)
            client = RTRClient(pair.router_side)
            client.start()
            _pump(cache, session, client)
            queries = registry.get("ripki_rtr_cache_queries_total")
            assert queries.labels(type="ResetQueryPDU").value == 1
            pdus = registry.get("ripki_rtr_client_pdus_total")
            assert pdus.labels(type="CacheResponsePDU").value == 1
            assert pdus.labels(type="EndOfDataPDU").value == 1


class TestDumpCounters:
    def test_write_and_read_rows_counted(self, tmp_path):
        dump = TableDump()
        dump.add(
            TableDumpEntry(
                prefix=Prefix.parse("10.0.0.0/8"),
                path=ASPath.parse("65001 65002"),
                peer=ASN(65001),
            )
        )
        path = tmp_path / "table.dump"
        with obs.scope() as (registry, collector):
            write_dump(dump, path)
            read_dump(path)
            assert registry.get("ripki_dump_rows_written_total").value == 1
            assert registry.get("ripki_dump_rows_read_total").value == 1
            assert {"dump.write", "dump.read"} <= set(collector.names())


class TestThreadScope:
    """Thread-local registry overrides used by the shard executor."""

    def test_override_shadows_global_scope(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), "value")
        with obs.scope() as (outer, _tracer):
            local = obs.MetricsRegistry()
            with obs.thread_scope(local):
                trie.covering(Address.parse("10.0.0.1"))
            trie.covering(Address.parse("10.0.0.2"))
        lookups = "ripki_trie_lookups_total"
        assert local.get(lookups).labels(op="covering").value == 1
        assert outer.get(lookups).labels(op="covering").value == 1

    def test_none_falls_back_to_null(self):
        with obs.scope() as (_registry, _tracer):
            with obs.thread_scope():
                assert not obs.observability_enabled()
                assert obs.metrics().get("anything") is None
            assert obs.observability_enabled()

    def test_overrides_are_per_thread(self):
        import threading

        with obs.scope() as (outer, _tracer):
            seen = {}

            def worker():
                local = obs.MetricsRegistry()
                with obs.thread_scope(local):
                    obs.metrics().counter("ripki_worker_total").inc()
                    seen["worker"] = obs.metrics()

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["worker"] is not outer
            assert obs.metrics() is outer
            assert outer.get("ripki_worker_total") is None
            assert seen["worker"].get("ripki_worker_total").value == 1

    def test_overrides_nest(self):
        first, second = obs.MetricsRegistry(), obs.MetricsRegistry()
        with obs.thread_scope(first):
            with obs.thread_scope(second):
                assert obs.metrics() is second
            assert obs.metrics() is first
        assert obs.metrics() is obs.NULL_REGISTRY


class TestStatisticsSourceOfTruth:
    def test_pipeline_statistics_accepts_matching_registry(self, small_world):
        with obs.scope() as (registry, _tracer):
            result = MeasurementStudy.from_ecosystem(small_world).run()
            stats = pipeline_statistics(result, registry=registry)
        assert stats == pipeline_statistics(result)

    def test_pipeline_statistics_rejects_mismatched_registry(self, small_world):
        with obs.scope() as (registry, _tracer):
            result = MeasurementStudy.from_ecosystem(small_world).run()
            registry.get("ripki_domains_measured_total").inc()  # corrupt
            with pytest.raises(ValueError):
                pipeline_statistics(result, registry=registry)


class TestWorldBuild:
    def test_stages_are_spanned_and_route_trees_counted(self):
        config = EcosystemConfig(domain_count=400, seed=7)
        with obs.scope() as (registry, collector):
            world = WebEcosystem.build(config)

        for name, parent in (
            ("web.ecosystem.build", None),
            ("web.alexa.generate", "web.ecosystem.build"),
            ("web.adoption.build", "web.ecosystem.build"),
            ("rpki.validator.validate", "web.adoption.build"),
            ("web.hosting.build", "web.ecosystem.build"),
            ("bgp.propagation.propagate", "web.ecosystem.build"),
            ("bgp.collector.collect", "web.ecosystem.build"),
        ):
            (span,) = collector.spans(name)
            if parent is None:
                assert span.parent_id is None
            else:
                assert span.parent_id == collector.spans(parent)[0].span_id

        originations = {}
        for announcement in world.announcements:
            originations.setdefault(announcement.prefix, []).append(
                (announcement.origin, announcement.aggregate_members)
            )
        distinct_keys = len({tuple(key) for key in originations.values()})
        announcements = registry.get("ripki_bgp_announcements_total").value
        route_trees = registry.get("ripki_bgp_route_trees_total").value
        assert announcements == len(world.announcements)
        assert route_trees == distinct_keys < announcements

        unobserved = WebEcosystem.build(config)
        assert dump_digest(world.table_dump) == dump_digest(unobserved.table_dump)
        assert zone_digest(world.namespace) == zone_digest(unobserved.namespace)
        assert vrp_items(world.payloads()) == vrp_items(unobserved.payloads())
