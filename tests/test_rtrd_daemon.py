"""Unit tests for the long-lived RTR daemon (repro.rtrd)."""

import gc
import weakref

import pytest

from repro import obs
from repro.net import ASN, Prefix
from repro.obs.window import SLOTracker
from repro.rpki.rtr.cache import RTRCache, SessionState
from repro.rpki.rtr.client import FRAME_MEMO_SIZE, ClientState, decode_shared
from repro.rpki.vrp import VRP
from repro.rtrd import (
    PUSH_SLO,
    ChurnProfile,
    RTRDaemon,
    RtrdConfig,
    SyntheticVRPWorld,
    run_churn,
    summarize_publishes,
    wire_table,
)


def vrp(prefix, max_length, asn):
    return VRP(Prefix.parse(prefix), max_length, ASN(asn), "test-ta")


def world_slice(n, start=0):
    """``n`` consecutive VRPs from ``start``; overlapping slices share
    identical VRPs, so shifting ``start`` by 1 churns exactly 2."""
    return [
        vrp(f"10.{start + i}.0.0/16", 24, 64500 + start + i)
        for i in range(n)
    ]


class TestConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            RtrdConfig(mode="fork")

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            RtrdConfig(workers=0)

    def test_auto_mode_resolution(self):
        assert RtrdConfig(workers=1).resolved_mode == "serial"
        # auto pumps inline: threads only when asked for by name.
        assert RtrdConfig(workers=4).resolved_mode == "serial"
        assert RtrdConfig(workers=4, mode="thread").resolved_mode == "thread"
        assert RtrdConfig(workers=4, mode="serial").resolved_mode == "serial"


class TestPublish:
    def test_initial_connect_full_sync(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(5))
        routers = daemon.connect_many(3)
        assert all(r.synchronized for r in routers)
        assert all(r.client.serial == daemon.serial for r in routers)
        truth = wire_table(daemon.vrps())
        assert all(wire_table(r.client.vrps()) == truth for r in routers)

    def test_publish_fans_out_to_synchronized_sessions(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(5))
        daemon.connect_many(4)
        stats = daemon.publish(world_slice(5, start=2))
        assert stats.advanced
        assert stats.notified == 4
        assert stats.synchronized == 4
        assert daemon.converged

    def test_noop_publish_is_silent(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(5))
        daemon.connect_many(2)
        stats = daemon.publish(world_slice(5))
        assert not stats.advanced
        assert stats.notified == 0
        assert stats.rounds == 0
        assert stats.delta_bytes == stats.snapshot_bytes == 0
        assert all(
            r.pending_bytes() == 0 for r in daemon.manager.routers()
        )

    def test_deltas_are_smaller_than_snapshots(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(200))
        daemon.connect_many(4)
        stats = daemon.publish(world_slice(200, start=1))  # 1 in, 1 out
        assert stats.delta_bytes > 0
        assert stats.snapshot_bytes == 0  # everyone synced via diffs
        per_router = stats.delta_bytes / stats.notified
        assert per_router < stats.snapshot_frame_bytes
        assert per_router < 0.1 * stats.snapshot_frame_bytes

    def test_stats_are_recorded(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(3))
        daemon.publish(world_slice(3))      # no-op
        daemon.publish(world_slice(4))
        assert [s.advanced for s in daemon.publishes] == [True, False, True]


def mixed_slice(n, start=0):
    """``world_slice`` with every third VRP moved to IPv6."""
    return [
        vrp(f"2001:db8:{i:x}::/48", 64, 64500 + i)
        if i % 3 == 0
        else vrp(f"10.{i}.0.0/16", 24, 64500 + i)
        for i in range(start, start + n)
    ]


class TestSnapshotSize:
    def test_counted_size_equals_the_encoded_frame(self):
        daemon = RTRDaemon()
        daemon.connect_many(2)
        for step in range(5):
            stats = daemon.publish(mixed_slice(12 + step, start=3 * step))
            assert stats.advanced
            assert stats.snapshot_frame_bytes == len(
                daemon.cache.snapshot_frame()
            )
        families = {v.prefix.family for v in daemon.vrps()}
        assert len(families) == 2

    def test_a_diff_only_publish_encodes_no_snapshot(self):
        daemon = RTRDaemon()
        daemon.publish(mixed_slice(10))
        daemon.connect_many(3)  # the connect encodes serial 1's snapshot
        stats = daemon.publish(mixed_slice(10, start=1))
        assert stats.notified == 3 and stats.delta_bytes > 0
        assert stats.snapshot_bytes == 0
        assert stats.snapshot_frame_bytes > 0
        assert daemon.cache._snapshot_frame is None


class TestPushedBytes:
    def test_connect_snapshots_count_without_a_publish(self):
        cache = RTRCache()
        cache.load(mixed_slice(10))
        with obs.scope() as (registry, _tracer):
            daemon = RTRDaemon(cache=cache)
            daemon.connect_many(3)
            pushed = registry.get("ripki_rtrd_push_bytes_total")
        summary = summarize_publishes(daemon)
        expected = 3 * len(cache.snapshot_frame())
        assert summary["publishes"] == 0
        assert summary["snapshot_bytes"] == expected
        assert summary["delta_bytes"] == 0
        assert pushed is not None
        assert pushed.labels(kind="snapshot").value == expected
        assert pushed.labels(kind="diff").value == 0


class TestLagAndHistory:
    def test_lagging_router_catches_up_with_multi_serial_diff(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(10))
        router = daemon.connect()
        initial_sync = router.session.snapshot_bytes_sent
        router.lag = 10
        for step in range(3):
            daemon.publish(world_slice(10, start=step + 1))
        assert router.client.serial == 1  # heard nothing yet
        router.lag = 0
        daemon.synchronize()
        assert router.client.serial == daemon.serial
        assert wire_table(router.client.vrps()) == wire_table(daemon.vrps())
        # One diff covered serials 2..4; no snapshot was re-sent.
        assert router.session.snapshot_bytes_sent == initial_sync > 0
        assert router.session.diff_bytes_sent > 0

    def test_router_behind_history_gets_cache_reset(self):
        with obs.scope() as (registry, _tracer):
            daemon = RTRDaemon(RtrdConfig(history_limit=2))
            daemon.publish(world_slice(10))
            router = daemon.connect()
            router.lag = 99
            for step in range(5):  # serial advances far beyond history
                daemon.publish(world_slice(10, start=step + 1))
            router.lag = 0
            daemon.synchronize()
            resets = registry.get("ripki_rtr_cache_resets_sent_total")
            assert resets is not None and resets.value >= 1
        assert router.client.serial == daemon.serial
        assert wire_table(router.client.vrps()) == wire_table(daemon.vrps())

    def test_disconnect_stops_service(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(3))
        router = daemon.connect()
        daemon.disconnect(router.name)
        assert router.session.state is SessionState.CLOSED
        assert len(daemon.manager) == 0
        stats = daemon.publish(world_slice(4))
        assert stats.notified == 0


class TestDispatchEquivalence:
    def test_serial_and_threaded_pumps_agree(self):
        def run(config):
            daemon = RTRDaemon(config)
            daemon.publish(world_slice(50))
            daemon.connect_many(12)
            for step in range(4):
                daemon.publish(world_slice(50, start=step + 1))
            tables = sorted(
                (r.name, wire_table(r.client.vrps()))
                for r in daemon.manager.routers()
            )
            return daemon.serial, wire_table(daemon.vrps()), tables

        serial_run = run(RtrdConfig(workers=1))
        threaded_run = run(RtrdConfig(workers=4, mode="thread"))
        assert serial_run == threaded_run

    def test_threaded_counters_merge(self):
        with obs.scope() as (registry, _tracer):
            daemon = RTRDaemon(RtrdConfig(workers=4, mode="thread"))
            daemon.publish(world_slice(10))
            daemon.connect_many(8)
            daemon.publish(world_slice(10, start=1))
            queries = registry.get("ripki_rtr_cache_queries_total")
            assert queries is not None
            assert queries.labels(type="SerialQueryPDU").value == 8
            diffs = registry.get("ripki_rtr_cache_diffs_sent_total")
            assert diffs is not None and diffs.value == 8


class CorruptingTransport:
    """A router-side endpoint that flips one byte of what it reads."""

    def __init__(self, transport, position):
        self._transport = transport
        self._position = position

    def receive(self):
        data = bytearray(self._transport.receive())
        if len(data) > self._position:
            data[self._position] ^= 0x01
        return bytes(data)

    def __getattr__(self, attr):
        return getattr(self._transport, attr)


class TestSharedTables:
    """One decode per distinct frame; tables are references to it."""

    # Byte 0 is the protocol version (fatal); byte 27 is the low byte
    # of the first record's ASN (decodes, to a different table).
    @pytest.mark.parametrize(
        "position, state",
        [(0, ClientState.ERROR), (27, ClientState.SYNCHRONISED)],
    )
    def test_a_poisoned_buffer_never_answers_for_a_clean_one(
        self, position, state
    ):
        decode_shared.cache_clear()
        daemon = RTRDaemon()
        daemon.publish(world_slice(20))
        routers = [daemon.manager.connect() for _ in range(5)]
        victim = routers[2]  # polled after two siblings, before two
        victim.client._transport = CorruptingTransport(
            victim.pair.router_side, position
        )
        daemon.pump(routers)
        assert victim.client.state is state
        truth = wire_table(daemon.vrps())
        assert wire_table(victim.client.vrps()) != truth
        siblings = [r for r in routers if r is not victim]
        assert all(r.synchronized for r in siblings)
        assert all(wire_table(r.client.vrps()) == truth for r in siblings)

    def test_serial_tables_share_one_vrp_per_record(self):
        daemon = RTRDaemon(RtrdConfig(workers=1))
        daemon.publish(world_slice(30))
        first, second, third = daemon.connect_many(3)
        daemon.publish(world_slice(30, start=5))
        tables = [r.client.vrps() for r in (first, second, third)]
        assert len(tables[0]) == 30
        for records in zip(*tables):
            assert records[1] is records[0] and records[2] is records[0]
        keys = [list(r.client._table) for r in (first, second, third)]
        for record_keys in zip(*keys):
            assert record_keys[1] is record_keys[0] is record_keys[2]

    def test_threaded_tables_share_at_most_one_vrp_per_worker(self):
        decode_shared.cache_clear()  # let the first decodes race
        workers = 4
        daemon = RTRDaemon(RtrdConfig(workers=workers, mode="thread"))
        daemon.publish(world_slice(30))
        routers = daemon.connect_many(16)
        daemon.publish(world_slice(30, start=5))
        assert not daemon.diverged_routers()
        for records in zip(*(r.client.vrps() for r in routers)):
            assert len({id(record) for record in records}) <= workers

    def test_diverged_routers_compares_every_table(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(20))
        routers = daemon.connect_many(4)
        assert daemon.diverged_routers() == []
        # The routers share one table: edit copies and rebind them.
        tables = [router.client._table.copy() for router in routers[:3]]
        key, shared = next(iter(tables[0].items()))
        # An equal record that is not the shared object still matches.
        tables[0][key] = vrp(
            str(shared.prefix), shared.max_length, int(shared.asn)
        )
        # A missing record and a changed origin do not.
        del tables[1][key]
        tables[2][key] = vrp(
            str(shared.prefix), shared.max_length, int(shared.asn) + 1
        )
        for router, table in zip(routers, tables):
            router.client._table = table
        assert daemon.diverged_routers() == routers[1:3]

    def test_serial_routers_share_one_table(self):
        decode_shared.cache_clear()
        world = SyntheticVRPWorld(100, seed="one-table")
        daemon = RTRDaemon(RtrdConfig(workers=1))
        daemon.publish(world.vrps())
        daemon.connect_many(200)
        for _publish in range(3):
            world.advance(10)
            daemon.publish(world.vrps())
            synchronized = daemon.manager.synchronized()
            assert len(synchronized) == 200
            assert len({id(r.client._table) for r in synchronized}) == 1
        assert not daemon.diverged_routers()

    def test_threaded_tables_number_at_most_the_workers_per_serial(self):
        decode_shared.cache_clear()  # let the first decodes race
        workers = 4
        world = SyntheticVRPWorld(60, seed="thread-tables")
        daemon = RTRDaemon(RtrdConfig(workers=workers, mode="thread"))
        daemon.publish(world.vrps())
        routers = daemon.connect_many(32)
        for _publish in range(3):
            world.advance(10)
            daemon.publish(world.vrps())
            tables = {}
            for router in routers:
                tables.setdefault(router.client.serial, set()).add(
                    id(router.client._table)
                )
            assert all(len(ids) <= workers for ids in tables.values())
        assert not daemon.diverged_routers()

    def test_churn_never_writes_a_committed_table(self):
        world = SyntheticVRPWorld(80, seed="frozen-tables")
        daemon = RTRDaemon()
        daemon.publish(world.vrps())
        daemon.connect_many(24)
        world.advance(10)
        daemon.publish(world.vrps())
        committed = {
            id(r.client._table): (r.client._table, list(r.client._table.items()))
            for r in daemon.routers()
        }
        profile = ChurnProfile(
            rounds=1, target_sessions=24, disconnect=0.1, lag=0.25,
            garbage=0.25, world_changes=10, seed="frozen-tables",
        )
        summary = run_churn(daemon, world, profile)
        assert summary.garbage_frames and summary.lag_assignments
        assert summary.converged
        for table, items in committed.values():
            assert list(table.items()) == items

    def test_a_different_base_walks_to_the_same_table(self):
        decode_shared.cache_clear()
        daemon = RTRDaemon()
        daemon.publish(world_slice(30))
        routers = daemon.connect_many(4)
        # An equal table that is not the shared one: a distinct base,
        # so the next response misses the memo and walks its PDUs.
        routers[0].client._table = routers[0].client._table.copy()
        # A revived router starts over from the empty table and takes
        # the current snapshot while its siblings take a diff.
        daemon.manager.revive(routers[1])
        daemon.publish(world_slice(30, start=5))
        tables = [router.client._table for router in routers]
        assert tables[2] is tables[3]
        assert tables[0] is not tables[2] and tables[1] is not tables[2]
        assert list(tables[0].items()) == list(tables[2].items())
        truth = wire_table(daemon.vrps())
        assert all(wire_table(table.values()) == truth for table in tables)
        assert not daemon.diverged_routers()

    def test_reconnect_churn_leaves_nothing_behind(self):
        decode_shared.cache_clear()
        daemon = RTRDaemon()
        history_limit = daemon.config.history_limit
        world = SyntheticVRPWorld(60, seed="memo-bound")
        daemon.publish(world.vrps())
        daemon.connect_many(6)
        decoded = []  # a weak reference to every VRP a table ever held
        for _publish in range(10 * history_limit):
            world.advance(10)  # mints VRPs no earlier round has seen
            daemon.publish(world.vrps())
            for router in daemon.routers():
                decoded += map(weakref.ref, router.client.vrps())
                daemon.disconnect(router.name)
            daemon.connect_many(6)
        del router  # a disconnected router still holds its last table
        assert not daemon.diverged_routers()
        info = decode_shared.cache_info()
        assert info.misses > FRAME_MEMO_SIZE >= info.currsize

        def alive():
            gc.collect()
            return {id(ref()) for ref in decoded if ref() is not None}

        # Only the tables and the memoised frames own a decoded VRP:
        # let both go and every one of them is collectable.
        assert len({id(ref) for ref in decoded}) > 2 * FRAME_MEMO_SIZE * len(world)
        assert len(alive()) <= FRAME_MEMO_SIZE * len(world)
        decode_shared.cache_clear()
        assert alive() <= {
            id(vrp) for r in daemon.routers() for vrp in r.client.vrps()
        }
        del daemon
        assert not alive()


class TestTelemetry:
    def test_publish_metrics(self):
        with obs.scope() as (registry, _tracer):
            daemon = RTRDaemon()
            daemon.publish(world_slice(5))
            daemon.connect_many(2)
            daemon.publish(world_slice(5, start=1))
            daemon.publish(world_slice(5, start=1))  # no-op
            outcomes = registry.get("ripki_rtrd_publishes_total")
            assert outcomes.labels(outcome="advanced").value == 2
            assert outcomes.labels(outcome="noop").value == 1
            pushed = registry.get("ripki_rtrd_push_bytes_total")
            assert pushed.labels(kind="diff").value > 0

    def test_publish_phases_have_spans(self):
        with obs.scope() as (_registry, trace):
            daemon = RTRDaemon()
            daemon.publish(world_slice(5))
            daemon.connect_many(2)
            daemon.publish(world_slice(5, start=1))
            daemon.publish(world_slice(5, start=1))  # no-op: load only
        publishes = trace.spans("rtrd.publish")
        assert len(publishes) == 3
        children = [
            sorted(
                span.name
                for span in trace.spans()
                if span.parent_id == publish.span_id
            )
            for publish in publishes
        ]
        phases = ["rtrd.cache.load", "rtrd.notify", "rtrd.pump"]
        assert children == [phases, phases, ["rtrd.cache.load"]]

    def test_slo_and_health_attach(self):
        from repro.obs.http import HealthSource

        clock = [0.0]
        slo = SLOTracker(clock=lambda: clock[0])
        health = HealthSource(clock=lambda: clock[0])
        daemon = RTRDaemon().attach_telemetry(
            slo=slo, health=health, clock=lambda: clock[0],
            push_deadline_s=0.5,
        )
        assert PUSH_SLO in slo.names()
        daemon.publish(world_slice(3))
        assert health.ready
        status = slo.status(PUSH_SLO)
        assert status.total == 1 and status.good == 1

    def test_summary_shape(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(20))
        daemon.connect_many(3)
        daemon.publish(world_slice(20, start=1))
        daemon.publish(world_slice(20, start=1))  # no-op
        summary = summarize_publishes(daemon, elapsed_s=1.25)
        assert summary["publishes"] == 3
        assert summary["advanced"] == 2
        assert summary["noop"] == 1
        assert summary["sessions"] == 3
        assert summary["synchronized"] == 3
        assert summary["delta_saving_ratio"] > 1.0
        assert summary["elapsed_s"] == 1.25
        assert summary["mode"] == "serial"

    @pytest.mark.parametrize(
        "mode, resolved", [("auto", "serial"), ("thread", "thread")]
    )
    def test_summary_and_report_name_the_dispatch_mode(self, mode, resolved):
        daemon = RTRDaemon(RtrdConfig(workers=2, mode=mode))
        daemon.publish(world_slice(5))
        daemon.connect_many(2)
        summary = summarize_publishes(daemon)
        assert summary["mode"] == resolved
        header, _rule, row = obs.rtrd_report(summary).splitlines()[:3]
        assert header.split()[-1] == "dispatch"
        assert row.split()[-1] == resolved

    def test_rtrd_report_renders(self):
        daemon = RTRDaemon()
        daemon.publish(world_slice(10))
        daemon.connect_many(2)
        daemon.publish(world_slice(10, start=1))
        text = obs.rtrd_report(summarize_publishes(daemon))
        assert "synchronized" in text
        assert "delta saving ratio" in text


class TestContinuousIntegration:
    def test_rtr_sink_publishes_each_campaign(self):
        from repro.core.continuous import ContinuousStudy, RtrSink
        from repro.core.pipeline import MeasurementStudy
        from repro.web import EcosystemConfig, WebEcosystem

        world = WebEcosystem.build(
            EcosystemConfig(domain_count=40, seed=11)
        )
        study = MeasurementStudy.from_ecosystem(world)
        daemon = RTRDaemon()
        continuous = ContinuousStudy(study).attach(RtrSink(daemon))
        continuous.baseline()
        assert daemon.serial == 1
        routers = daemon.connect_many(3)
        continuous.refresh()  # same world: a wire no-op
        assert daemon.serial == 1
        truth = wire_table(daemon.vrps())
        assert all(
            wire_table(r.client.vrps()) == truth for r in routers
        )


class TestSyntheticWorld:
    def test_world_is_deterministic(self):
        a = SyntheticVRPWorld(50, seed="w")
        b = SyntheticVRPWorld(50, seed="w")
        a.advance(10)
        b.advance(10)
        assert wire_table(a.vrps()) == wire_table(b.vrps())

    def test_advance_announces_and_withdraws(self):
        world = SyntheticVRPWorld(40, seed="w")
        announced, withdrawn = world.advance(10)
        assert announced == 5 and withdrawn == 5
        assert len(world) == 40
