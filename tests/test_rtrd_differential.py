"""Differential harness: churn vs truth.

Drives the daemon through seeded churn — connects, disconnects,
lagging serials, garbage bytes, a mutating world — and asserts the
one invariant the whole RTR design exists to provide: after the dust
settles, **every surviving router's table is bit-identical on the
wire to the cache's snapshot**, regardless of how the interleaving
went.  Runs are seeded, so any failure replays exactly.
"""

import pytest

from repro.rtrd import (
    ChurnProfile,
    RTRDaemon,
    RtrdConfig,
    SyntheticVRPWorld,
    run_churn,
    wire_table,
)

PROFILES = {
    "calm": ChurnProfile(
        rounds=4, target_sessions=12, disconnect=0.0, lag=0.0,
        garbage=0.0, world_changes=10, seed="calm",
    ),
    "flapping": ChurnProfile(
        rounds=6, target_sessions=16, disconnect=0.25, lag=0.0,
        garbage=0.0, world_changes=16, seed="flapping",
    ),
    "laggy": ChurnProfile(
        rounds=8, target_sessions=16, disconnect=0.0, lag=0.4,
        garbage=0.0, world_changes=16, seed="laggy",
    ),
    "hostile": ChurnProfile(
        rounds=6, target_sessions=16, disconnect=0.1, lag=0.2,
        garbage=0.3, world_changes=16, seed="hostile",
    ),
}


def churned_daemon(profile, workers=1, world_seed="diff-world", mode="auto"):
    world = SyntheticVRPWorld(120, seed=world_seed)
    daemon = RTRDaemon(RtrdConfig(workers=workers, mode=mode))
    daemon.publish(world.vrps())
    daemon.connect_many(profile.target_sessions)
    summary = run_churn(daemon, world, profile)
    return daemon, world, summary


def assert_bit_identical(daemon):
    truth = wire_table(daemon.vrps())
    mismatched = [
        router.name
        for router in daemon.manager.routers()
        if router.alive and wire_table(router.client.vrps()) != truth
    ]
    assert mismatched == [], f"router tables diverged: {mismatched}"


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_surviving_tables_bit_identical(self, name):
        daemon, _world, summary = churned_daemon(PROFILES[name])
        assert summary.converged, summary
        assert summary.diverged == 0
        assert_bit_identical(daemon)
        # The population is healthy, not vacuously empty.
        assert summary.final_synchronized == PROFILES[name].target_sessions

    @pytest.mark.parametrize("name", ["laggy", "hostile"])
    def test_threaded_churn_matches_serial(self, name):
        serial_daemon, _w1, serial_summary = churned_daemon(
            PROFILES[name], workers=1
        )
        thread_daemon, _w2, thread_summary = churned_daemon(
            PROFILES[name], workers=4, mode="thread"
        )
        assert thread_daemon.config.resolved_mode == "thread"
        assert serial_summary == thread_summary
        assert wire_table(serial_daemon.vrps()) == wire_table(
            thread_daemon.vrps()
        )
        serial_tables = sorted(
            (r.name, wire_table(r.client.vrps()))
            for r in serial_daemon.manager.routers()
        )
        thread_tables = sorted(
            (r.name, wire_table(r.client.vrps()))
            for r in thread_daemon.manager.routers()
        )
        assert serial_tables == thread_tables

    def test_replay_is_deterministic(self):
        _d1, _w1, first = churned_daemon(PROFILES["hostile"])
        _d2, _w2, second = churned_daemon(PROFILES["hostile"])
        assert first == second

    def test_seed_actually_varies_the_run(self):
        base = PROFILES["hostile"]
        other = ChurnProfile(
            rounds=base.rounds, target_sessions=base.target_sessions,
            disconnect=base.disconnect, lag=base.lag,
            garbage=base.garbage, world_changes=base.world_changes,
            seed="hostile-2",
        )
        _d1, _w1, first = churned_daemon(base)
        _d2, _w2, second = churned_daemon(other)
        assert first != second  # both converge, along different paths
        assert first.converged and second.converged

    def test_hostile_run_exercises_every_failure_mode(self):
        _daemon, _world, summary = churned_daemon(PROFILES["hostile"])
        assert summary.garbage_frames > 0
        assert summary.lag_assignments > 0
        assert summary.disconnects > 0
        assert summary.revives + summary.disconnects > 0

    def test_quarantined_sessions_never_hold_stale_tables_silently(self):
        # After a hostile run plus the final restart pass, no session
        # may still be quarantined while its router looks usable.
        daemon, _world, summary = churned_daemon(PROFILES["hostile"])
        assert summary.final_quarantined == 0
