"""The time-stepped CA/publication world engine (``repro.world``)."""

import pytest

from repro.cache.fingerprint import vrp_digest, vrp_items
from repro.core import (
    CacheConfig,
    ContinuousStudy,
    MeasurementStudy,
    RtrSink,
    RunConfig,
)
from repro.rtrd import RTRDaemon
from repro.web import EcosystemConfig, WebEcosystem
from repro.world import (
    WORLD_PROFILES,
    WorldConfig,
    WorldEngine,
    WorldSink,
    vrp_rows,
    world_plan,
)
from repro.world.events import (
    CRL_SKIPPED,
    MANIFEST_SKIPPED,
    PP_OUTAGE,
    ROA_ISSUED,
    ROLLOVER_COMPLETED,
    ROLLOVER_STAGED,
    STEP_OBSERVED,
)


def synthetic(profile="sloppy-ca", seed=7, **overrides):
    return WorldEngine.synthetic(
        WorldConfig(profile=profile, seed=seed, **overrides)
    )


class TestScenarios:
    def test_profiles_cover_the_paper_story(self):
        assert {"calm", "sloppy-ca", "flap", "rollover-storm"} <= set(
            WORLD_PROFILES
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown world profile"):
            world_plan("frantic")

    def test_plan_is_pure_in_seed(self):
        a = world_plan("flap", seed=3)
        b = world_plan("flap", seed=3)
        decisions = [
            (kind, key)
            for kind in sorted(WORLD_PROFILES["flap"])
            for key in ("CA-00#1", "CA-01#2", "CA-02#3")
        ]
        assert [a.should_fail(k, key, 0) for k, key in decisions] == [
            b.should_fail(k, key, 0) for k, key in decisions
        ]


class TestDeterminism:
    def test_same_seed_same_ledger_and_vrps(self):
        a = synthetic()
        b = synthetic()
        a.run(20)
        b.run(20)
        assert a.ledger.digest() == b.ledger.digest()
        assert vrp_rows(a.payloads) == vrp_rows(b.payloads)

    def test_different_seed_different_ledger(self):
        a = synthetic(seed=1)
        b = synthetic(seed=2)
        a.run(10)
        b.run(10)
        assert a.ledger.digest() != b.ledger.digest()

    def test_per_step_vrp_rows_replay(self):
        a = synthetic(profile="flap", seed=5)
        b = synthetic(profile="flap", seed=5)
        for _ in range(12):
            assert vrp_rows(a.step().payloads) == vrp_rows(b.step().payloads)


class TestChurnMechanics:
    def test_sloppy_ca_emits_every_operational_failure(self):
        engine = synthetic(seed=7)
        engine.run(20)
        counts = engine.ledger.counts_by_kind()
        assert counts.get(ROA_ISSUED, 0) > 0
        assert counts.get(MANIFEST_SKIPPED, 0) > 0
        assert counts.get(CRL_SKIPPED, 0) > 0
        assert counts.get(PP_OUTAGE, 0) > 0
        assert counts.get(STEP_OBSERVED) == 21  # bootstrap + 20 steps

    def test_calm_world_never_degrades(self):
        engine = synthetic(profile="calm", seed=3)
        engine.run(15)
        summary = engine.summary()
        assert summary.stale_point_observations == 0
        assert summary.dropped_point_observations == 0
        assert summary.final_vrps > 0

    def test_sloppy_ca_opens_stale_windows_but_world_survives(self):
        engine = synthetic(seed=7)
        engine.run(20)
        summary = engine.summary()
        assert summary.stale_point_observations > 0
        assert summary.final_vrps > 0

    def test_grace_decides_when_stale_points_drop(self):
        # Same seed, same CA behaviour: only the relying party's
        # patience differs, so a zero grace window drops what two days
        # keep.
        strict = synthetic(grace=0.0)
        strict.run(20)
        lenient = synthetic()
        lenient.run(20)
        assert (
            strict.summary().dropped_point_observations
            > lenient.summary().dropped_point_observations
        )
        assert vrp_rows(strict.payloads) != vrp_rows(lenient.payloads)

    def test_rollover_storm_stages_and_completes(self):
        engine = synthetic(profile="rollover-storm", seed=3)
        engine.run(15)
        counts = engine.ledger.counts_by_kind()
        assert counts.get(ROLLOVER_STAGED, 0) > 0
        assert counts.get(ROLLOVER_COMPLETED, 0) > 0
        assert engine.summary().final_vrps > 0

    def test_rollover_does_not_read_as_vrp_change(self):
        # Delta accounting keys on (prefix, max_length, asn) only —
        # the trust-anchor label a rollover rewrites is excluded, so
        # re-signing the same ROAs under a new key is delta-invisible.
        from repro.net import ASN, Prefix
        from repro.rpki.vrp import VRP
        from repro.world import vrp_key

        before = VRP(Prefix.parse("60.0.0.0/20"), 24, ASN(64496), "old-ta")
        after = VRP(Prefix.parse("60.0.0.0/20"), 24, ASN(64496), "new-ta")
        assert vrp_key(before) == vrp_key(after)

    def test_summary_dict_roundtrips_the_digest(self):
        engine = synthetic(seed=7)
        engine.run(5)
        summary = engine.summary().to_dict()
        assert summary["ledger_digest"] == engine.ledger.digest()
        assert summary["steps"] == 5
        assert len(summary["delta_sizes"]) == 5


class TestFromEcosystem:
    def test_bootstrap_matches_adoption_payloads(self):
        world = WebEcosystem.build(
            EcosystemConfig(domain_count=200, seed=11)
        )
        engine = WorldEngine.from_ecosystem(world)
        assert len(engine.payloads) == len(world.payloads())
        assert vrp_digest(vrp_items(engine.payloads)) == vrp_digest(
            vrp_items(world.payloads())
        )

    def test_ecosystem_world_steps_deterministically(self):
        config = WorldConfig(profile="sloppy-ca", seed=11)
        digests = []
        for _ in range(2):
            world = WebEcosystem.build(
                EcosystemConfig(domain_count=200, seed=11)
            )
            engine = WorldEngine.from_ecosystem(world, config)
            engine.run(8)
            digests.append(engine.ledger.digest())
        assert digests[0] == digests[1]


class TestBackendIndependence:
    @pytest.mark.parametrize("mode,workers", [
        ("serial", 1), ("thread", 2), ("process", 2),
    ])
    def test_world_campaigns_identical_across_backends(
        self, mode, workers, tmp_path
    ):
        # The world's evolution is a pure function of (seed, profile);
        # the measurement backend must not leak into the ledger or the
        # measured results.
        world = WebEcosystem.build(
            EcosystemConfig(domain_count=80, seed=11)
        )
        study = MeasurementStudy.from_ecosystem(world)
        engine = WorldEngine.from_ecosystem(
            world, WorldConfig(profile="sloppy-ca", seed=11)
        )
        continuous = ContinuousStudy(
            study,
            RunConfig(
                workers=workers,
                mode=mode,
                cache=CacheConfig(tmp_path / mode),
            ),
        ).attach(WorldSink(engine))
        continuous.baseline()
        for _ in range(4):
            continuous.refresh()
        # Reference: the same world stepped without any measurement
        # loop at all.  The backend must not leak into the ledger.
        reference = WorldEngine.from_ecosystem(
            WebEcosystem.build(EcosystemConfig(domain_count=80, seed=11)),
            WorldConfig(profile="sloppy-ca", seed=11),
        )
        reference.run(4)
        assert engine.ledger.digest() == reference.ledger.digest()
        assert vrp_rows(engine.payloads) == vrp_rows(reference.payloads)


class TestWorldSinkIntegration:
    def test_fifty_step_sloppy_ca_drives_cache_and_rtr(self, tmp_path):
        world = WebEcosystem.build(
            EcosystemConfig(domain_count=150, seed=7)
        )
        study = MeasurementStudy.from_ecosystem(world)
        engine = WorldEngine.from_ecosystem(
            world, WorldConfig(profile="sloppy-ca", seed=7)
        )
        daemon = RTRDaemon()
        world_sink = WorldSink(engine)
        rtr_sink = RtrSink(daemon)
        continuous = ContinuousStudy(
            study, RunConfig(cache=CacheConfig(tmp_path / "cache"))
        ).attach(world_sink, rtr_sink)
        continuous.baseline()
        invalidated = 0
        for _ in range(50):
            result, _stats = continuous.refresh()
            invalidated += sum(
                result.statistics.cache_invalidated_by_stage.values()
            )
        assert engine.current.index == 50
        assert len(world_sink.steps) == 51
        # Churn must actually reach the snapshot cache and the wire.
        assert invalidated > 0
        deltas = [
            p.announced + p.withdrawn
            for p in rtr_sink.publishes
            if p.advanced
        ]
        assert deltas and sum(deltas) > 0
        # The daemon's final table is the engine's final observation.
        assert vrp_rows(daemon.vrps()) == vrp_rows(engine.payloads)
        # And the whole 50-step history replays bit-identically.
        replay = WorldEngine.from_ecosystem(
            WebEcosystem.build(EcosystemConfig(domain_count=150, seed=7)),
            WorldConfig(profile="sloppy-ca", seed=7),
        )
        replay.run(50)
        assert replay.ledger.digest() == engine.ledger.digest()
        assert vrp_rows(replay.payloads) == vrp_rows(engine.payloads)
