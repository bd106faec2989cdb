"""Unit tests for the ROV experiment runner and what-if engine."""

from __future__ import annotations

import pytest

from repro import obs
from repro.bgp import ASTopology
from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.rov import (
    ANNOTATION_INVALID_AS_SET,
    ANNOTATION_INVALID_ASN,
    ANNOTATION_INVALID_BOTH,
    ANNOTATION_INVALID_LENGTH,
    ANNOTATION_UNKNOWN,
    ANNOTATION_VALID,
    EXPERIMENT_RANGE,
    AdoptionFuture,
    ExperimentSpec,
    RovExperimentRunner,
    Verdict,
    WhatIfEngine,
    annotate_route,
    build_round,
    experiment_prefix_pair,
    future_census,
    named_future,
    named_futures,
    sample_futures,
    seeded_enforcers,
    topology_digest,
    whatif,
)
from repro.rpki import VRP, ValidatedPayloads
from repro.web import EcosystemConfig, WebEcosystem


def P(text: str) -> Prefix:
    return Prefix.parse(text)


@pytest.fixture(scope="module")
def topology():
    return ASTopology.generate(
        DeterministicRNG(7),
        tier1=3, transit=6, eyeballs=8, hosters=6, cdns=2, stubs=8,
    )


@pytest.fixture(scope="module")
def world():
    return WebEcosystem.build(EcosystemConfig(domain_count=80, seed=2015))


class TestAnnotation:
    def test_all_six_codes(self):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/16"), 16, ASN(65010))])
        assert annotate_route(payloads, P("10.0.0.0/16"), ASN(65010)) \
            == ANNOTATION_VALID
        assert annotate_route(payloads, P("192.0.2.0/24"), ASN(65010)) \
            == ANNOTATION_UNKNOWN
        assert annotate_route(payloads, P("10.0.0.0/16"), None) \
            == ANNOTATION_INVALID_AS_SET
        assert annotate_route(payloads, P("10.0.0.0/16"), ASN(65011)) \
            == ANNOTATION_INVALID_ASN
        assert annotate_route(payloads, P("10.0.1.0/24"), ASN(65010)) \
            == ANNOTATION_INVALID_LENGTH
        assert annotate_route(payloads, P("10.0.1.0/24"), ASN(65011)) \
            == ANNOTATION_INVALID_BOTH

    def test_any_full_match_wins(self):
        payloads = ValidatedPayloads([
            VRP(P("10.0.0.0/16"), 16, ASN(65010)),
            VRP(P("10.0.1.0/24"), 24, ASN(65010)),
        ])
        # Covered by a too-short VRP AND fully matched by its own:
        # RFC 6811 says any match makes the route VALID.
        assert annotate_route(payloads, P("10.0.1.0/24"), ASN(65010)) \
            == ANNOTATION_VALID


class TestExperimentPrefixes:
    def test_pairs_live_in_rfc2544_range(self):
        for index in (0, 1, 100, 255):
            anchor, experiment = experiment_prefix_pair(index)
            assert EXPERIMENT_RANGE.contains(anchor)
            assert EXPERIMENT_RANGE.contains(experiment)
            assert anchor != experiment
            assert anchor.length == experiment.length == 24

    def test_pairs_never_collide(self):
        seen = set()
        for index in range(256):
            pair = experiment_prefix_pair(index)
            assert pair[0] not in seen and pair[1] not in seen
            seen.update(pair)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            experiment_prefix_pair(-1)
        with pytest.raises(ValueError):
            experiment_prefix_pair(256)


class TestSpecAndDigest:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(rounds=0)
        with pytest.raises(ValueError):
            ExperimentSpec(rounds=257)
        with pytest.raises(ValueError):
            ExperimentSpec(vantage_count=0)

    def test_topology_digest_is_stable(self, topology):
        assert topology_digest(topology) == topology_digest(topology)

    def test_topology_digest_distinguishes_graphs(self, topology):
        other = ASTopology.generate(
            DeterministicRNG(8),
            tier1=3, transit=6, eyeballs=8, hosters=6, cdns=2, stubs=8,
        )
        assert topology_digest(topology) != topology_digest(other)


class TestBuildRound:
    def test_rounds_are_deterministic(self, topology):
        spec = ExperimentSpec(rounds=10, vantage_count=5, seed=4)
        digest = topology_digest(topology)
        for index in range(10):
            first = build_round(topology, spec, digest, index)
            again = build_round(topology, spec, digest, index)
            assert first == again
            assert first.origin not in first.vantages
            assert len(first.vantages) == 5

    def test_violation_schedule(self, topology):
        spec = ExperimentSpec(rounds=20, vantage_count=4, seed=4)
        digest = topology_digest(topology)
        # Round 9 and 19 violate both clauses; 3, 7, 11, 15 violate
        # maxLength only; the rest use a wrong-origin ROA.
        payload_kinds = {}
        for index in range(20):
            round_input = build_round(topology, spec, digest, index)
            experiment_vrp = round_input.vrps[1]
            wrong_origin = int(experiment_vrp.asn) != int(round_input.origin)
            covers_wider = experiment_vrp.prefix.length < 24
            payload_kinds[index] = (wrong_origin, covers_wider)
        assert payload_kinds[9] == (True, True)
        assert payload_kinds[19] == (True, True)
        for index in (3, 7, 11, 15):
            assert payload_kinds[index] == (False, True)
        assert payload_kinds[0] == (True, False)

    def test_anchor_stays_valid_in_every_round(self, topology):
        spec = ExperimentSpec(rounds=20, vantage_count=4, seed=4)
        digest = topology_digest(topology)
        for index in range(20):
            round_input = build_round(topology, spec, digest, index)
            payloads = ValidatedPayloads(round_input.vrps)
            assert annotate_route(
                payloads, round_input.anchor, round_input.origin
            ) == ANNOTATION_VALID
            assert annotate_route(
                payloads, round_input.experiment, round_input.origin
            ) != ANNOTATION_VALID


class TestSeededEnforcers:
    def test_deterministic_and_scale_sensitive(self, topology):
        first = seeded_enforcers(topology, seed=9)
        again = seeded_enforcers(topology, seed=9)
        assert first == again
        assert seeded_enforcers(topology, seed=9, scale=0.0) == frozenset()
        everyone = seeded_enforcers(topology, seed=9, scale=1000.0)
        assert everyone == frozenset(topology.asns())

    def test_per_as_outcome_independent_of_other_ases(self, topology):
        # The same AS must get the same coin flip in a different graph.
        small = ASTopology()
        node = next(iter(topology.ases()))
        small.add_as(node.asn, name=node.name, role=node.role,
                     organisation=node.organisation)
        whole = seeded_enforcers(topology, seed=9)
        alone = seeded_enforcers(small, seed=9)
        assert (node.asn in alone) == (node.asn in whole)


class TestRunnerReport:
    @pytest.fixture(scope="class")
    def report(self, topology):
        enforcing = seeded_enforcers(topology, seed=5, scale=1.5)
        spec = ExperimentSpec(rounds=16, vantage_count=6, seed=5)
        return RovExperimentRunner(topology, enforcing, spec).run(), enforcing

    def test_every_as_is_classified(self, topology, report):
        result, _enforcing = report
        assert set(result.verdicts) == set(topology.asns())
        assert sum(result.histogram().values()) == len(result.verdicts)

    def test_no_false_positives_and_no_conflicts(self, report):
        result, enforcing = report
        assert result.false_positives(enforcing) == []
        assert result.conflicts == 0

    def test_snippet_line_shape(self, report):
        result, enforcing = report
        parts = result.snippet_line(enforcing).split("|")
        assert len(parts) == 5
        assert all(part.isdigit() for part in parts)
        assert int(parts[0]) == result.vantage_observations
        assert int(parts[4]) == 0

    def test_to_dict_round_trips_digest(self, report):
        result, _enforcing = report
        payload = result.to_dict()
        assert payload["digest"] == result.digest
        assert payload["histogram"] == result.histogram()
        assert len(payload["verdicts"]) == len(result.verdicts)


class TestFutures:
    def test_named_futures(self, world):
        futures = named_futures(world)
        assert [f.name for f in futures] == \
            ["cdn-top5-sign", "tier1-enforce", "full-rov"]
        cdn, tier1, full = futures
        assert cdn.enforce == () and len(cdn.sign) <= 5
        assert tier1.sign == () and len(tier1.enforce) > 0
        assert len(full.sign) == len(world.organisations)
        assert len(full.enforce) == len(list(world.topology.asns()))

    def test_unknown_named_future_rejected(self, world):
        with pytest.raises(ValueError):
            named_future(world, "cdn-top6-sign")

    def test_sampled_futures_are_deterministic(self, world):
        first = sample_futures(world, 6, seed=3)
        again = sample_futures(world, 6, seed=3)
        assert first == again
        census = future_census(first)
        assert census["futures"] == 6

    def test_future_canonicalises_members(self):
        future = AdoptionFuture(
            name="x", sign=("b", "a"), enforce=(ASN(20), ASN(10))
        )
        assert future.sign == ("a", "b")
        assert future.enforce == (ASN(10), ASN(20))
        assert "sign:a,b" in future.label()


class TestWhatIf:
    @pytest.fixture(scope="class")
    def engine(self, world):
        return WhatIfEngine(world, hijack_samples=5, seed=2015)

    def test_full_rov_removes_invalid_exposure(self, world, engine):
        delta = engine.run(named_future(world, "full-rov"))
        assert delta.outcome.valid_fraction > delta.baseline.valid_fraction
        assert delta.outcome.rpki_enabled_share == 1.0
        assert delta.outcome.hijack_capture_mean \
            <= delta.baseline.hijack_capture_mean

    def test_signing_only_future_never_blocks_hijacks(self, world, engine):
        delta = engine.run(named_future(world, "cdn-top5-sign"))
        # ROAs without enforcement: data-plane exposure is unchanged.
        assert delta.deltas()["hijack_capture_mean"] == 0.0
        assert delta.deltas()["hijack_blocked_share"] == 0.0

    def test_run_futures_keeps_input_order(self, world, engine):
        futures = named_futures(world)
        deltas = engine.run_futures(futures)
        assert [d.future for d in deltas] == [f.name for f in futures]

    def test_whatif_convenience_wrapper(self, world, engine):
        org = world.organisations[0]
        delta = whatif(world, sign=[org.name], name="one-org", engine=engine)
        assert delta.future == "one-org"
        assert delta.signing_orgs == 1
        assert delta.outcome.valid_fraction >= delta.baseline.valid_fraction


class TestMetrics:
    def test_rov_counters_recorded(self, topology, world):
        registry, _collector = obs.enable()
        try:
            enforcing = seeded_enforcers(topology, seed=5)
            spec = ExperimentSpec(rounds=4, vantage_count=4, seed=5)
            RovExperimentRunner(topology, enforcing, spec).run()
            engine = WhatIfEngine(world, hijack_samples=3, seed=2015)
            engine.run(AdoptionFuture(name="noop"))
            text = registry.render_prometheus()
        finally:
            obs.disable()
        assert "ripki_rov_experiments_total 4" in text
        assert 'ripki_rov_verdicts_total{verdict="inconclusive"}' in text
        assert "ripki_rov_futures_total 1" in text
        assert "ripki_rov_hijack_replays_total 3" in text

    def test_whatif_counters_identical_across_backends(self, world):
        engine = WhatIfEngine(world, hijack_samples=3, seed=2015)
        exported = {}
        for workers in (1, 2):  # serial, then the process pool
            registry, _collector = obs.enable()
            try:
                engine.run_futures(named_futures(world), workers=workers)
            finally:
                obs.disable()
            exported[workers] = [
                line
                for line in registry.render_prometheus().splitlines()
                if line.startswith("ripki_rov_")
            ]
        assert "ripki_rov_futures_total 3" in exported[1]
        assert "ripki_rov_hijack_replays_total 9" in exported[1]
        assert exported[2] == exported[1]
