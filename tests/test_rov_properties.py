"""Property-based tests (hypothesis) for the ROV layer.

Four invariants the counterfactual engine leans on:

* **Enforcement monotonicity** — adding an enforcing AS never grows
  the set of ASes reachable by an RPKI-invalid announcement.
* **Signing neutrality** — issuing a ROA for an unhijacked, previously
  uncovered prefix never changes its path set (VALID and NOT_FOUND are
  both accepted; only INVALID is dropped).
* **Baseline identity** — ``whatif()`` with empty deltas is
  bit-identical to the baseline snapshot.
* **Order independence** — round evidence is invariant under vantage
  order, and campaign digests are invariant under shard boundaries.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp import ASTopology, PropagationEngine
from repro.bgp.messages import Announcement
from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.rov import (
    AdoptionFuture,
    ExperimentSpec,
    RovExperimentRunner,
    WhatIfEngine,
    build_round,
    run_round,
    seeded_enforcers,
    topology_digest,
)
from repro.rov import experiment
from repro.rpki import VRP, ValidatedPayloads
from repro.web import EcosystemConfig, WebEcosystem

seeds = st.integers(min_value=0, max_value=1_000_000)


def small_topology(seed):
    return ASTopology.generate(
        DeterministicRNG(seed),
        tier1=2, transit=4, eyeballs=5, hosters=4, cdns=0, stubs=5,
    )


# -- enforcement monotonicity ---------------------------------------------


class TestEnforcementMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(topo_seed=seeds, enf_seed=seeds, pick=seeds)
    def test_adding_enforcer_never_increases_invalid_reach(
        self, topo_seed, enf_seed, pick
    ):
        topology = small_topology(topo_seed)
        asns = sorted(topology.asns(), key=int)
        origin = asns[pick % len(asns)]
        extra = asns[(pick * 7 + 3) % len(asns)]
        prefix = Prefix.parse("198.18.200.0/24")
        payloads = ValidatedPayloads(
            [VRP(prefix, prefix.length, ASN(64999))]  # conflicting origin
        )
        announcements = [Announcement(prefix=prefix, origin=origin)]
        base = seeded_enforcers(topology, seed=enf_seed, scale=0.8)
        engine = PropagationEngine(topology)
        before = engine.propagate(
            announcements, payloads=payloads, enforcing=base
        ).routes_for(prefix)
        after = engine.propagate(
            announcements, payloads=payloads,
            enforcing=frozenset(base | {extra}),
        ).routes_for(prefix)
        assert after.keys() <= before.keys()


# -- signing neutrality ---------------------------------------------------


class TestSigningNeutrality:
    @settings(max_examples=30, deadline=None)
    @given(topo_seed=seeds, enf_seed=seeds, pick=seeds)
    def test_roa_for_unhijacked_prefix_keeps_path_set(
        self, topo_seed, enf_seed, pick
    ):
        topology = small_topology(topo_seed)
        asns = sorted(topology.asns(), key=int)
        origin = asns[pick % len(asns)]
        prefix = Prefix.parse("198.18.64.0/24")
        # Unrelated VRPs that do NOT cover the prefix: the route is
        # NOT_FOUND before signing and VALID after — never INVALID.
        unrelated = [VRP(Prefix.parse("10.0.0.0/16"), 24, ASN(65001))]
        signed = unrelated + [VRP(prefix, prefix.length, origin)]
        announcements = [Announcement(prefix=prefix, origin=origin)]
        enforcing = seeded_enforcers(topology, seed=enf_seed, scale=1.5)
        engine = PropagationEngine(topology)
        before = engine.propagate(
            announcements,
            payloads=ValidatedPayloads(unrelated),
            enforcing=enforcing,
        ).routes_for(prefix)
        after = engine.propagate(
            announcements,
            payloads=ValidatedPayloads(signed),
            enforcing=enforcing,
        ).routes_for(prefix)
        assert before == after


# -- whatif baseline identity ---------------------------------------------


@pytest.fixture(scope="module")
def whatif_engine():
    world = WebEcosystem.build(EcosystemConfig(domain_count=80, seed=2015))
    return WhatIfEngine(world, hijack_samples=6, seed=2015)


class TestWhatIfBaselineIdentity:
    def test_empty_future_is_bit_identical_to_baseline(self, whatif_engine):
        delta = whatif_engine.run(AdoptionFuture(name="noop"))
        assert delta.outcome == whatif_engine.baseline()
        assert delta.outcome.to_dict() == whatif_engine.baseline().to_dict()
        assert all(value == 0.0 for value in delta.deltas().values())

    def test_repeated_baseline_is_stable(self, whatif_engine):
        first = whatif_engine.baseline().to_dict()
        second = whatif_engine.baseline().to_dict()
        assert first == second


# -- classification order independence ------------------------------------


@pytest.fixture(scope="module")
def classification_fixture():
    topology = small_topology(77)
    enforcing = seeded_enforcers(topology, seed=77, scale=1.2)
    spec = ExperimentSpec(rounds=8, vantage_count=6, seed=77)
    runner = RovExperimentRunner(topology, enforcing, spec)
    reference = runner.run()
    return topology, enforcing, spec, runner, reference


class TestClassificationOrderIndependence:
    @settings(max_examples=20, deadline=None)
    @given(perm_seed=seeds, round_index=st.integers(min_value=0, max_value=7))
    def test_round_evidence_invariant_under_vantage_order(
        self, classification_fixture, perm_seed, round_index
    ):
        topology, enforcing, spec, _runner, _reference = classification_fixture
        digest = topology_digest(topology)
        round_input = build_round(topology, spec, digest, round_index)
        vantages = round_input.vantages
        shuffled = DeterministicRNG(perm_seed).sample(vantages, len(vantages))
        permuted = dataclasses.replace(
            round_input, vantages=tuple(shuffled)
        )
        engine = PropagationEngine(topology)
        original = run_round(engine, round_input, enforcing)
        reordered = run_round(engine, permuted, enforcing)
        assert original.evidence == reordered.evidence
        assert original.annotation_rows == reordered.annotation_rows
        assert original.vantage_observations == reordered.vantage_observations

    @settings(max_examples=10, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=6))
    def test_digest_invariant_under_shard_boundaries(
        self, classification_fixture, workers
    ):
        """``workers`` decides how the rounds are partitioned; every
        partition runs inline, so the example stays cheap."""
        _t, _e, _s, runner, reference = classification_fixture
        with mock.patch.object(
            experiment, "resolve_mode", lambda *_args, **_kw: "serial"
        ):
            report = runner.run(workers=workers)
        assert report.digest == reference.digest
        for asn, entry in reference.verdicts.items():
            assert report.verdicts[asn].row() == entry.row()

    def test_process_pool_partitions_match(self, classification_fixture):
        _t, _e, _s, runner, reference = classification_fixture
        report = runner.run(workers=3)
        assert report.digest == reference.digest
        for asn, entry in reference.verdicts.items():
            assert report.verdicts[asn].row() == entry.row()
