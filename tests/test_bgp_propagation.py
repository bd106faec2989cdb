"""Tests for Gao-Rexford route propagation."""

import pytest

from repro.bgp import (
    Announcement,
    ASRole,
    ASTopology,
    PropagationEngine,
    RouteClass,
)
from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.rpki import VRP, ValidatedPayloads


def P(text):
    return Prefix.parse(text)


@pytest.fixture()
def diamond():
    """Two tier-1s (1,2) peering; transits 3,4; stubs 5 (under 3), 6 (under 4).

        1 --peer-- 2
        |          |
        3          4
        |          |
        5          6
    """
    topo = ASTopology()
    for asn, role in [(1, ASRole.TIER1), (2, ASRole.TIER1),
                      (3, ASRole.TRANSIT), (4, ASRole.TRANSIT),
                      (5, ASRole.STUB), (6, ASRole.STUB)]:
        topo.add_as(asn, role=role)
    topo.add_peering(1, 2)
    topo.add_provider(3, 1)
    topo.add_provider(4, 2)
    topo.add_provider(5, 3)
    topo.add_provider(6, 4)
    return topo


class TestBasicPropagation:
    def test_full_reachability(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 5)])
        assert set(state.routes_for(P("10.0.0.0/16"))) == {
            ASN(a) for a in (1, 2, 3, 4, 5, 6)
        }

    def test_paths_are_valley_free(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 5)])
        # AS6 must reach via 6 4 2 1 3 5 (down its provider chain).
        entry = state.route_at(6, P("10.0.0.0/16"))
        assert [int(a) for a in entry.path] == [6, 4, 2, 1, 3, 5]
        assert entry.route_class is RouteClass.PROVIDER_ROUTE

    def test_route_classes(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 5)])
        prefix = P("10.0.0.0/16")
        assert state.route_at(5, prefix).route_class is RouteClass.ORIGIN
        assert state.route_at(3, prefix).route_class is RouteClass.CUSTOMER_ROUTE
        assert state.route_at(1, prefix).route_class is RouteClass.CUSTOMER_ROUTE
        assert state.route_at(2, prefix).route_class is RouteClass.PEER_ROUTE
        assert state.route_at(4, prefix).route_class is RouteClass.PROVIDER_ROUTE

    def test_origin_and_learned_from(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 5)])
        prefix = P("10.0.0.0/16")
        assert state.route_at(5, prefix).learned_from is None
        assert state.route_at(3, prefix).learned_from == 5
        assert state.route_at(3, prefix).origin == 5

    def test_no_peer_transit(self):
        """A route learned from a peer must not be re-exported to peers."""
        topo = ASTopology()
        for asn in (1, 2, 3, 10):
            topo.add_as(asn)
        topo.add_peering(1, 2)
        topo.add_peering(2, 3)
        topo.add_provider(10, 1)  # origin is customer of 1
        engine = PropagationEngine(topo)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 10)])
        prefix = P("10.0.0.0/16")
        assert state.route_at(2, prefix) is not None  # one peer hop OK
        assert state.route_at(3, prefix) is None      # two peer hops: never

    def test_prefer_customer_over_peer(self):
        """An AS hearing a route from both customer and peer picks customer."""
        topo = ASTopology()
        for asn in (1, 2, 10):
            topo.add_as(asn)
        topo.add_peering(1, 2)
        topo.add_provider(10, 1)
        topo.add_provider(10, 2)
        engine = PropagationEngine(topo)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 10)])
        entry = state.route_at(1, P("10.0.0.0/16"))
        assert entry.route_class is RouteClass.CUSTOMER_ROUTE
        assert entry.learned_from == 10

    def test_shortest_path_tiebreak(self):
        """Between two customer routes, shorter AS path wins."""
        topo = ASTopology()
        for asn in (1, 2, 3, 10):
            topo.add_as(asn)
        topo.add_provider(10, 2)    # 10 -> 2 -> 1 (long way)
        topo.add_provider(2, 1)
        topo.add_provider(10, 1)    # 10 -> 1 (short way)
        del topo  # rebuild to order links deterministically
        topo = ASTopology()
        for asn in (1, 2, 10):
            topo.add_as(asn)
        topo.add_provider(10, 2)
        topo.add_provider(2, 1)
        topo.add_provider(10, 1)
        engine = PropagationEngine(topo)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 10)])
        entry = state.route_at(1, P("10.0.0.0/16"))
        assert [int(a) for a in entry.path] == [1, 10]

    def test_lowest_neighbor_tiebreak(self):
        """Equal class and length: lowest sender ASN wins."""
        topo = ASTopology()
        for asn in (1, 2, 3, 10):
            topo.add_as(asn)
        topo.add_provider(10, 2)
        topo.add_provider(10, 3)
        topo.add_provider(2, 1)
        topo.add_provider(3, 1)
        engine = PropagationEngine(topo)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 10)])
        entry = state.route_at(1, P("10.0.0.0/16"))
        assert entry.learned_from == 2

    def test_unknown_origin_ignored(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate([Announcement.make("10.0.0.0/16", 999)])
        assert set(state.routes_for(P("10.0.0.0/16"))) == set()

    def test_multiple_prefixes(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate(
            [
                Announcement.make("10.0.0.0/16", 5),
                Announcement.make("192.0.2.0/24", 6),
            ]
        )
        assert len(state) == 2
        assert state.route_at(5, P("192.0.2.0/24")) is not None


    def test_engine_follows_the_topology_it_was_given(self, diamond):
        """One engine, one topology, mutated between two calls."""
        engine = PropagationEngine(diamond)
        announcements = [Announcement.make("10.0.0.0/16", 5)]
        prefix = P("10.0.0.0/16")
        before = engine.propagate(announcements)
        assert [int(a) for a in before.route_at(4, prefix).path] == [4, 2, 1, 3, 5]

        diamond.add_as(7)
        diamond.add_provider(7, 3)
        diamond.add_peering(3, 4)
        after = engine.propagate(announcements)
        new_as = after.route_at(7, prefix)
        assert [int(a) for a in new_as.path] == [7, 3, 5]
        assert new_as.route_class is RouteClass.PROVIDER_ROUTE
        new_peer = after.route_at(4, prefix)
        assert [int(a) for a in new_peer.path] == [4, 3, 5]
        assert new_peer.route_class is RouteClass.PEER_ROUTE
        assert new_peer.learned_from == 3


class TestAnycastAndMoas:
    def test_anycast_origins_each_keep_own_route(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate(
            [
                Announcement.make("10.0.0.0/16", 5),
                Announcement.make("10.0.0.0/16", 6),
            ]
        )
        prefix = P("10.0.0.0/16")
        assert state.route_at(5, prefix).route_class is RouteClass.ORIGIN
        assert state.route_at(6, prefix).route_class is RouteClass.ORIGIN
        # Each side of the diamond routes to its nearby origin.
        assert state.route_at(3, prefix).origin == 5
        assert state.route_at(4, prefix).origin == 6

    def test_aggregate_announcement_as_set(self, diamond):
        engine = PropagationEngine(diamond)
        state = engine.propagate(
            [Announcement.make("10.0.0.0/8", 5, aggregate_members=[64500, 64501])]
        )
        entry = state.route_at(1, P("10.0.0.0/8"))
        assert entry.path.has_as_set()
        assert entry.origin is None


class TestRPKIFiltering:
    def test_enforcing_as_drops_invalid(self, diamond):
        payloads = ValidatedPayloads(
            [VRP(P("10.0.0.0/16"), 16, ASN(6))]  # only AS6 is authorized
        )
        engine = PropagationEngine(diamond)
        hijack = Announcement.make("10.0.0.0/16", 5)  # AS5 is NOT authorized
        enforcing = frozenset({ASN(1), ASN(2), ASN(3), ASN(4), ASN(6)})
        state = engine.propagate([hijack], payloads=payloads, enforcing=enforcing)
        prefix = P("10.0.0.0/16")
        # AS3 enforces: drops the invalid customer route; nothing reaches
        # the rest of the topology either.
        assert state.route_at(3, prefix) is None
        assert state.route_at(1, prefix) is None
        assert state.route_at(5, prefix) is not None  # origin keeps its own

    def test_non_enforcing_as_accepts_invalid(self, diamond):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/16"), 16, ASN(6))])
        engine = PropagationEngine(diamond)
        hijack = Announcement.make("10.0.0.0/16", 5)
        state = engine.propagate(
            [hijack], payloads=payloads, enforcing=frozenset({ASN(4)})
        )
        prefix = P("10.0.0.0/16")
        assert state.route_at(3, prefix) is not None  # not enforcing
        assert state.route_at(4, prefix) is None      # enforcing, drops

    def test_valid_and_notfound_pass_filter(self, diamond):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/16"), 16, ASN(5))])
        engine = PropagationEngine(diamond)
        enforcing = frozenset(ASN(a) for a in (1, 2, 3, 4, 5, 6))
        state = engine.propagate(
            [
                Announcement.make("10.0.0.0/16", 5),    # valid
                Announcement.make("192.0.2.0/24", 6),   # not found
            ],
            payloads=payloads,
            enforcing=enforcing,
        )
        assert len(state.routes_for(P("10.0.0.0/16"))) == 6
        assert len(state.routes_for(P("192.0.2.0/24"))) == 6

    def test_as_set_origin_dropped_when_covered(self, diamond):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/8"), 16, ASN(5))])
        engine = PropagationEngine(diamond)
        enforcing = frozenset({ASN(3)})
        state = engine.propagate(
            [Announcement.make("10.0.0.0/16", 5, aggregate_members=[7, 8])],
            payloads=payloads,
            enforcing=enforcing,
        )
        # AS3 enforces and the prefix is covered: AS_SET origin -> drop.
        assert state.route_at(3, P("10.0.0.0/16")) is None


class TestGeneratedTopology:
    def test_propagation_over_generated_graph(self):
        topo = ASTopology.generate(DeterministicRNG(5))
        engine = PropagationEngine(topo)
        stub = topo.by_role(ASRole.STUB)[0]
        state = engine.propagate([Announcement.make("10.0.0.0/16", stub.asn)])
        # With a connected hierarchy every AS should learn the route.
        assert len(state.routes_for(P("10.0.0.0/16"))) == len(topo)

    def test_loops_never_form(self):
        topo = ASTopology.generate(DeterministicRNG(6))
        engine = PropagationEngine(topo)
        hoster = topo.by_role(ASRole.HOSTER)[0]
        state = engine.propagate([Announcement.make("10.0.0.0/16", hoster.asn)])
        for asn, entry in state.routes_for(P("10.0.0.0/16")).items():
            asns = [int(a) for a in entry.path]
            assert len(asns) == len(set(asns)), f"loop in {entry.path}"


class TestAdjacencyOrderIndependence:
    """Re-runs must not depend on dict iteration order of adjacency.

    The topology's per-AS adjacency is a dict in edge-insertion order.
    Inserting the same edges in a different (seeded) permutation must
    yield bit-identical converged state from both the algebraic engine
    and the message-passing simulator — the ROV experiment layer
    replays propagation thousands of times and any order sensitivity
    would poison its verdict digests.
    """

    @staticmethod
    def _edge_list(rng):
        topo = ASTopology.generate(
            DeterministicRNG(11), transit=10, eyeballs=12, hosters=10, stubs=12
        )
        nodes = [(n.asn, n.name, n.role, n.organisation) for n in topo.ases()]
        edges = []
        seen = set()
        for a in topo.asns():
            for b, rel in topo.neighbors(a).items():
                key = tuple(sorted((int(a), int(b))))
                if key in seen:
                    continue
                seen.add(key)
                if rel.name == "PEER":
                    edges.append(("peer", a, b))
                elif rel.name == "PROVIDER":
                    edges.append(("provider", a, b))  # a buys from b
                else:
                    edges.append(("provider", b, a))
        if rng is not None:
            nodes = rng.sample(nodes, len(nodes))
            edges = rng.sample(edges, len(edges))
        return nodes, edges

    @staticmethod
    def _build(nodes, edges):
        topo = ASTopology()
        for asn, name, role, organisation in nodes:
            topo.add_as(asn, name=name, role=role, organisation=organisation)
        for kind, a, b in edges:
            if kind == "peer":
                topo.add_peering(a, b)
            else:
                topo.add_provider(a, b)
        return topo

    def _announcements(self, topo):
        origins = sorted(topo.asns(), key=int)[:6]
        return [
            Announcement.make(f"10.{i}.0.0/16", origin)
            for i, origin in enumerate(origins)
        ]

    def test_engine_state_invariant_under_edge_permutation(self):
        reference_nodes, reference_edges = self._edge_list(None)
        reference = self._build(reference_nodes, reference_edges)
        announcements = self._announcements(reference)
        expected = PropagationEngine(reference).propagate(announcements)
        for seed in range(5):
            nodes, edges = self._edge_list(DeterministicRNG(f"perm:{seed}"))
            permuted = self._build(nodes, edges)
            state = PropagationEngine(permuted).propagate(announcements)
            for announcement in announcements:
                prefix = announcement.prefix
                got = state.routes_for(prefix)
                want = expected.routes_for(prefix)
                assert sorted(got) == sorted(want)
                for asn in want:
                    assert got[asn] == want[asn], (seed, asn)

    def test_session_simulator_invariant_under_edge_permutation(self):
        from repro.bgp.session import SessionSimulator

        reference_nodes, reference_edges = self._edge_list(None)
        reference = self._build(reference_nodes, reference_edges)
        announcements = self._announcements(reference)

        def converge(topo):
            sim = SessionSimulator(topo)
            for announcement in announcements:
                sim.announce(announcement)
            sim.run()
            state = sim.routing_state()
            return {
                prefix: sorted(
                    (int(asn), tuple(int(a) for a in entry.path))
                    for asn, entry in state.routes_for(prefix).items()
                )
                for prefix in state.prefixes()
            }

        expected = converge(reference)
        for seed in range(3):
            nodes, edges = self._edge_list(DeterministicRNG(f"sim:{seed}"))
            assert converge(self._build(nodes, edges)) == expected

    def test_rov_experiment_digest_invariant_under_edge_permutation(self):
        from repro.rov import ExperimentSpec, RovExperimentRunner, \
            seeded_enforcers, topology_digest

        reference_nodes, reference_edges = self._edge_list(None)
        reference = self._build(reference_nodes, reference_edges)
        spec = ExperimentSpec(rounds=12, vantage_count=8, seed=11)
        enforcing = seeded_enforcers(reference, seed=11)
        expected = RovExperimentRunner(reference, enforcing, spec).run()
        for seed in range(3):
            nodes, edges = self._edge_list(DeterministicRNG(f"rov:{seed}"))
            permuted = self._build(nodes, edges)
            assert topology_digest(permuted) == topology_digest(reference)
            report = RovExperimentRunner(permuted, enforcing, spec).run()
            assert report.digest == expected.digest
