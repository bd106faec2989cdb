"""Tests for the event-driven BGP session simulator."""

import pytest

from repro.bgp import (
    Announcement,
    ASRole,
    ASTopology,
    PropagationEngine,
    Relationship,
    RouteClass,
)
from repro.bgp.errors import BGPError
from repro.bgp.session import BGPSpeaker, SessionSimulator, UpdateMessage
from repro.crypto import DeterministicRNG
from repro.net import ASN, Prefix
from repro.rpki import VRP, ValidatedPayloads


def P(text):
    return Prefix.parse(text)


@pytest.fixture()
def diamond():
    topo = ASTopology()
    for asn in (1, 2, 3, 4, 5, 6):
        topo.add_as(asn)
    topo.add_peering(1, 2)
    topo.add_provider(3, 1)
    topo.add_provider(4, 2)
    topo.add_provider(5, 3)
    topo.add_provider(6, 4)
    return topo


class TestConvergence:
    def test_single_announcement_reaches_everyone(self, diamond):
        sim = SessionSimulator(diamond)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        processed = sim.run()
        assert processed > 0
        assert sim.converged
        state = sim.routing_state()
        assert set(state.routes_for(P("10.0.0.0/16"))) == {
            ASN(a) for a in (1, 2, 3, 4, 5, 6)
        }

    def test_valley_free_paths(self, diamond):
        sim = SessionSimulator(diamond)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        sim.run()
        entry = sim.route_at(ASN(6), P("10.0.0.0/16"))
        assert [int(a) for a in entry.path] == [6, 4, 2, 1, 3, 5]

    def test_withdrawal_heals_everywhere(self, diamond):
        sim = SessionSimulator(diamond)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        sim.run()
        sim.withdraw(P("10.0.0.0/16"), ASN(5))
        sim.run()
        state = sim.routing_state()
        assert set(state.routes_for(P("10.0.0.0/16"))) == set()
        # Adj-RIB-Out entries are withdrawn too.
        for speaker in sim.speakers.values():
            assert not any(
                prefix == P("10.0.0.0/16")
                for _n, prefix in speaker.adj_rib_out
            )

    def test_anycast_withdrawal_fails_over(self, diamond):
        sim = SessionSimulator(diamond)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        sim.announce(Announcement.make("10.0.0.0/16", 6))
        sim.run()
        assert sim.route_at(ASN(4), P("10.0.0.0/16")).origin == 6
        sim.withdraw(P("10.0.0.0/16"), ASN(6))
        sim.run()
        # AS4 fails over to the remaining origin.
        assert sim.route_at(ASN(4), P("10.0.0.0/16")).origin == 5

    def test_unknown_origin_rejected(self, diamond):
        sim = SessionSimulator(diamond)
        with pytest.raises(BGPError):
            sim.announce(Announcement.make("10.0.0.0/16", 999))

    def test_message_budget_guard(self, diamond):
        sim = SessionSimulator(diamond)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        with pytest.raises(BGPError):
            sim.run(max_messages=1)


def random_topology(seed):
    return ASTopology.generate(
        DeterministicRNG(seed), tier1=3, transit=8, eyeballs=10,
        hosters=8, cdns=2, stubs=10,
    )


def simulate(topo, announcements, payloads=None, enforcing=()):
    sim = SessionSimulator(topo)
    if payloads is not None:
        sim.configure_validation(payloads, enforcing)
        sim.run()
    for announcement in announcements:
        sim.announce(announcement)
    sim.run()
    return sim.routing_state()


def assert_same_routes(static_state, dynamic_state, prefix):
    static_routes = static_state.routes_for(prefix)
    dynamic_routes = dynamic_state.routes_for(prefix)
    assert set(static_routes) == set(dynamic_routes), prefix
    for asn, static_entry in static_routes.items():
        dynamic_entry = dynamic_routes[asn]
        assert static_entry.path == dynamic_entry.path, (
            f"{asn} {prefix}: static [{static_entry.path}] vs "
            f"dynamic [{dynamic_entry.path}]"
        )
        assert static_entry.route_class == dynamic_entry.route_class
        assert static_entry.learned_from == dynamic_entry.learned_from


class TestEquivalenceWithStaticEngine:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_algebraic_engine_on_random_topologies(self, seed):
        topo = random_topology(seed)
        hosters = topo.by_role(ASRole.HOSTER)
        announcements = [
            Announcement.make("10.0.0.0/16", hosters[0].asn),
            Announcement.make("10.0.0.0/8", hosters[1].asn),
            Announcement.make("192.0.2.0/24", hosters[2].asn),
        ]
        static_state = PropagationEngine(topo).propagate(announcements)
        dynamic_state = simulate(topo, announcements)
        for announcement in announcements:
            assert_same_routes(static_state, dynamic_state, announcement.prefix)

    @staticmethod
    def world_shaped(topo):
        """What a world's announcements look like to the engine: many
        prefixes of one origin (one shared tree), a MOAS prefix whose
        origins also announce alone, and an AS_SET aggregate naming an
        AS its routes would otherwise cross."""
        one, two, three = (n.asn for n in topo.by_role(ASRole.HOSTER)[:3])
        upstream = topo.neighbor_index()[Relationship.PROVIDER][three][0]
        return upstream, [
            Announcement.make("10.1.0.0/16", one),
            Announcement.make("10.2.0.0/16", one),
            Announcement.make("172.16.0.0/12", two),
            Announcement.make("10.3.0.0/16", one),
            Announcement.make("198.51.100.0/24", one),   # MOAS ...
            Announcement.make("10.4.0.0/16", one),
            Announcement.make("198.51.100.0/24", two),   # ... conflict
            Announcement.make("203.0.113.0/24", three),
            Announcement.make(
                "192.0.2.0/24", three, aggregate_members=[three, upstream]
            ),
        ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shared_trees_moas_and_as_set_loops_match_the_simulator(self, seed):
        topo = random_topology(seed)
        upstream, announcements = self.world_shaped(topo)
        static_state = PropagationEngine(topo).propagate(announcements)
        dynamic_state = simulate(topo, announcements)
        for prefix in static_state.prefixes():
            assert_same_routes(static_state, dynamic_state, prefix)
        # The named AS carries the plain prefix of the same origin and
        # must refuse the aggregate: its own number is in the AS_SET.
        assert static_state.route_at(upstream, P("203.0.113.0/24")) is not None
        assert static_state.route_at(upstream, P("192.0.2.0/24")) is None
        assert len(static_state.routes_for(P("192.0.2.0/24"))) > 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_record_ases_is_the_full_result_filtered(self, seed):
        topo = random_topology(seed)
        _upstream, announcements = self.world_shaped(topo)
        recorded = set(topo.asns()[::4])
        engine = PropagationEngine(topo)
        full = engine.propagate(announcements)
        partial = engine.propagate(announcements, record_ases=recorded)
        in_announcement_order = list(
            dict.fromkeys(a.prefix for a in announcements)
        )
        assert full.prefixes() == in_announcement_order
        assert partial.prefixes() == in_announcement_order
        for prefix in in_announcement_order:
            assert list(partial.routes_for(prefix).items()) == [
                (asn, entry)
                for asn, entry in full.routes_for(prefix).items()
                if asn in recorded
            ]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_valid_and_invalid_prefix_of_one_origin_share_no_tree(self, seed):
        topo = random_topology(seed)
        origin = topo.by_role(ASRole.HOSTER)[0].asn
        valid, invalid = P("10.1.0.0/16"), P("10.2.0.0/16")
        payloads = ValidatedPayloads([
            VRP(valid, 16, origin), VRP(invalid, 16, ASN(int(origin) + 1)),
        ])
        enforcing = frozenset(topo.asns()[::3]) - {origin}
        announcements = [
            Announcement.make(valid, origin), Announcement.make(invalid, origin),
        ]
        static_state = PropagationEngine(topo).propagate(
            announcements, payloads=payloads, enforcing=enforcing
        )
        dynamic_state = simulate(topo, announcements, payloads, enforcing)
        assert enforcing <= set(static_state.routes_for(valid))
        assert not enforcing & set(static_state.routes_for(invalid))
        for prefix in (valid, invalid):
            assert set(static_state.routes_for(prefix)) == (
                set(dynamic_state.routes_for(prefix))
            )

    def test_origin_outside_the_topology_lists_an_empty_table(self, diamond):
        inside, outside = P("10.0.0.0/16"), P("192.0.2.0/24")
        state = PropagationEngine(diamond).propagate([
            Announcement.make(outside, 64999), Announcement.make(inside, 5),
        ])
        assert state.prefixes() == [outside, inside]
        assert state.routes_for(outside) == {}
        assert len(state.routes_for(inside)) == 6

    def test_matches_engine_with_rpki_enforcement(self, diamond):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/16"), 16, ASN(6))])
        enforcing = frozenset(ASN(a) for a in (1, 2, 3, 4, 6))
        hijack = Announcement.make("10.0.0.0/16", 5)

        static_state = PropagationEngine(diamond).propagate(
            [hijack], payloads=payloads, enforcing=enforcing
        )
        sim = SessionSimulator(diamond)
        sim.configure_validation(payloads, enforcing)
        sim.run()
        sim.announce(hijack)
        sim.run()
        dynamic_state = sim.routing_state()
        prefix = P("10.0.0.0/16")
        assert set(static_state.routes_for(prefix)) == set(
            dynamic_state.routes_for(prefix)
        )


class TestDynamicRevalidation:
    def test_late_vrps_expel_accepted_hijack(self, diamond):
        """RTR refresh mid-flight: a previously accepted invalid route
        is expelled once VRPs arrive (RFC 6811 revalidation)."""
        sim = SessionSimulator(diamond)
        hijack = Announcement.make("10.0.0.0/16", 5)  # AS5 not authorized
        sim.announce(hijack)
        sim.run()
        prefix = P("10.0.0.0/16")
        assert sim.route_at(ASN(3), prefix) is not None  # accepted

        payloads = ValidatedPayloads([VRP(prefix, 16, ASN(6))])
        sim.configure_validation(
            payloads, enforcing=[ASN(a) for a in (1, 2, 3, 4, 6)]
        )
        sim.run()
        assert sim.route_at(ASN(3), prefix) is None
        assert sim.route_at(ASN(1), prefix) is None
        # The unauthorized origin keeps its own route (it does not
        # validate its own origination away).
        assert sim.route_at(ASN(5), prefix) is not None

    def test_vrp_rollback_restores_routes(self, diamond):
        sim = SessionSimulator(diamond)
        prefix = P("10.0.0.0/16")
        payloads = ValidatedPayloads([VRP(prefix, 16, ASN(6))])
        everyone = [ASN(a) for a in (1, 2, 3, 4, 6)]
        sim.configure_validation(payloads, everyone)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        sim.run()
        assert sim.route_at(ASN(1), prefix) is None
        # The ROA turns out wrong and is replaced to authorize AS5.
        sim.configure_validation(
            ValidatedPayloads([VRP(prefix, 16, ASN(5))]), everyone
        )
        sim.run()
        assert sim.route_at(ASN(1), prefix) is not None


class TestSpeaker:
    def test_rejects_foreign_messages(self, diamond):
        speaker = BGPSpeaker(ASN(1), diamond)
        from repro.bgp.aspath import ASPath

        with pytest.raises(BGPError):
            speaker.receive(
                UpdateMessage(ASN(3), ASN(2), P("10.0.0.0/16"), ASPath.of(3))
            )
        with pytest.raises(BGPError):
            speaker.receive(
                UpdateMessage(ASN(99), ASN(1), P("10.0.0.0/16"), ASPath.of(99))
            )

    def test_loop_paths_never_adopted(self, diamond):
        speaker = BGPSpeaker(ASN(1), diamond)
        from repro.bgp.aspath import ASPath

        speaker.receive(
            UpdateMessage(ASN(3), ASN(1), P("10.0.0.0/16"), ASPath.of(3, 1, 5))
        )
        assert speaker.loc_rib == {}

    def test_repr(self, diamond):
        sim = SessionSimulator(diamond)
        sim.announce(Announcement.make("10.0.0.0/16", 5))
        sim.run()
        assert "6 speakers" in repr(sim)
        assert "routes" in repr(sim.speakers[ASN(1)])
