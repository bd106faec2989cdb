"""Tests for route collectors, table dumps, and hijack scenarios."""

import pytest

from repro.bgp import (
    Announcement,
    ASRole,
    ASTopology,
    HijackScenario,
    PropagationEngine,
    RouteCollector,
    TableDump,
    TableDumpEntry,
    ASPath,
)
from repro.net import ASN, Address, Prefix
from repro.rpki import VRP, ValidatedPayloads


def P(text):
    return Prefix.parse(text)


def _origins(dump, prefix):
    """Origin ASes of one exact prefix's rows across all peers."""
    return {entry.origin for entry in dump if entry.prefix == prefix}


@pytest.fixture()
def world():
    """Small topology with two originated prefixes and a collector."""
    topo = ASTopology()
    for asn, role in [(1, ASRole.TIER1), (2, ASRole.TIER1),
                      (3, ASRole.TRANSIT), (4, ASRole.TRANSIT),
                      (5, ASRole.HOSTER), (6, ASRole.HOSTER)]:
        topo.add_as(asn, role=role)
    topo.add_peering(1, 2)
    topo.add_provider(3, 1)
    topo.add_provider(4, 2)
    topo.add_provider(5, 3)
    topo.add_provider(6, 4)
    engine = PropagationEngine(topo)
    state = engine.propagate(
        [
            Announcement.make("10.0.0.0/16", 5),
            Announcement.make("10.0.0.0/8", 6),
            Announcement.make("192.0.2.0/24", 6, aggregate_members=[7, 8]),
        ]
    )
    return topo, state


class TestCollector:
    def test_collect_per_peer_rows(self, world):
        _topo, state = world
        collector = RouteCollector("rrc00", [1, 2])
        dump = collector.collect(state)
        # 2 peers x 3 prefixes.
        assert len(dump) == 6
        assert dump.prefixes() == {
            P("10.0.0.0/16"), P("10.0.0.0/8"), P("192.0.2.0/24")
        }

    def test_peer_without_route_contributes_nothing(self, world):
        _topo, state = world
        collector = RouteCollector("rrc01", [99])
        assert len(collector.collect(state)) == 0

    def test_paths_start_at_peer(self, world):
        _topo, state = world
        dump = RouteCollector("rrc00", [1]).collect(state)
        for entry in dump:
            assert next(iter(entry.path)) == 1
            assert entry.peer == 1


class TestTableDump:
    def test_covering_entries(self, world):
        _topo, state = world
        dump = RouteCollector("rrc00", [1]).collect(state)
        covering = dump.covering_entries(Address.parse("10.0.1.1"))
        assert [e.prefix for e in covering] == [P("10.0.0.0/8"), P("10.0.0.0/16")]

    def test_origins_for_prefix(self, world):
        _topo, state = world
        dump = RouteCollector("rrc00", [1, 2]).collect(state)
        assert _origins(dump, P("10.0.0.0/16")) == {ASN(5)}
        assert _origins(dump, P("10.0.0.0/8")) == {ASN(6)}

    def test_as_set_entries_excluded_from_origins(self, world):
        _topo, state = world
        dump = RouteCollector("rrc00", [1, 2]).collect(state)
        rows = [e for e in dump if e.prefix == P("192.0.2.0/24")]
        assert rows and all(e.has_as_set for e in rows)
        # The origin position is the AS_SET: still ambiguous.
        assert _origins(dump, P("192.0.2.0/24")) == {None}

    def test_is_reachable(self, world):
        _topo, state = world
        dump = RouteCollector("rrc00", [1]).collect(state)
        assert dump.covering_entries(Address.parse("10.200.0.1"))  # /8
        assert not dump.covering_entries(Address.parse("203.0.113.1"))

    def test_merge(self):
        a = TableDump([TableDumpEntry(P("10.0.0.0/8"), ASPath.of(1, 2), ASN(1))])
        b = TableDump([TableDumpEntry(P("11.0.0.0/8"), ASPath.of(3, 4), ASN(3))])
        merged = a.merge(b)
        assert len(merged) == 2
        assert len(a) == 1  # merge does not mutate

    def test_entry_str(self):
        entry = TableDumpEntry(P("10.0.0.0/8"), ASPath.of(1, 2), ASN(1))
        assert "10.0.0.0/8" in str(entry)
        assert entry.origin == 2
        assert not entry.has_as_set


class TestHijack:
    @pytest.fixture()
    def topo(self):
        topo = ASTopology()
        for asn, role in [(1, ASRole.TIER1), (2, ASRole.TIER1),
                          (3, ASRole.TRANSIT), (4, ASRole.TRANSIT),
                          (5, ASRole.HOSTER), (6, ASRole.STUB)]:
            topo.add_as(asn, role=role)
        topo.add_peering(1, 2)
        topo.add_provider(3, 1)
        topo.add_provider(4, 2)
        topo.add_provider(5, 3)   # victim
        topo.add_provider(6, 4)   # attacker
        return topo

    def test_origin_hijack_splits_topology(self, topo):
        scenario = HijackScenario(topo)
        outcome = scenario.run(
            Announcement.make("10.0.0.0/16", 5), attacker=6,
        )
        assert outcome.victim == 5
        assert outcome.attacker == 6
        # Both sides keep their nearest origin; nobody is disconnected.
        assert outcome.attacker_captured
        assert outcome.victim_retained
        assert not outcome.disconnected
        assert ASN(4) in outcome.attacker_captured
        assert ASN(3) in outcome.victim_retained
        assert 0 < outcome.capture_fraction < 1

    def test_subprefix_hijack_captures_everything(self, topo):
        scenario = HijackScenario(topo)
        outcome = scenario.run(
            Announcement.make("10.0.0.0/16", 5),
            attacker=6,
            hijack_prefix="10.0.0.0/24",
        )
        # Longest-prefix match sends everyone (except the victim's own
        # forwarding of covered space) to the attacker.
        assert outcome.capture_fraction > 0.5
        assert ASN(3) in outcome.attacker_captured

    def test_rpki_enforcement_blocks_hijack(self, topo):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/16"), 24, ASN(5))])
        everyone = frozenset(ASN(a) for a in (1, 2, 3, 4, 5))
        scenario = HijackScenario(topo)
        outcome = scenario.run(
            Announcement.make("10.0.0.0/16", 5),
            attacker=6,
            hijack_prefix="10.0.0.0/24",
            payloads=payloads,
            enforcing=everyone,
        )
        # Only the attacker itself still "routes" to the attacker.
        assert outcome.attacker_captured == {ASN(6)}
        assert outcome.capture_fraction == pytest.approx(1 / 6)

    def test_partial_enforcement_partially_protects(self, topo):
        payloads = ValidatedPayloads([VRP(P("10.0.0.0/16"), 16, ASN(5))])
        scenario = HijackScenario(topo)
        unprotected = scenario.run(
            Announcement.make("10.0.0.0/16", 5), attacker=6,
        )
        protected = scenario.run(
            Announcement.make("10.0.0.0/16", 5),
            attacker=6,
            payloads=payloads,
            enforcing=frozenset({ASN(2), ASN(4)}),
        )
        assert len(protected.attacker_captured) < len(
            unprotected.attacker_captured
        )

    def test_explicit_target_address(self, topo):
        scenario = HijackScenario(topo)
        outcome = scenario.run(
            Announcement.make("10.0.0.0/16", 5),
            attacker=6,
            hijack_prefix="10.0.128.0/24",
            target=Address.parse("10.0.0.1"),  # outside the hijacked /24
        )
        # Traffic to 10.0.0.1 matches only the victim's /16.
        assert outcome.victim_retained == {
            ASN(a) for a in (1, 2, 3, 4, 5, 6)
        } - outcome.attacker_captured
        assert ASN(3) in outcome.victim_retained
