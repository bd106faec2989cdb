"""Unit tests for repro.bgp.topology."""

import pytest

from repro.bgp import ASRole, ASTopology, Relationship
from repro.bgp.errors import TopologyError
from repro.crypto import DeterministicRNG
from repro.net import ASN


@pytest.fixture()
def triangle():
    """Provider (1) above two customers (2, 3) that peer."""
    topo = ASTopology()
    topo.add_as(1, "UPSTREAM", ASRole.TIER1)
    topo.add_as(2, "LEFT", ASRole.EYEBALL)
    topo.add_as(3, "RIGHT", ASRole.HOSTER)
    topo.add_provider(customer=2, provider=1)
    topo.add_provider(customer=3, provider=1)
    topo.add_peering(2, 3)
    return topo


class TestConstruction:
    def test_add_as(self, triangle):
        node = triangle.node(1)
        assert node.name == "UPSTREAM"
        assert node.role is ASRole.TIER1
        assert 1 in triangle
        assert 99 not in triangle
        assert len(triangle) == 3

    def test_duplicate_as_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_as(1)

    def test_self_links_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_provider(1, 1)
        with pytest.raises(TopologyError):
            triangle.add_peering(2, 2)

    def test_unknown_as_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_provider(1, 42)
        with pytest.raises(TopologyError):
            triangle.node(42)


class TestRelationships:
    def test_provider_link_both_perspectives(self, triangle):
        assert triangle.relationship(2, 1) is Relationship.PROVIDER
        assert triangle.relationship(1, 2) is Relationship.CUSTOMER

    def test_peering_symmetric(self, triangle):
        assert triangle.relationship(2, 3) is Relationship.PEER
        assert triangle.relationship(3, 2) is Relationship.PEER

    def test_missing_relationship(self, triangle):
        assert triangle.relationship(1, 99) is None

    def test_helper_lists(self, triangle):
        index = triangle.neighbor_index()
        assert index[Relationship.PROVIDER][ASN(2)] == (1,)
        assert index[Relationship.CUSTOMER][ASN(1)] == (2, 3)
        assert triangle.peers(2) == [3]
        assert index[Relationship.PROVIDER][ASN(1)] == ()

    def test_helper_lists_are_fresh(self, triangle):
        peers = triangle.peers(2)
        assert type(peers) is list
        assert all(type(asn) is ASN for asn in peers)
        peers.reverse()
        peers.append(ASN(99))
        assert triangle.peers(2) == [3]
        with pytest.raises(TopologyError):
            triangle.peers(42)

    def test_helper_lists_follow_every_mutator(self, triangle):
        customers = triangle.neighbor_index()[Relationship.CUSTOMER]
        assert customers[ASN(1)] == (2, 3)  # the index is built now
        triangle.add_as(4)
        providers = triangle.neighbor_index()[Relationship.PROVIDER]
        assert providers[ASN(4)] == ()
        triangle.add_provider(customer=4, provider=1)
        index = triangle.neighbor_index()
        assert index[Relationship.CUSTOMER][ASN(1)] == (2, 3, 4)
        assert index[Relationship.PROVIDER][ASN(4)] == (1,)
        triangle.add_peering(4, 2)
        assert triangle.peers(2) == [3, 4]
        assert triangle.peers(4) == [2]

    def test_edge_count(self, triangle):
        assert triangle.edge_count() == 3


class TestQueries:
    def test_by_role(self, triangle):
        assert [n.asn for n in triangle.by_role(ASRole.TIER1)] == [1]
        assert triangle.by_role(ASRole.CDN) == []


class TestGeneration:
    def test_generated_topology_shape(self):
        topo = ASTopology.generate(
            DeterministicRNG(1), tier1=4, transit=10, eyeballs=15,
            hosters=10, cdns=3, stubs=20,
        )
        assert len(topo) == 62
        assert len(topo.by_role(ASRole.TIER1)) == 4
        assert len(topo.by_role(ASRole.CDN)) == 3

    def test_tier1_clique(self):
        topo = ASTopology.generate(DeterministicRNG(2), tier1=4, transit=5,
                                   eyeballs=5, hosters=5, cdns=0, stubs=5)
        tier1 = [n.asn for n in topo.by_role(ASRole.TIER1)]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert topo.relationship(a, b) is Relationship.PEER

    def test_every_edge_as_has_a_provider(self):
        topo = ASTopology.generate(DeterministicRNG(3))
        providers = topo.neighbor_index()[Relationship.PROVIDER]
        for role in (ASRole.EYEBALL, ASRole.HOSTER, ASRole.STUB):
            for node in topo.by_role(role):
                assert providers[node.asn], f"{node} has no provider"

    def test_deterministic(self):
        a = ASTopology.generate(DeterministicRNG(7))
        b = ASTopology.generate(DeterministicRNG(7))
        assert a.asns() == b.asns()
        assert a.edge_count() == b.edge_count()
        for asn in a.asns():
            assert a.neighbors(asn) == b.neighbors(asn)

    def test_cdns_peer_with_eyeballs(self):
        topo = ASTopology.generate(DeterministicRNG(4), cdns=2, eyeballs=12)
        for cdn in topo.by_role(ASRole.CDN):
            assert topo.peers(cdn.asn), "CDN should peer with eyeballs"
