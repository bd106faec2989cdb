"""AS-level topology with business relationships.

The topology is a labelled graph: every AS has a role (tier-1,
transit, eyeball ISP, webhoster, CDN, stub) and a registry-style name
(used later for the paper's keyword spotting over "common AS
assignment lists"), and every link carries a Gao–Rexford relationship.

:meth:`ASTopology.generate` builds a realistic hierarchy: a tier-1
clique at the top, transit providers beneath, and eyeballs, hosters,
CDNs, and stubs multi-homed to the layers above, plus peering edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.bgp.errors import TopologyError
from repro.bgp.policy import Relationship
from repro.crypto import DeterministicRNG
from repro.net import ASN

# relationship -> AS -> its neighbors of that kind, sorted by ASN.
Links = Dict[ASN, Tuple[ASN, ...]]
NeighborIndex = Dict[Relationship, Links]


class ASRole(enum.Enum):
    TIER1 = "tier1"
    TRANSIT = "transit"
    EYEBALL = "eyeball"      # access / eyeball ISP
    HOSTER = "hoster"        # webhosting provider
    CDN = "cdn"
    STUB = "stub"            # enterprise / small content AS

    def __str__(self) -> str:
        return self.value


@dataclass
class ASNode:
    """One autonomous system."""

    asn: ASN
    name: str
    role: ASRole
    organisation: str = ""

    def __repr__(self) -> str:
        return f"<{self.asn} {self.name!r} ({self.role})>"


class ASTopology:
    """A mutable AS graph with relationship-labelled edges."""

    def __init__(self):
        self._nodes: Dict[ASN, ASNode] = {}
        # adjacency[a][b] = relationship of b *from a's perspective*.
        self._adjacency: Dict[ASN, Dict[ASN, Relationship]] = {}
        # The one view derived from it (neighbor_index); mutators drop it.
        self._index: Optional[NeighborIndex] = None

    # -- construction ----------------------------------------------------

    def add_as(
        self,
        asn: Union[int, ASN],
        name: str = "",
        role: ASRole = ASRole.STUB,
        organisation: str = "",
    ) -> ASNode:
        asn = ASN(asn)
        if asn in self._nodes:
            raise TopologyError(f"{asn} already exists")
        node = ASNode(asn=asn, name=name or f"AS{int(asn)}", role=role,
                      organisation=organisation)
        self._nodes[asn] = node
        self._adjacency[asn] = {}
        self._index = None
        return node

    def add_provider(
        self, customer: Union[int, ASN], provider: Union[int, ASN]
    ) -> None:
        """Create a customer→provider (transit) link."""
        customer, provider = ASN(customer), ASN(provider)
        self._require(customer)
        self._require(provider)
        if customer == provider:
            raise TopologyError(f"{customer} cannot be its own provider")
        self._adjacency[customer][provider] = Relationship.PROVIDER
        self._adjacency[provider][customer] = Relationship.CUSTOMER
        self._index = None

    def add_peering(self, a: Union[int, ASN], b: Union[int, ASN]) -> None:
        """Create a settlement-free peering link."""
        a, b = ASN(a), ASN(b)
        self._require(a)
        self._require(b)
        if a == b:
            raise TopologyError(f"{a} cannot peer with itself")
        self._adjacency[a][b] = Relationship.PEER
        self._adjacency[b][a] = Relationship.PEER
        self._index = None

    def _require(self, asn: ASN) -> None:
        if asn not in self._nodes:
            raise TopologyError(f"unknown AS: {asn}")

    # -- queries ---------------------------------------------------------

    def node(self, asn: Union[int, ASN]) -> ASNode:
        asn = ASN(asn)
        self._require(asn)
        return self._nodes[asn]

    def __contains__(self, asn: Union[int, ASN]) -> bool:
        return ASN(asn) in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def ases(self) -> Iterator[ASNode]:
        return iter(self._nodes.values())

    def asns(self) -> List[ASN]:
        return list(self._nodes)

    def by_role(self, role: ASRole) -> List[ASNode]:
        return [node for node in self._nodes.values() if node.role is role]

    def neighbors(self, asn: Union[int, ASN]) -> Dict[ASN, Relationship]:
        asn = ASN(asn)
        self._require(asn)
        return dict(self._adjacency[asn])

    def relationship(
        self, a: Union[int, ASN], b: Union[int, ASN]
    ) -> Optional[Relationship]:
        """Relationship of ``b`` from ``a``'s perspective, or None."""
        return self._adjacency.get(ASN(a), {}).get(ASN(b))

    def neighbor_index(self) -> NeighborIndex:
        """Every AS's providers, customers and peers, ASN-sorted: built
        whole on first read, published by one assignment (threads share
        a topology), and frozen — shared until a mutator drops it."""
        index = self._index
        if index is None:
            index = self._index = {
                kind: {
                    asn: tuple(sorted(n for n, r in adjacency.items() if r is kind))
                    for asn, adjacency in self._adjacency.items()
                }
                for kind in Relationship
            }
        return index

    def peers(self, asn: Union[int, ASN]) -> List[ASN]:
        return list(self.neighbor_index()[Relationship.PEER][self.node(asn).asn])

    def edge_count(self) -> int:
        return sum(len(adj) for adj in self._adjacency.values()) // 2

    # -- generation ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        rng: DeterministicRNG,
        tier1: int = 5,
        transit: int = 20,
        eyeballs: int = 40,
        hosters: int = 30,
        cdns: int = 0,
        stubs: int = 40,
        first_asn: int = 100,
    ) -> "ASTopology":
        """Generate a hierarchical topology.

        * tier-1 ASes form a full peering clique,
        * transit ASes buy from 1–3 tier-1/transit providers and peer
          laterally with probability ~0.2,
        * eyeballs, hosters, CDNs, and stubs buy from 1–3 transit or
          tier-1 providers,
        * CDN ASes additionally peer with many eyeballs (mirroring how
          real CDNs connect close to users).
        """
        topology = cls()
        rng = rng.fork("topology")
        next_asn = first_asn

        def allocate(count: int, role: ASRole, label: str) -> List[ASN]:
            nonlocal next_asn
            allocated = []
            for index in range(count):
                asn = ASN(next_asn)
                next_asn += 1
                topology.add_as(
                    asn,
                    name=f"{label.upper()}-{index + 1}",
                    role=role,
                    organisation=f"{label.title()} {index + 1}",
                )
                allocated.append(asn)
            return allocated

        tier1_asns = allocate(tier1, ASRole.TIER1, "tier1")
        transit_asns = allocate(transit, ASRole.TRANSIT, "transit")
        eyeball_asns = allocate(eyeballs, ASRole.EYEBALL, "eyeball")
        hoster_asns = allocate(hosters, ASRole.HOSTER, "hoster")
        cdn_asns = allocate(cdns, ASRole.CDN, "cdn")
        stub_asns = allocate(stubs, ASRole.STUB, "stub")

        for i, a in enumerate(tier1_asns):
            for b in tier1_asns[i + 1:]:
                topology.add_peering(a, b)

        upstream_pool = list(tier1_asns)
        for asn in transit_asns:
            provider_count = rng.randint(1, min(3, len(upstream_pool)))
            for provider in rng.sample(upstream_pool, provider_count):
                topology.add_provider(asn, provider)
            upstream_pool.append(asn)  # later transits may buy from earlier

        for i, a in enumerate(transit_asns):
            for b in transit_asns[i + 1:]:
                if (
                    rng.random() < 0.2
                    and topology.relationship(a, b) is None
                ):
                    topology.add_peering(a, b)

        edge_pool = tier1_asns + transit_asns
        for asn in eyeball_asns + hoster_asns + cdn_asns + stub_asns:
            provider_count = rng.randint(1, 3)
            for provider in rng.sample(edge_pool, min(provider_count, len(edge_pool))):
                if topology.relationship(asn, provider) is None:
                    topology.add_provider(asn, provider)

        for cdn in cdn_asns:
            # CDNs peer densely with eyeball networks.
            peer_count = max(1, len(eyeball_asns) // 3)
            for eyeball in rng.sample(eyeball_asns, min(peer_count, len(eyeball_asns))):
                if topology.relationship(cdn, eyeball) is None:
                    topology.add_peering(cdn, eyeball)

        return topology

    def __repr__(self) -> str:
        return f"<ASTopology {len(self._nodes)} ASes, {self.edge_count()} links>"
